"""The array kernels against scalar references, and their determinism."""
import numpy as np

from heis8_certify.kernels import sample_quadric_points
from heis8_certify.kernels.sampling import BATCH

MASK64 = (1 << 64) - 1


def toy_quadrics():
    # x0^2 + x4^2, x1*x7 + x3*x5, x2*x6, x0*x1
    ti = np.array([0, 4, 1, 3, 2, 0], dtype=np.int64)
    tj = np.array([0, 4, 7, 5, 6, 1], dtype=np.int64)
    tc = np.array([1, 1, 1, 1, 1, 1], dtype=np.int64)
    offsets = np.array([0, 2, 4, 5, 6], dtype=np.int64)
    return ti, tj, tc, offsets


def splitmix64(seed, index):
    """Word ``index`` of the SplitMix64 stream of ``seed``, in plain integers."""
    z = ((index + 1) * 0x9E3779B97F4A7C15 + seed) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_sample(ti, tj, tc, offsets, p, n_trials, seed):
    """Trial-by-trial sampler: the accepted coordinate rows and their trial indices."""
    rows, trials = [], []
    for k in range(n_trials):
        v = [splitmix64(seed, 8 * k + j) % p for j in range(8)]
        if not any(v):
            continue
        if all(
            sum(int(tc[t]) * v[ti[t]] * v[tj[t]] for t in range(offsets[q], offsets[q + 1])) % p == 0
            for q in range(len(offsets) - 1)
        ):
            rows.append(v)
            trials.append(k)
    return rows, trials


def test_sampler_matches_scalar_reference():
    # x0^2 + x4^2 and x2*x6 alone: dense enough at p = 17 to hit in every batch
    ti = np.array([0, 4, 2], dtype=np.int64)
    tj = np.array([0, 4, 6], dtype=np.int64)
    tc = np.array([1, 1, 1], dtype=np.int64)
    offsets = np.array([0, 2, 3], dtype=np.int64)
    n = BATCH + 1000  # not a multiple of the batch: crosses a batch boundary
    rows, trials = reference_sample(ti, tj, tc, offsets, 17, n, 12345)
    assert min(trials) < BATCH <= max(trials)

    count, got = sample_quadric_points(ti, tj, tc, offsets, 17, n, 12345, cap=len(rows) + 5)
    assert count == len(rows)
    assert got.tolist() == rows

    count, got = sample_quadric_points(ti, tj, tc, offsets, 17, n, 12345, cap=10)
    assert count == len(rows)
    assert got.tolist() == rows[:10]


def test_sampler_deterministic_across_calls():
    ti, tj, tc, offsets = toy_quadrics()
    a = sample_quadric_points(ti, tj, tc, offsets, 17, 100_000, 99)
    b = sample_quadric_points(ti, tj, tc, offsets, 17, 100_000, 99)
    assert a[0] == b[0]
    assert (a[1] == b[1]).all()
