"""Mass rejection sampling of GF(p) points on an intersection of quadrics.

Coordinates are drawn from a counter-based SplitMix64 stream, so the sample
sequence depends only on (seed, trial index) and is identical across runs,
batch sizes and platforms.  The tiny modulo bias of reducing a 64-bit word
mod p (~p·2⁻⁶⁴) is irrelevant here: the sampler only corroborates point
counts at Poisson scale.
"""
import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_ONE = np.uint64(1)

# Trials per vectorized batch.  The batch arrays are most of the sampler's
# memory; at 2¹³ they take a few megabytes, and the hits do not depend on it.
BATCH = 1 << 13


def _splitmix_block(seed, start, n):
    idx = np.arange(start, start + n, dtype=np.uint64)
    z = (idx + _ONE) * _GOLDEN + np.uint64(seed)
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def sample_quadric_points(ti, tj, tc, offsets, p, n_trials, seed, cap=4096):
    """Draw ``n_trials`` coordinate vectors in GF(p)^8 and keep those on all quadrics.

    Trial k takes SplitMix64 words 8k..8k+7 of ``seed``, each reduced mod p;
    the all-zero vector is rejected.  Returns (hit_count, rows) where rows is
    an array of at most ``cap`` accepted coordinate vectors in draw order.
    hit_count may exceed rows when cap is hit.
    """
    ti = np.ascontiguousarray(ti, dtype=np.int64)
    tj = np.ascontiguousarray(tj, dtype=np.int64)
    tc = np.ascontiguousarray(tc, dtype=np.int64) % p
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    hits = []
    count = 0
    nq = offsets.shape[0] - 1
    done = 0
    while done < n_trials:
        b = min(BATCH, n_trials - done)
        words = _splitmix_block(seed, 8 * done, 8 * b)
        coords = (words % np.uint64(p)).astype(np.int64).reshape(b, 8)
        mask = coords.any(axis=1)
        for q in range(nq):
            lo, hi = offsets[q], offsets[q + 1]
            vals = (tc[lo:hi][None, :] * coords[:, ti[lo:hi]] * coords[:, tj[lo:hi]]).sum(axis=1)
            mask &= vals % p == 0
            if not mask.any():
                break
        if mask.any():
            hits.append(coords[mask])
            count += int(mask.sum())
        done += b
    if hits:
        rows = np.concatenate(hits, axis=0)
    else:
        rows = np.empty((0, 8), dtype=np.int64)
    return count, rows[:cap]
