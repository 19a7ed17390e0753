"""Row reduction of dense integer matrices mod p.

This is the kernel behind graded ideal membership, which runs it once per
connected block of the sparse system that meets the target (two blocks of
about 100x200 for the binding instance), never on the whole system.  Entries
are kept *lazily* reduced: an update subtracts m·(pivot row) with both factors
already reduced below p, so each entry grows by at most (p-1)² per pivot step
and never needs a per-element modulo.  With at most `rows` pivots the
magnitude bound is

    (p-1) + rows·(p-1)²,

which the caller must keep inside the dtype (``required_dtype`` below).  Only
pivot rows and multipliers are reduced eagerly.

Both implementations perform the same pivot choices (first row with a nonzero
residue, columns scanned left to right), so rank, pivot columns and the
back-substituted solution are identical between the numba and numpy paths.
"""
import numpy as np

from ._backend import USE_NUMBA, njit


def required_dtype(nrows: int, p: int):
    """Smallest safe integer dtype for a lazy elimination with these parameters."""
    bound = (p - 1) + nrows * (p - 1) ** 2
    if bound < 2**31:
        return np.int32
    if bound < 2**63:
        return np.int64
    raise OverflowError(f"modulus {p} too large for a {nrows}-row lazy elimination")


def _eliminate_loops(a, p):
    """Forward elimination in place; returns (rank, pivot column array)."""
    m, n = a.shape
    npiv = 0
    pivots = np.empty(min(m, n - 1), dtype=np.int64)
    for col in range(n - 1):
        sel = -1
        for r in range(npiv, m):
            if a[r, col] % p != 0:
                sel = r
                break
        if sel < 0:
            continue
        if sel != npiv:
            for j in range(col, n):
                t = a[sel, j]
                a[sel, j] = a[npiv, j]
                a[npiv, j] = t
        pv = a[npiv, col] % p
        inv = 1
        base = pv
        e = p - 2
        while e:
            if e & 1:
                inv = inv * base % p
            base = base * base % p
            e >>= 1
        for j in range(col, n):
            a[npiv, j] = (a[npiv, j] % p) * inv % p
        for r in range(npiv + 1, m):
            mv = a[r, col] % p
            if mv != 0:
                for j in range(col, n):
                    a[r, j] -= mv * a[npiv, j]
        pivots[npiv] = col
        npiv += 1
        if npiv == m:
            break
    return npiv, pivots[:npiv]


_eliminate_numba = njit(cache=True)(_eliminate_loops) if njit is not None else None


def eliminate_mod_p_numpy(a, p):
    """Vectorized elimination; same pivot choices and contract as the loop kernel."""
    m, n = a.shape
    npiv = 0
    pivots = []
    for col in range(n - 1):
        colvals = a[npiv:, col] % p
        nz = np.nonzero(colvals)[0]
        if nz.size == 0:
            continue
        sel = npiv + int(nz[0])
        if sel != npiv:
            a[[npiv, sel]] = a[[sel, npiv]]
        pivrow = a[npiv, col:] % p
        inv = pow(int(pivrow[0]), -1, p)
        pivrow = pivrow * inv % p
        a[npiv, col:] = pivrow
        below = a[npiv + 1 :, col] % p
        rows = np.nonzero(below)[0]
        if rows.size:
            a[npiv + 1 + rows, col:] -= below[rows, None] * pivrow[None, :]
        pivots.append(col)
        npiv += 1
        if npiv == m:
            break
    return npiv, np.asarray(pivots, dtype=np.int64)


def eliminate_mod_p(a, p):
    if USE_NUMBA:
        return _eliminate_numba(a, p)
    return eliminate_mod_p_numpy(a, p)


def back_substitute(a, rank: int, pivots, p):
    """Solve the echelonized augmented system; free variables are set to zero."""
    n = a.shape[1] - 1
    x = np.zeros(n, dtype=np.int64)
    if rank == 0:
        return x
    w = a[:rank] % p
    piv = np.asarray(pivots[:rank], dtype=np.int64)
    for i in range(rank - 1, -1, -1):
        acc = int(w[i, n])
        later = piv[i + 1 :]
        if later.size:
            acc -= int(w[i, later] @ x[later])
        x[piv[i]] = acc % p
    return x


def solve_mod_p(aug, p):
    """Solve A·x ≡ b (mod p) for the augmented [A | b] given as one array.

    Returns (x, rank, pivots); x is None when the system is inconsistent.
    The input array is destroyed.
    """
    rank, pivots = eliminate_mod_p(aug, p)
    if rank < aug.shape[0] and np.any(aug[rank:, -1] % p):
        return None, rank, pivots
    return back_substitute(aug, rank, pivots, p), rank, pivots
