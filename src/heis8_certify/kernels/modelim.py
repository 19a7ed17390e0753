"""Row reduction of dense integer matrices mod p, with numpy.

No module of the package calls it.  Graded ideal membership solves its
blocks with the pure-integer membership.sparse_solve_mod_p, so that numpy
stays out of every run that does not sample.  solve_mod_p remains as the dense
reference that solver is tested against, and perfbench/trace_child.py still
wraps it by name.

Entries are kept *lazily* reduced: an update subtracts m·(pivot row) with
both factors already reduced below p, so each entry grows by at most (p-1)²
per pivot step and never needs a per-element modulo.  With at most `rows`
pivots the magnitude bound is

    (p-1) + rows·(p-1)²,

which the caller must keep inside the dtype (``required_dtype`` below).  Only
pivot rows and multipliers are reduced eagerly.
"""
import numpy as np


def required_dtype(nrows: int, p: int):
    """Smallest safe integer dtype for a lazy elimination with these parameters."""
    bound = (p - 1) + nrows * (p - 1) ** 2
    if bound < 2**31:
        return np.int32
    if bound < 2**63:
        return np.int64
    raise OverflowError(f"modulus {p} too large for a {nrows}-row lazy elimination")


def eliminate_mod_p(a, p):
    """Forward elimination in place; returns (rank, pivot column array).

    Pivot choice: the first row with a nonzero residue, columns scanned left
    to right over all but the last (right-hand side) column.
    """
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
