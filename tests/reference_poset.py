"""Dense definitions of the poset engine's packed paths, kept as the test
oracle: closure and transitive reduction by an exact integer matrix
product, and distributivity by a scan of every triple of a lattice; and the
level-by-level closure of ``poset._reach`` with unbuffered ORs.
"""

import numpy as np

from gogmagog.poset import _diagonal


def bool_product(a, b):
    """Boolean matrix product: the int64 count of paths is exact."""
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def closure(matrix):
    """The reflexive and transitive closure of a boolean matrix, by repeated
    squaring."""
    reach = matrix.copy()
    np.fill_diagonal(reach, True)
    while True:
        nxt = reach | bool_product(reach, reach)
        if (nxt == reach).all():
            return nxt
        reach = nxt


def dense_covers(leq):
    """The transitive reduction strict & ~(strict . strict)."""
    strict = leq & ~np.eye(len(leq), dtype=bool)
    return strict & ~bool_product(strict, strict)


def distributivity_witness(p):
    """The first index triple (x, y, z) of a lattice with
    x /\\ (y \\/ z) != (x /\\ y) \\/ (x /\\ z), or None when it is
    distributive; meets and joins come from ``p._bound_table``."""
    meet, _ = p._bound_table(lower=True)
    join, _ = p._bound_table(lower=False)
    assert meet is not None and join is not None, "not a lattice"
    for x in range(p.size):
        lhs = meet[x][join]
        rhs = join[meet[x][:, None], meet[x][None, :]]
        if (lhs != rhs).any():
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            return x, y, z
    return None


def is_distributive_lattice(p):
    return p.lattice_report().is_lattice and distributivity_witness(p) is None


def reach_at(n, lower, upper):
    """What ``poset._reach`` returns, each level's rows ORed edge by edge
    with the unbuffered ``np.bitwise_or.at``."""
    own = _diagonal(n)
    reach, above = own.copy(), np.zeros_like(own)
    cover = np.zeros(len(lower), dtype=bool)
    waiting = np.bincount(lower, minlength=n)
    while (level := waiting == 0).any():
        edges = np.flatnonzero(level[lower])
        x, y = lower[edges], upper[edges]
        np.bitwise_or.at(above, x, reach[y] & ~own[y])
        np.bitwise_or.at(reach, x, reach[y])
        cover[edges] = (above[x, y >> 6] & own[y, y >> 6]) == 0
        waiting[level] = -1
        waiting -= np.bincount(lower[level[upper]], minlength=n)
    return reach, cover, waiting >= 0
