"""Dense definitions of the poset engine's packed paths, kept as the test
oracle: closure and transitive reduction by an exact matrix product, and
distributivity by a scan of every triple of a lattice; the level-by-level
closure of ``poset._reach`` with unbuffered ORs; the ideal count with its
up-sets and down-sets built element by element; and the check of a poset's
packed rows, cover pairs and dense views against a dense relation, with the
vectors a builder hands to ``Poset.componentwise``.
"""

from functools import lru_cache

import numpy as np
import pytest

from gogmagog.poset import Poset, _diagonal, _pack

# Rows and columns of the float32 blocks that bool_product multiplies.
_PRODUCT_BLOCK = 2048


def bool_product(a, b):
    """Boolean matrix product by float32 products of row and column blocks:
    each entry counts at most len(b) < 2**24 paths, which float32 holds
    exactly whatever the order of summation."""
    assert len(b) < 1 << 24
    out = np.empty((len(a), b.shape[1]), dtype=bool)
    for i in range(0, len(a), _PRODUCT_BLOCK):
        left = a[i : i + _PRODUCT_BLOCK].astype(np.float32)
        for j in range(0, b.shape[1], _PRODUCT_BLOCK):
            right = b[:, j : j + _PRODUCT_BLOCK].astype(np.float32)
            out[i : i + _PRODUCT_BLOCK, j : j + _PRODUCT_BLOCK] = left @ right > 0
    return out


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
    reach = _diagonal(n)
    waiting = np.bincount(lower, minlength=n)
    while (level := waiting == 0).any():
        edges = np.flatnonzero(level[lower])
        np.bitwise_or.at(reach, lower[edges], reach[upper[edges]])
        waiting[level] = -1
        waiting -= np.bincount(lower[level[upper]], minlength=n)
    return reach, waiting >= 0


def count_ideals(p):
    """The number of order ideals of ``p``, by divide and conquer on the
    up-set and down-set of the last element, each built element by element."""
    n = p.size
    leq = p.leq_matrix()

    @lru_cache(maxsize=None)
    def rec(mask):
        if mask == 0:
            return 1
        x = mask.bit_length() - 1
        up = 0
        dn = 0
        for z in range(n):
            if mask >> z & 1:
                if leq[x, z]:
                    up |= 1 << z
                if leq[z, x]:
                    dn |= 1 << z
        return rec(mask & ~up) + rec(mask & ~dn)

    return rec((1 << n) - 1)


def assert_relation_and_covers(p, leq):
    """``p`` holds the dense relation ``leq`` as its packed rows, its cover
    pairs are sorted and are the dense reduction, and its dense views are
    read-only copies of both."""
    covers = dense_covers(leq)
    assert np.array_equal(p._rows, _pack(leq))
    assert list(p.cover_pairs()) == sorted(set(p.cover_pairs()))
    assert p.cover_pairs() == tuple(map(tuple, np.argwhere(covers).tolist()))
    for view, expected in ((p.leq_matrix(), leq), (p.cover_matrix(), covers)):
        assert not view.flags.writeable and np.array_equal(view, expected)


def built_with_vectors(build, n):
    """``build(n)`` and the int64 vectors of its last ``Poset.componentwise``
    call."""
    vectors = []
    componentwise = Poset.componentwise.__func__

    def recorded(cls, labels, v):
        vectors.append(np.ascontiguousarray(v, dtype=np.int64))
        return componentwise(cls, labels, v)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Poset, "componentwise", classmethod(recorded))
        poset = build(n)
    return poset, vectors[-1]
