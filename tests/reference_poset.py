"""Dense definitions of the poset engine's packed paths, kept as the test
oracle: closure and transitive reduction by an exact matrix product, meet
and join tables by a full-matrix search, and distributivity by a scan of
every triple of a lattice; the level-by-level
closure of ``poset._reach`` with unbuffered ORs; the ideal count with its
up-sets and down-sets built element by element; and the check of a poset's
packed rows, cover pairs and dense views against a dense relation, with the
vectors a builder hands to ``Poset.componentwise``.  The permutation-order
claims as decided before they read packed rows: through dense relation
matrices pulled back along label maps, on every permutation.  The
relation and the covers of a poset as sets of label pairs.
"""

from functools import lru_cache

import numpy as np
import pytest

from gogmagog import bijections, claims, enumeration, orders, statistics
from gogmagog.enumeration import FamilyId
from gogmagog.poset import Poset, _diagonal, _pack
from gogmagog.triangles import _one_line_text

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


def relation_pairs(p):
    """All strict related label pairs (x, y) of ``p`` with x < y."""
    lower, upper = np.nonzero(p.leq_matrix())
    return frozenset((p.labels[i], p.labels[j]) for i, j in zip(lower.tolist(), upper.tolist()) if i != j)


def cover_label_pairs(p):
    """The covers of ``p`` as label pairs."""
    return frozenset((p.labels[i], p.labels[j]) for i, j in p.cover_pairs())


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


def bound_table(p, lower):
    """The meet (lower=True) or join table of ``p`` and None, or None and the
    first index pair (x, y) without one: the full-matrix int64 search that
    ``Poset._bound_witness`` replaced."""
    n = p.size
    rel = p.leq_matrix() if lower else p.leq_matrix().T
    sizes = rel.sum(axis=0)
    table = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        bounds = rel[:, x : x + 1] & rel
        any_bound = bounds.any(axis=0)
        if not any_bound.all():
            y = int(np.nonzero(~any_bound)[0][0])
            return None, (x, y)
        scores = np.where(bounds, sizes[:, None] + 1, 0)
        cand = scores.argmax(axis=0)
        ok = (~bounds | rel[:, cand]).all(axis=0)
        if not ok.all():
            y = int(np.nonzero(~ok)[0][0])
            return None, (x, y)
        table[x] = cand
    return table, None


def distributivity_witness(p):
    """The first index triple (x, y, z) of a lattice with
    x /\\ (y \\/ z) != (x /\\ y) \\/ (x /\\ z), or None when it is
    distributive; meets and joins come from :func:`bound_table`."""
    meet, _ = bound_table(p, lower=True)
    join, _ = bound_table(p, lower=False)
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


def pullback(target, labels):
    """``target``'s relation matrix with row and column i at ``labels[i]``;
    no relation at all unless ``labels`` holds each label of ``target`` once."""
    if len(labels) != target.size or set(labels) != set(target.labels):
        return np.zeros((len(labels), len(labels)), dtype=bool)
    index = [target.index(label) for label in labels]
    return target.leq_matrix()[np.ix_(index, index)]


def relations_not_in(p, q):
    """The first relation x <= y of p, row by row, that q lacks, or None; a
    label q does not have lacks every relation.  On dense matrices."""
    index = np.array([q._index.get(label, -1) for label in p.labels], dtype=np.intp)
    absent = index < 0
    gap = ~q.leq_matrix()[np.ix_(index, index)] if q.size else np.ones((p.size,) * 2, dtype=bool)
    gap[absent] = gap[:, absent] = True
    gap &= p.leq_matrix()
    if not gap.any():
        return None
    i, j = np.unravel_index(gap.argmax(), gap.shape)
    return p.labels[i], p.labels[j]


def bracket_label_map(n):
    """one-line notation -> label of the bracket vector of its boolean
    triangle."""
    labels, booleans = orders._permutation_booleans(n)
    return dict(zip(labels, map(_one_line_text, bijections.booleans_to_brackets(n, booleans).tolist())))


def chain_label_map(n):
    """one-line notation -> label in ``orders.build_product_of_chains`` of the
    zero count of each boolean-triangle row."""
    labels, booleans = orders._permutation_booleans(n)
    zeros = n - bijections.booleans_to_brackets(n, booleans)[:, : n - 1][:, ::-1]
    return dict(zip(labels, map(str, map(tuple, zeros.tolist()))))


def _catalan_subposet(base_poset, n, claim, pattern, build_target):
    perms = enumeration.entries(FamilyId.PERMUTATION, n)
    avoiders = base_poset.induced(set(orders._one_line(perms[statistics.avoiding(perms, pattern)])))
    target = build_target(n)
    label_map = bracket_label_map(n)
    mapped = pullback(target, [label_map[s] for s in avoiders.labels])
    ok = np.array_equal(mapped, avoiders.leq_matrix())
    return claims._result(claim, n, ok, size=target.size)


def _strong_bruhat(n):
    a = orders.build_An_perm(n)
    ok = np.array_equal(pullback(orders.build_strong_bruhat(n), a.labels), a.leq_matrix())
    return claims._result("thm4.4", n, ok, size=a.size)


def _bruhat_sandwich(n):
    boolperm = orders.build_TBool_perm(n)
    row_zeros = chain_label_map(n)
    mapped = pullback(orders.build_product_of_chains(n), [row_zeros[s] for s in boolperm.labels])
    chains = np.array_equal(mapped, boolperm.leq_matrix())
    missing_weak = relations_not_in(orders.build_weak_order(n), boolperm)
    missing_strong = relations_not_in(boolperm, orders.build_strong_bruhat(n))
    ok = missing_weak is None and missing_strong is None and chains
    return claims._result(
        "cor4.16",
        n,
        ok,
        weak_relation_missing=missing_weak,
        strong_relation_missing=missing_strong,
        product_of_chains=chains,
    )


def _tamcat_in_boolean_poset(n):
    base = orders.build_TBool_perm(n)
    tam = _catalan_subposet(base, n, "cor4.17", (1, 3, 2), orders.build_tamari)
    cat = _catalan_subposet(base, n, "cor4.17", (2, 1, 3), orders.build_catalan_distributive)
    return claims._result("cor4.17", n, tam["ok"] and cat["ok"], tamari=tam["ok"], catalan=cat["ok"])


PERMUTATION_CLAIMS = {
    "thm4.4": _strong_bruhat,
    "thm4.9": lambda n: _catalan_subposet(orders.build_Tn_perm(n), n, "thm4.9", (1, 3, 2), orders.build_tamari),
    "thm4.12": lambda n: _catalan_subposet(
        orders.build_Tn_perm(n), n, "thm4.12", (2, 1, 3), orders.build_catalan_distributive
    ),
    "cor4.16": _bruhat_sandwich,
    "cor4.17": _tamcat_in_boolean_poset,
}
