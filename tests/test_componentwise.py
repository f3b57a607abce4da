"""Componentwise orders: the packed-bitset relation and the covers against
their dense definitions."""

import numpy as np
import pytest

from gogmagog import claims, orders
from gogmagog.cli import _poset_builders
from gogmagog.poset import Poset, SizeCap
from reference_poset import assert_relation_and_covers, built_with_vectors, cover_label_pairs, dense_covers

COMPONENTWISE_BUILDERS = {
    "An": orders.build_An,
    "Tn": orders.build_Tn,
    "TBool": orders.build_TBool,
    "AnPerm": orders.build_An_perm,
    "TnPerm": orders.build_Tn_perm,
    "TBoolPerm": orders.build_TBool_perm,
    "tamari": orders.build_tamari,
    "catalan": orders.build_catalan_distributive,
    "chains": orders.build_product_of_chains,
    "JPn": _poset_builders()["JPn"],
    "JQn": _poset_builders()["JQn"],
}


def componentwise_definition(v):
    """x <= y iff v[x] <= v[y] in every coordinate, one coordinate at a time."""
    leq = np.ones((len(v), len(v)), dtype=bool)
    for c in range(v.shape[1]):
        leq &= v[:, None, c] <= v[None, :, c]
    return leq


@pytest.mark.parametrize("name", sorted(COMPONENTWISE_BUILDERS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bitset_relation_and_unit_move_covers_match_the_definitions(name, n):
    if name in ("JPn", "JQn") and n == 6:  # P6 and Q6 have 35 elements
        with pytest.raises(SizeCap):
            COMPONENTWISE_BUILDERS[name](n)
        return
    p, vectors = built_with_vectors(COMPONENTWISE_BUILDERS[name], n)
    assert_relation_and_covers(p, componentwise_definition(vectors))


@pytest.mark.parametrize("name", ["TnPerm", "TBoolPerm"])
def test_permutation_orders_match_the_definitions_at_order_seven(name):
    p, vectors = built_with_vectors(COMPONENTWISE_BUILDERS[name], 7)
    assert_relation_and_covers(p, componentwise_definition(vectors))


def test_a_built_poset_holds_no_dense_matrix():
    p = orders.build_TBool(5)
    p.cover_pairs()
    held = [getattr(p, slot) for slot in Poset.__slots__]
    assert all(value.size < p.size**2 for value in held if isinstance(value, np.ndarray))
    assert all(type(i) is int and type(j) is int for i, j in p._covers)


def test_covers_need_not_be_unit_moves():
    # a cover that moves two coordinates, alone and above a unit move
    p = Poset.componentwise(("low", "high"), [(0, 0), (1, 1)])
    assert cover_label_pairs(p) == {("low", "high")}
    q = Poset.componentwise("abc", [(0, 0), (1, 0), (2, 2)])
    assert (q.cover_matrix() == dense_covers(q.leq_matrix())).all()
    assert cover_label_pairs(q) == {("a", "b"), ("b", "c")}


def test_componentwise_orders_take_any_width_and_value():
    # 30 coordinates near 2**62: no mixed-radix key of them fits in 64 bits
    vectors = 2**62 + np.array([[0] * 30, [1] + [0] * 29, [1, 1] + [0] * 28])
    p = Poset.componentwise("abc", vectors)
    assert p.cover_pairs() == ((0, 1), (1, 2))


def test_zero_length_vectors():
    single = orders._componentwise(["()"], [()])
    assert single.size == 1 and single.leq("()", "()")
    assert single.cover_pairs() == ()
    assert orders.build_product_of_chains(1).cover_pairs() == ()
    empty = orders._componentwise([], [])
    assert empty.size == 0 and empty.cover_pairs() == ()


def test_lemma_4_8_at_order_six():
    result = claims.run_claim("lemma4.8", 6)
    assert result["ok"] and result["cover_count"] == 32683
