"""Componentwise orders: the packed-bitset relation and the certified
unit-move covers against their dense definitions."""

import pytest

from gogmagog import claims, orders
from gogmagog.poset import Poset, _unit_move_covers
from reference_poset import dense_covers

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
}


@pytest.mark.parametrize("name", sorted(COMPONENTWISE_BUILDERS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bitset_relation_and_unit_move_covers_match_the_definitions(name, n):
    p = COMPONENTWISE_BUILDERS[name](n)
    v = p._vectors
    broadcast = (v[:, None, :] <= v[None, :, :]).all(axis=2)
    assert (p.leq_matrix() == broadcast).all()
    assert (p.cover_matrix() == dense_covers(broadcast)).all()


def test_unit_moves_are_certified_on_the_triangle_orders():
    # every cover of these orders is a unit move (thm4.2, thm4.6, and for
    # TBool found by the closure of the unit moves), so no fallback runs
    for builder in (orders.build_An, orders.build_Tn, orders.build_TBool):
        p = builder(5)
        covers = _unit_move_covers(p._vectors, p.leq_matrix())
        assert covers is not None and (covers == dense_covers(p.leq_matrix())).all()


def test_non_unit_cover_takes_the_fallback():
    p = Poset.componentwise(("low", "high"), [(0, 0), (1, 1)])
    assert _unit_move_covers(p._vectors, p.leq_matrix()) is None
    assert p.cover_label_pairs() == {("low", "high")}
    # a unit move below a non-unit cover: its closure still misses a < c
    q = Poset.componentwise("abc", [(0, 0), (1, 0), (2, 2)])
    assert _unit_move_covers(q._vectors, q.leq_matrix()) is None
    assert (q.cover_matrix() == dense_covers(q.leq_matrix())).all()
    assert q.cover_label_pairs() == {("a", "b"), ("b", "c")}


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
