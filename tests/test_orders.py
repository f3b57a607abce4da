"""The specific partial orders: golden Hasse diagrams, ideal-lattice
representations, Bruhat connections, Catalan subposets, and cover moves."""

import json
from itertools import product
from math import comb, factorial, prod

import numpy as np
import pytest

import golden_data as gold
from gogmagog import claims, orders
from gogmagog.enumeration import CapExceeded
from gogmagog.poset import Poset
from gogmagog.statistics import avoids
from gogmagog.triangles import Permutation
from reference_poset import cover_label_pairs, dense_covers, distributivity_witness, is_distributive_lattice


def catalan(n):
    from math import comb

    return comb(2 * n, n) // (n + 1)


def short_labels(poset):
    return {
        (gold.short_triangle(json.loads(a)["rows"]), gold.short_triangle(json.loads(b)["rows"]))
        for a, b in cover_label_pairs(poset)
    }


# ----------------------------------------------------- coordinate posets


def test_coordinate_posets_sizes():
    assert orders.build_Pn(2).size == 1
    assert orders.build_Qn(2).size == 1
    for n in (2, 3, 4, 5):
        expected = n * (n - 1) * (n + 1) // 6  # C(n+1, 3)
        assert orders.build_Pn(n).size == expected
        assert orders.build_Qn(n).size == expected
    assert orders.build_Pn(1).size == 0


def test_ideal_counts():
    assert orders.build_Pn(3).order_ideals().size == 7
    assert orders.build_Pn(4).order_ideals().size == 42
    assert orders.build_Qn(4).order_ideals().size == 42
    assert orders.build_Pn(5).order_ideals().size == 429
    assert orders.build_Qn(5).order_ideals().size == 429


def asm_count(n):
    """prod_k (3k+1)! / (n+k)!, the number of n x n alternating sign matrices."""
    return prod(factorial(3 * k + 1) for k in range(n)) // prod(factorial(n + k) for k in range(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_count_ideals_is_the_product_formula(n):
    for coordinates in (orders.build_Pn(n), orders.build_Qn(n)):
        assert coordinates.count_ideals() == asm_count(n)
        if n <= 5:
            assert len(coordinates.order_ideals()) == asm_count(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_ideal_lattices_are_containment(n):
    """The relation of ``order_ideals`` is containment of the ideals, and its
    covers the generic transitive reduction of that relation."""
    for coordinates in (orders.build_Pn(n), orders.build_Qn(n)):
        ideals = coordinates.order_ideals()
        sets = [frozenset(label) for label in ideals.labels]
        assert ideals.leq_matrix().tolist() == [[x <= y for y in sets] for x in sets]
        assert np.array_equal(ideals.cover_matrix(), dense_covers(ideals.leq_matrix()))


def test_order_five_coordinate_poset_structure():
    p5, q5 = orders.build_Pn(5), orders.build_Qn(5)
    assert (p5.size, len(p5.cover_pairs())) == (20, 40)
    assert (q5.size, len(q5.cover_pairs())) == (20, 30)


def test_componentwise_size_guard(monkeypatch):
    from gogmagog.poset import SizeCap

    monkeypatch.setattr(orders, "_MAX_RELATION_BYTES", 15)
    with pytest.raises(SizeCap, match="^poset on 2 elements needs 16 bytes of relation, more than 15$"):
        orders._componentwise(["a", "b"], [(0,), (1,)])
    monkeypatch.setattr(orders, "_MAX_RELATION_BYTES", 16)
    assert orders._componentwise(["a", "b"], [(0,), (1,)]).size == 2


# ---------------------------------------------------------- object posets


def test_A3_matches_golden_covers():
    assert short_labels(orders.build_An(3)) == gold.A3_COVERS


def test_T3_matches_golden_covers():
    assert short_labels(orders.build_Tn(3)) == gold.T3_COVERS


def test_TBool3_matches_golden_covers():
    assert short_labels(orders.build_TBool(3)) == gold.TBOOL3_COVERS


def test_single_element_orders():
    for builder in (orders.build_An, orders.build_Tn, orders.build_TBool):
        assert builder(1).size == 1


def test_cover_counts_order_three():
    assert len(orders.build_An(3).cover_pairs()) == 8
    assert len(orders.build_Tn(3).cover_pairs()) == 8
    assert len(orders.build_TBool(3).cover_pairs()) == 9


def test_TBool3_is_nondistributive_lattice():
    tbool = orders.build_TBool(3)
    assert tbool.lattice_report().is_lattice and distributivity_witness(tbool) is not None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_object_orders_are_ideal_lattices(n):
    assert orders.build_An(n).isomorphism_to(orders.build_Pn(n).order_ideals()) is not None
    assert orders.build_Tn(n).isomorphism_to(orders.build_Qn(n).order_ideals()) is not None
    for builder in (orders.build_An, orders.build_Tn):
        assert is_distributive_lattice(builder(n))


def test_object_orders_are_ideal_lattices_order_five():
    # one order past the required range; 429-element isomorphisms
    assert orders.build_An(5).isomorphism_to(orders.build_Pn(5).order_ideals()) is not None
    assert orders.build_Tn(5).isomorphism_to(orders.build_Qn(5).order_ideals()) is not None


# ----------------------------------------------------- permutation posets


def test_T3_perm_golden_covers_and_mirror_shape():
    t3p = orders.build_Tn_perm(3)
    assert t3p.size == 6
    assert cover_label_pairs(t3p) == {
        ("123", "132"),
        ("132", "213"),
        ("132", "231"),
        ("213", "312"),
        ("231", "321"),
        ("312", "321"),
    }
    # the inverse-permutation labelling gives the same shape
    mirrored = Poset.from_covers(
        sorted({x for pair in gold.T3PERM_MIRROR_COVERS for x in pair}),
        gold.T3PERM_MIRROR_COVERS,
    )
    assert t3p.isomorphism_to(mirrored) is not None


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_orders_share_one_label_order(n):
    """The five orders on permutations list them in one order, which the
    permutation claims compare their rows in."""
    labels = orders._one_line(orders._permutations(n))
    builders = (
        orders.build_An_perm,
        orders.build_Tn_perm,
        orders.build_TBool_perm,
        orders.build_weak_order,
        orders.build_strong_bruhat,
    )
    assert all(build(n).labels == tuple(labels) for build in builders)
    assert labels == sorted(labels)


def test_bruhat_orders_on_s3():
    weak = orders.build_weak_order(3)
    strong = orders.build_strong_bruhat(3)
    assert len(cover_label_pairs(weak)) == 6
    assert cover_label_pairs(strong) == gold.STRONG3_COVERS
    assert weak.relations_not_in(strong) is None
    assert strong.relations_not_in(weak) is not None


def test_bruhat_orders_tiny():
    assert orders.build_weak_order(1).size == 1
    assert cover_label_pairs(orders.build_strong_bruhat(2)) == {("12", "21")}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_monotone_permutation_subposet_is_strong_bruhat(n):
    result = claims.run_claim("thm4.4", n)
    assert result["ok"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lattice_thresholds(n):
    result = claims.run_claim("prop-nonlattice", n)
    assert result["ok"]
    if n == 4:
        assert result["witnesses"]  # an explicit no-meet/no-join pair


def test_T4_perm_non_lattice_has_witness():
    report = orders.build_Tn_perm(4).lattice_report()
    assert not report.is_lattice
    kind, x, y = report.witness
    assert kind in ("meet", "join")
    assert {len(x), len(y)} == {4}


# -------------------------------------------------------- Catalan posets


def test_tamari_and_catalan_golden_covers():
    tam = orders.build_tamari(3)
    cat = orders.build_catalan_distributive(3)
    assert cover_label_pairs(tam) == gold.TAM3_COVERS
    assert cover_label_pairs(cat) == gold.CAT3_COVERS
    assert tam.isomorphism_to(cat) is None


def bracket_vectors(n):
    """The definition, filtered from all n! sequences with i <= x_i <= n."""
    return [
        x
        for x in product(*(range(i, n + 1) for i in range(1, n + 1)))
        if all(x[j] <= x[i] for i in range(n) for j in range(i, min(x[i], n)))
    ]


def catalan_sequences(n):
    return [
        x
        for x in product(*(range(i, n + 1) for i in range(1, n + 1)))
        if all(x[i] <= x[i + 1] for i in range(n - 1))
    ]


@pytest.mark.parametrize("n", range(10))
def test_catalan_sequences_equal_the_filtered_definitions(n):
    assert orders.bracket_vectors(n) == bracket_vectors(n)
    assert orders.catalan_sequences(n) == catalan_sequences(n)
    assert len(orders.bracket_vectors(n)) == catalan(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_catalan_counts(n):
    assert orders.build_tamari(n).size == catalan(n)
    assert orders.build_catalan_distributive(n).size == catalan(n)


def test_tamari_not_isomorphic_to_catalan_at_four():
    assert orders.build_tamari(4).isomorphism_to(orders.build_catalan_distributive(4)) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_catalan_distributive_is_distributive_lattice(n):
    assert is_distributive_lattice(orders.build_catalan_distributive(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tamari_is_lattice(n):
    assert orders.build_tamari(n).lattice_report().is_lattice


@pytest.mark.parametrize("n", range(1, 10))
def test_tamari_cover_count_is_the_rotation_count(n):
    """Each of the C_n binary trees has n - 1 rotation sites, each a cover
    up or down, so the Tamari order has (n - 1) C_n / 2 covers."""
    assert len(orders.build_tamari(n).cover_pairs()) == (n - 1) * catalan(n) // 2


@pytest.mark.parametrize("claim", ["thm4.9", "thm4.12", "cor4.17"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_catalan_subposet_claims(claim, n):
    assert claims.run_claim(claim, n)["ok"]


# ----------------------------------------------- product of chains, sandwich


def test_product_of_chains():
    assert orders.build_product_of_chains(2).size == 2
    sizes = [orders.build_product_of_chains(n).size for n in (1, 2, 3, 4, 5)]
    assert sizes == [1, 2, 6, 24, 120]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_sandwich(n):
    result = claims.run_claim("cor4.16", n)
    assert result["ok"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cover_moves(n):
    result = claims.run_claim("lemma4.8", n)
    assert result["ok"]
    assert result["cover_count"] > 0


# --------------------------------------------------------------- remark


def test_other_avoidance_classes_at_four_are_neither_ranked_nor_lattices():
    t4p = orders.build_Tn_perm(4)
    for pattern in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
        sub = t4p.induced(
            lambda s, pat=pattern: avoids(Permutation.from_one_line(s), pat)
        )
        assert sub.size == 14
        assert not sub.is_ranked()
        assert not sub.lattice_report().is_lattice


# ------------------------------------------------------------ input contract


@pytest.mark.parametrize(
    "builder",
    [
        orders.build_Pn,
        orders.build_Qn,
        orders.build_tamari,
        orders.build_catalan_distributive,
        orders.build_product_of_chains,
        orders.build_An,
        orders.build_Tn,
        orders.build_TBool,
        orders.build_An_perm,
        orders.build_Tn_perm,
        orders.build_TBool_perm,
        orders.build_weak_order,
        orders.build_strong_bruhat,
        claims.verify_all,
    ],
)
@pytest.mark.parametrize("n", [0, -1])
def test_builders_refuse_orders_below_one(builder, n):
    with pytest.raises(CapExceeded, match=f"^order must be >= 1, got {n}$"):
        builder(n)


def refuse(*args, **kwargs):
    raise AssertionError("allocated past a size guard")


# The relation guard admits 268435456 bytes: the 8! permutations (40320 rows
# of 630 words, 203212800 bytes) and C_10 bracket vectors pass.


@pytest.mark.parametrize("builder", [orders.build_weak_order, orders.build_strong_bruhat])
def test_bruhat_orders_refuse_order_nine_before_enumerating(monkeypatch, builder):
    from gogmagog import enumeration
    from gogmagog.poset import SizeCap

    monkeypatch.setattr(enumeration, "entries", refuse)
    monkeypatch.setattr(enumeration, "generate", refuse)
    orders._check_size(8, factorial)
    with pytest.raises(
        SizeCap, match="^poset on 362880 elements needs 16460236800 bytes of relation, more than 268435456$"
    ):
        builder(9)


@pytest.mark.parametrize("builder", [orders.build_Pn, orders.build_Qn])
def test_coordinate_posets_refuse_too_many_coordinates_before_building(monkeypatch, builder):
    from gogmagog.poset import SizeCap

    monkeypatch.setattr(Poset, "from_covers", refuse)
    orders._check_size(65, lambda m: comb(m + 1, 3))
    with pytest.raises(
        SizeCap, match="^poset on 47905 elements needs 287046760 bytes of relation, more than 268435456$"
    ):
        builder(66)


@pytest.mark.parametrize("builder", [orders.build_tamari, orders.build_catalan_distributive])
def test_catalan_orders_refuse_order_eleven_before_generating(monkeypatch, builder):
    from gogmagog.poset import SizeCap

    monkeypatch.setattr(orders, "_sequences", refuse)
    assert catalan(11) == 58786
    with pytest.raises(
        SizeCap, match="^poset on 58786 elements needs 432194672 bytes of relation, more than 268435456$"
    ):
        builder(11)


def test_product_of_chains_refuses_order_nine_before_building(monkeypatch):
    from gogmagog import enumeration
    from gogmagog.poset import SizeCap

    monkeypatch.setattr(enumeration, "entries", refuse)
    monkeypatch.setattr(orders, "product", refuse)
    with pytest.raises(
        SizeCap, match="^poset on 362880 elements needs 16460236800 bytes of relation, more than 268435456$"
    ):
        orders.build_product_of_chains(9)


@pytest.mark.parametrize("builder", [orders.build_An, orders.build_Tn, orders.build_TBool])
def test_object_orders_refuse_order_seven_before_enumerating(monkeypatch, builder):
    from gogmagog import enumeration
    from gogmagog.poset import SizeCap

    monkeypatch.setenv("TSSCPP_MAX_N", "8")
    monkeypatch.setattr(enumeration, "entries", refuse)
    with pytest.raises(
        SizeCap, match="^poset on 218348 elements needs 5960027008 bytes of relation, more than 268435456$"
    ):
        builder(7)
    with pytest.raises(
        SizeCap, match="^poset on 10850216 elements needs 14715930956480 bytes of relation, more than 268435456$"
    ):
        builder(8)
    monkeypatch.delenv("TSSCPP_MAX_N")
    with pytest.raises(CapExceeded, match="^order 8 exceeds the cap 7 "):
        builder(8)
