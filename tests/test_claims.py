"""The check registry, and the claims decided through their maps or by
certificates on entry arrays: each can fail, and each verdict agrees with
the dense posets (isomorphism search, cover matrices, lattice reports)."""

import json
import time

import numpy as np
import pytest

import golden_data as gold
import reference_maps
from gogmagog import bijections, claims, enumeration, orders
from gogmagog.enumeration import FamilyId
from gogmagog.poset import Poset, SizeCap
from gogmagog.statistics import avoids
from gogmagog.triangles import Permutation
from reference_poset import PERMUTATION_CLAIMS, built_with_vectors, cover_label_pairs, relation_pairs


def swap_catalan_targets(monkeypatch):
    tamari, catalan = orders.build_tamari, orders.build_catalan_distributive
    monkeypatch.setattr(orders, "build_tamari", catalan)
    monkeypatch.setattr(orders, "build_catalan_distributive", tamari)


def avoiders(base, pattern):
    return base.induced(lambda s: avoids(Permutation.from_one_line(s), pattern))


def test_weak_order_in_place_of_strong_fails_thm44_and_cor416(monkeypatch):
    monkeypatch.setattr(orders, "build_strong_bruhat", orders.build_weak_order)
    assert not claims.run_claim("thm4.4", 3)["ok"]
    result = claims.run_claim("cor4.16", 3)
    assert not result["ok"]
    assert result["strong_relation_missing"] is not None
    assert result["weak_relation_missing"] is None and result["product_of_chains"]


@pytest.mark.parametrize("claim", ["thm4.9", "thm4.12", "cor4.17"])
def test_swapped_catalan_targets_fail(monkeypatch, claim):
    swap_catalan_targets(monkeypatch)
    assert not claims.run_claim(claim, 4)["ok"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("patched", [False, True])
def test_thm44_and_cor416_agree_with_isomorphism_search(monkeypatch, n, patched):
    if patched:
        monkeypatch.setattr(orders, "build_strong_bruhat", orders.build_weak_order)
    a, strong = orders.build_An_perm(n), orders.build_strong_bruhat(n)
    assert claims.run_claim("thm4.4", n)["ok"] == (a.isomorphism_to(strong) is not None)
    boolperm, chains = orders.build_TBool_perm(n), orders.build_product_of_chains(n)
    result = claims.run_claim("cor4.16", n)
    assert result["product_of_chains"] == (boolperm.isomorphism_to(chains) is not None)
    weak = orders.build_weak_order(n)
    assert (result["weak_relation_missing"] is None) == (weak.relations_not_in(boolperm) is None)
    assert (result["strong_relation_missing"] is None) == (boolperm.relations_not_in(strong) is None)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("patched", [False, True])
def test_catalan_claims_agree_with_isomorphism_search(monkeypatch, n, patched):
    if patched:
        swap_catalan_targets(monkeypatch)
    tamari, catalan = orders.build_tamari(n), orders.build_catalan_distributive(n)
    magog = orders.build_Tn_perm(n)
    for claim, pattern, target in (("thm4.9", (1, 3, 2), tamari), ("thm4.12", (2, 1, 3), catalan)):
        expected = avoiders(magog, pattern).isomorphism_to(target) is not None
        assert claims.run_claim(claim, n)["ok"] == expected
    base = orders.build_TBool_perm(n)
    result = claims.run_claim("cor4.17", n)
    assert result["tamari"] == (avoiders(base, (1, 3, 2)).isomorphism_to(tamari) is not None)
    assert result["catalan"] == (avoiders(base, (2, 1, 3)).isomorphism_to(catalan) is not None)


def test_verify_all_walks_the_registry_in_table_order():
    rows = claims.verify_all(3)
    arithmetic = [(r["claim"], r["n"]) for r in rows[:12]]
    assert arithmetic == [
        (name, k) for k in (1, 2, 3) for name in ("counts", "factorial", "statistics", "roundtrips")
    ]
    assert [(r["claim"], r["n"]) for r in rows[12:]] == [
        (name, k) for name in claims.CLAIMS for k in (2, 3)
    ]
    assert all(r["ok"] for r in rows)


@pytest.mark.parametrize("claim, n", sorted(gold.CLAIM_RESULTS))
def test_results_equal_the_dense_decisions(claim, n):
    assert json.dumps(claims.run_claim(claim, n)) == gold.CLAIM_RESULTS[claim, n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chain_certificate_agrees_with_isomorphism_search(n):
    for claim, order, coordinates in (
        ("thm4.2", orders.build_An(n), orders.build_Pn(n)),
        ("thm4.6", orders.build_Tn(n), orders.build_Qn(n)),
    ):
        expected = order.isomorphism_to(coordinates.order_ideals()) is not None
        assert claims.run_claim(claim, n)["ok"] == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_unit_moves_are_the_covers(n):
    _, counts, keys, strides, order, _ = claims._chain_map(FamilyId.MAGOG, orders.build_Qn(n), n)
    moves = claims._unit_moves(n, counts, keys, strides, order)
    pairs = [pair for lower, upper in moves for pair in zip(lower.tolist(), upper.tolist())]
    assert sorted(pairs) == list(orders.build_Tn(n).cover_pairs())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_batched_magog_boolean_maps_equal_the_scalar_maps(n):
    magogs = enumeration.entries(FamilyId.MAGOG, n)
    booleans = bijections.magogs_to_booleans(n, magogs)
    for m, b in zip(enumeration.generate(FamilyId.MAGOG, n), booleans.tolist()):
        assert sum(reference_maps.magog_to_boolean(m).rows, ()) == tuple(b)
    for b, m in zip(
        enumeration.generate(FamilyId.BOOLEAN, n),
        bijections.booleans_to_magogs(n, enumeration.entries(FamilyId.BOOLEAN, n)).tolist(),
    ):
        assert sum(reference_maps.boolean_to_magog(b).rows, ()) == tuple(m)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_nonlattice_witnesses_equal_the_lattice_reports(n):
    expected = {
        "magog_permutation_order": list(orders.build_Tn_perm(n).lattice_report().witness),
        "boolean_order": list(orders.build_TBool(n).lattice_report().witness),
    }
    assert json.loads(json.dumps(claims.run_claim("prop-nonlattice", n)["witnesses"])) == expected


def reverse_first_chain(chains):
    chains[0] = chains[0][::-1]


def repeat_first_chain(chains):
    chains[1] = chains[0]


@pytest.mark.parametrize(
    "mutate, reason",
    [(reverse_first_chain, "not down-closed"), (repeat_first_chain, "chains do not partition")],
)
@pytest.mark.parametrize("claim", ["thm4.2", "thm4.6", "lemma4.8"])
def test_misassigned_chain_fails_with_a_witness(monkeypatch, mutate, reason, claim):
    chains = claims._chains

    def mutated(n, magog):
        out = chains(n, magog)
        mutate(out)
        return out

    monkeypatch.setattr(claims, "_chains", mutated)
    result = claims.run_claim(claim, 4)
    assert not result["ok"] and result["witness"][0] == reason


def repeat_first_triangle(a):
    return np.concatenate([a[:1], a[:1], a[2:]])


def drop_last_triangle(a):
    return a[:-1]


@pytest.mark.parametrize(
    "edit, reason", [(repeat_first_triangle, "same ideal"), (drop_last_triangle, "ideal count")]
)
@pytest.mark.parametrize("claim", ["thm4.2", "thm4.6"])
def test_repeated_or_missing_triangle_fails_with_a_witness(monkeypatch, edit, reason, claim):
    entries = enumeration.entries
    monkeypatch.setattr(enumeration, "entries", lambda family, n: edit(entries(family, n)))
    result = claims.run_claim(claim, 4)
    assert not result["ok"] and result["witness"][0] == reason


def boolean_move(n, lower, upper):
    """The definition: a one of ``lower`` swapped with the zero southeast of
    it, or a bottom-row one turned into a zero."""
    cells = [(r, c) for r in range(n - 1) for c in range(r + 1)]
    diffs = [i for i in range(len(cells)) if lower[i] != upper[i]]
    if len(diffs) == 1:
        (r, _), i = cells[diffs[0]], diffs[0]
        return r == n - 2 and (lower[i], upper[i]) == (1, 0)
    if len(diffs) == 2:
        (i, j), ((r1, c1), (r2, c2)) = diffs, (cells[diffs[0]], cells[diffs[1]])
        values = (lower[i], lower[j], upper[i], upper[j])
        return (r2, c2) == (r1 + 1, c1 + 1) and values == (1, 0, 0, 1)
    return False


@pytest.mark.parametrize("n", [2, 3, 4])
def test_move_classifier_equals_the_definition_on_every_pair(n):
    booleans = enumeration.entries(FamilyId.BOOLEAN, n)
    lower, upper = np.repeat(booleans, len(booleans), axis=0), np.tile(booleans, (len(booleans), 1))
    expected = [boolean_move(n, x, y) for x, y in zip(lower.tolist(), upper.tolist())]
    assert claims._boolean_moves(n, lower, upper).tolist() == expected


@pytest.mark.parametrize("build", [orders.build_Tn_perm, orders.build_TBool, orders.build_tamari])
def test_meetless_agrees_with_the_relation_matrix_on_every_pair(build):
    poset, vectors = built_with_vectors(build, 4)
    leq = poset.leq_matrix()
    for x in range(poset.size):
        for y in range(poset.size):
            lower = np.flatnonzero(leq[:, x] & leq[:, y])
            has_meet = any(leq[np.ix_(lower, [g])].all() for g in lower)
            assert claims._meetless(vectors, vectors[x], vectors[y]) == (not has_meet)


def test_move_classifier_refusing_bottom_row_kills_fails_with_a_cover(monkeypatch):
    classify = claims._boolean_moves
    monkeypatch.setattr(
        claims,
        "_boolean_moves",
        lambda n, lower, upper: classify(n, lower, upper) & (lower.sum(axis=1) == upper.sum(axis=1)),
    )
    result = claims.run_claim("lemma4.8", 4)
    assert not result["ok"]
    assert tuple(result["witness"]) in cover_label_pairs(orders.build_Tn(4))


@pytest.mark.parametrize(
    "claim, n, message",
    [
        *(
            (claim, 9, "poset on 362880 elements needs 16460236800 bytes of relation, more than 268435456")
            for claim in ("thm4.4", "cor4.16")
        ),
        *(
            (claim, 11, "poset on 58786 elements needs 432194672 bytes of relation, more than 268435456")
            for claim in ("thm4.9", "thm4.12", "cor4.17")
        ),
    ],
)
def test_permutation_claims_refuse_past_the_relation_guard_before_converting(monkeypatch, claim, n, message):
    """thm4.4 and cor4.16 order all n! permutations, the Catalan claims the
    C_n avoiders: the first order whose packed relation exceeds the guard is
    refused before a permutation is listed or converted."""

    def refuse(*args):
        raise AssertionError("listed or converted a permutation")

    monkeypatch.setenv("TSSCPP_MAX_N", str(n))
    monkeypatch.setattr(bijections, "permutation_to_boolean", refuse)
    monkeypatch.setattr(bijections, "permutation_to_monotone", refuse)
    monkeypatch.setattr(enumeration, "entries", refuse)
    start = time.perf_counter()
    with pytest.raises(SizeCap, match=f"^{message}$"):
        claims.run_claim(claim, n)
    assert time.perf_counter() - start < 0.5


def test_verify_all_marks_capped_rows(monkeypatch):
    """ASMs capped at 4 and every other family at 3."""
    monkeypatch.delenv("TSSCPP_MAX_N", raising=False)
    for family in FamilyId:
        monkeypatch.setitem(enumeration.DEFAULT_CAPS, family, 4 if family is FamilyId.ASM else 3)
    rows = claims.verify_all(4)
    capped = [(r["claim"], r["n"]) for r in rows if "cap" in r]
    assert capped == [(name, 4) for name in claims.CHECKS] + [(name, 4) for name in claims.CLAIMS]
    assert all(r["ok"] for r in rows if "cap" not in r)
    assert all(not r["ok"] and "exceeds the cap 3" in r["cap"] for r in rows if "cap" in r)


def drop_a_strong_cover(monkeypatch):
    swap_covers = orders._value_swap_covers

    def one_cover_less(n, adjacent_only):
        labels, pairs = swap_covers(n, adjacent_only)
        return labels, pairs if adjacent_only else pairs[: len(pairs) // 2] + pairs[len(pairs) // 2 + 1 :]

    monkeypatch.setattr(orders, "_value_swap_covers", one_cover_less)


def with_one_relation_more(build):
    """``build`` whose order gains x <= y for its first incomparable pair
    x, y (row by row), if it has one."""

    def built(n):
        p = build(n)
        leq = p.leq_matrix()
        pairs = np.argwhere(~leq & ~leq.T)
        if not len(pairs):
            return p
        x, y = (p.labels[i] for i in pairs[0])
        return Poset.from_covers(p.labels, [*cover_label_pairs(p), (x, y)])

    return built


def add_a_relation(monkeypatch):
    for name in ("build_strong_bruhat", "build_weak_order", "build_tamari", "build_catalan_distributive"):
        monkeypatch.setattr(orders, name, with_one_relation_more(getattr(orders, name)))


def swap_builders(monkeypatch):
    monkeypatch.setattr(orders, "build_strong_bruhat", orders.build_weak_order)
    swap_catalan_targets(monkeypatch)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("patch", [None, drop_a_strong_cover, add_a_relation, swap_builders])
def test_permutation_claims_equal_the_dense_pullbacks(monkeypatch, patch, n):
    """Every verdict and witness of the five permutation-order claims equals
    the decision on dense matrices pulled back through the label maps, on
    the true orders and on orders with one strong cover dropped, one
    relation added (to the strong, weak, Tamari and Catalan orders) or the
    builders swapped."""
    if patch is not None:
        patch(monkeypatch)
    for claim, oracle in PERMUTATION_CLAIMS.items():
        assert json.dumps(claims.run_claim(claim, n)) == json.dumps(oracle(n)), claim


def repeat_a_vector(n, x):
    x[1] = x[0]


def leave_the_box_on_the_same_key(n, x):
    """c_{n-1} up by n and c_{n-2} down by one, in the first vector where
    that leaves c_{n-2} >= 0: the key stays, c_{n-1} passes n - 1."""
    r = int(np.argmax(x[:, 1] < n))
    x[r, :2] += (-n, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("edit", [repeat_a_vector, leave_the_box_on_the_same_key])
def test_zero_vectors_off_the_chain_points_fail_cor416(monkeypatch, n, edit):
    """Zero vectors that are not the points of [2]x...x[n], each once, are
    no product of chains, even when the boolean order is built as the
    componentwise order on those very vectors; as on the dense pullback."""
    brackets = bijections.booleans_to_brackets

    def edited(n, booleans):
        x = brackets(n, booleans).copy()
        edit(n, x)
        return x

    def on_zero_vectors(n):
        labels, booleans = orders._permutation_booleans(n)
        return Poset.componentwise(labels, n - edited(n, booleans)[:, : n - 1][:, ::-1])

    monkeypatch.setattr(bijections, "booleans_to_brackets", edited)
    monkeypatch.setattr(orders, "build_TBool_perm", on_zero_vectors)
    result = claims.run_claim("cor4.16", n)
    assert result["product_of_chains"] is False
    assert json.dumps(result) == json.dumps(PERMUTATION_CLAIMS["cor4.16"](n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_strong_bruhat_on_permuted_labels_fails_thm44(monkeypatch, n):
    """The same relation listed in another label order is not taken for the
    strong Bruhat order: thm4.4 compares rows on one label order, and fails
    closed when the builders disagree on it."""
    build = orders.build_strong_bruhat

    def reversed_labels(n):
        p = build(n)
        return Poset(p.labels[::-1], p.leq_matrix()[::-1, ::-1])

    monkeypatch.setattr(orders, "build_strong_bruhat", reversed_labels)
    assert relation_pairs(reversed_labels(n)) == relation_pairs(build(n))
    assert claims.run_claim("thm4.4", n)["ok"] is False


def test_removed_strong_cover_fails_thm44(monkeypatch):
    swap_covers = orders._value_swap_covers

    def one_cover_less(n, adjacent_only):
        labels, pairs = swap_covers(n, adjacent_only)
        return labels, pairs if adjacent_only else pairs[1:]

    monkeypatch.setattr(orders, "_value_swap_covers", one_cover_less)
    assert [claims.run_claim("thm4.4", n)["ok"] for n in (3, 4, 5)] == [False] * 3


def test_flipped_boolean_entry_fails_statistics(monkeypatch):
    to_booleans = bijections.permutations_to_booleans

    def flipped(n, a):
        out = to_booleans(n, a).copy()
        out[len(out) // 2, 0] ^= 1
        return out

    monkeypatch.setattr(bijections, "permutations_to_booleans", flipped)
    assert [claims.check_statistics(n)["ok"] for n in (2, 3, 4, 5)] == [False] * 4


@pytest.mark.parametrize(
    "name", ["domains_to_booleans", "nests_to_booleans", "magogs_to_booleans", "monotones_to_asms"]
)
def test_round_trip_map_off_by_one_fails_roundtrips(monkeypatch, name):
    back = getattr(bijections, name)
    monkeypatch.setattr(bijections, name, lambda n, a: np.roll(back(n, a), 1, axis=0))
    assert [claims.check_roundtrips(n)["ok"] for n in (2, 3, 4)] == [False] * 3
