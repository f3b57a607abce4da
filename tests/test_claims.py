"""The check registry, and the claims decided through their maps: each can
fail, and each verdict agrees with the generic isomorphism search."""

import pytest

from gogmagog import claims, orders
from gogmagog.statistics import avoids
from gogmagog.triangles import Permutation


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
