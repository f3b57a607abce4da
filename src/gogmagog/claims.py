"""Machine checks for the structural results on the partial orders.

Each check returns a dict with at least ``claim``, ``n`` and ``ok``; failures
carry a witness.  The CLI exposes them under fixed claim names; the
acceptance test suite drives the same functions.
"""

from __future__ import annotations

from . import bijections, enumeration, orders
from .statistics import avoids
from .triangles import Permutation

__all__ = ["CLAIMS", "run_claim", "claim_names"]


def _result(claim, n, ok, **extra):
    out = {"claim": claim, "n": n, "ok": bool(ok)}
    out.update(extra)
    return out


def check_ideal_lattice_asm(n):
    """The monotone-triangle order is the ideal lattice of its coordinate
    poset of join irreducibles."""
    a = orders.build_An(n)
    ideals = orders.build_Pn(n).order_ideals()
    iso = a.isomorphism_to(ideals)
    return _result("thm4.2", n, iso is not None, size=a.size, ideal_count=ideals.size)


def check_ideal_lattice_magog(n):
    t = orders.build_Tn(n)
    ideals = orders.build_Qn(n).order_ideals()
    iso = t.isomorphism_to(ideals)
    return _result("thm4.6", n, iso is not None, size=t.size, ideal_count=ideals.size)


def check_strong_bruhat(n):
    """The permutation subposet of the monotone-triangle order is the strong
    Bruhat order; the shared one-line labels let us also demand relation
    equality, which is stronger than abstract isomorphism."""
    a = orders.build_An_perm(n)
    strong = orders.build_strong_bruhat(n)
    same_relations = a.relation_pairs() == strong.relation_pairs()
    iso = a.isomorphism_to(strong)
    return _result("thm4.4", n, same_relations and iso is not None, size=a.size)


def _catalan_subposet_check(base_poset, n, claim, pattern, build_target):
    """The ``pattern`` avoiders of ``base_poset``, relabelled by
    :func:`orders.bracket_label_map`, are exactly the order ``build_target(n)``."""
    avoiders = base_poset.induced(
        lambda s: avoids(Permutation.from_one_line(s), pattern)
    )
    target = build_target(n)
    label_map = orders.bracket_label_map(n)
    mapped = {label_map[s] for s in avoiders.labels}
    iso = avoiders.isomorphism_to(target)
    canonical = mapped == set(target.labels) and all(
        avoiders.leq(x, y) == target.leq(label_map[x], label_map[y])
        for x in avoiders.labels
        for y in avoiders.labels
    )
    return _result(claim, n, iso is not None and canonical, size=target.size)


def check_tamari_subposet(n):
    """132-avoiders inside the magog permutation order form the rotation
    lattice on bracket vectors, via x_i = i + row sum."""
    return _catalan_subposet_check(
        orders.build_Tn_perm(n), n, "thm4.9", (1, 3, 2), orders.build_tamari
    )


def check_catalan_subposet(n):
    """213-avoiders inside the magog permutation order form the distributive
    lattice of weakly increasing sequences."""
    return _catalan_subposet_check(
        orders.build_Tn_perm(n), n, "thm4.12", (2, 1, 3), orders.build_catalan_distributive
    )


def check_bruhat_sandwich(n):
    """The boolean permutation order is the product of chains [2]x...x[n] and
    sits between the weak and strong orders."""
    weak = orders.build_weak_order(n)
    boolperm = orders.build_TBool_perm(n)
    strong = orders.build_strong_bruhat(n)
    chains = orders.build_product_of_chains(n)
    missing_weak = weak.relations_not_in(boolperm)
    missing_strong = boolperm.relations_not_in(strong)
    iso = boolperm.isomorphism_to(chains)
    ok = missing_weak is None and missing_strong is None and iso is not None
    return _result(
        "cor4.16",
        n,
        ok,
        weak_relation_missing=missing_weak,
        strong_relation_missing=missing_strong,
        product_of_chains=iso is not None,
    )


def check_tamcat_in_boolean_poset(n):
    """The boolean permutation order contains the same two Catalan
    subposets on 132- and 213-avoiders."""
    base = orders.build_TBool_perm(n)
    tam = _catalan_subposet_check(base, n, "cor4.17", (1, 3, 2), orders.build_tamari)
    cat = _catalan_subposet_check(
        base, n, "cor4.17", (2, 1, 3), orders.build_catalan_distributive
    )
    return _result("cor4.17", n, tam["ok"] and cat["ok"], tamari=tam["ok"], catalan=cat["ok"])


def _boolean_move(b_lower, b_upper):
    """Classify the difference: diagonal swap of a one with the zero below it,
    or a bottom-row one turning into a zero."""
    n = b_lower.n
    diffs = [
        (r, c)
        for r in range(n - 1)
        for c in range(r + 1)
        if b_lower.rows[r][c] != b_upper.rows[r][c]
    ]
    if len(diffs) == 1:
        r, c = diffs[0]
        return r == n - 2 and b_lower.rows[r][c] == 1 and b_upper.rows[r][c] == 0
    if len(diffs) == 2:
        (r1, c1), (r2, c2) = sorted(diffs)
        return (
            r2 == r1 + 1
            and c2 == c1 + 1
            and b_lower.rows[r1][c1] == 1
            and b_lower.rows[r2][c2] == 0
            and b_upper.rows[r1][c1] == 0
            and b_upper.rows[r2][c2] == 1
        )
    return False


def check_cover_moves(n):
    """Every cover of the magog order, transported to boolean triangles,
    either swaps a one with the zero southeast of it or kills a bottom-row
    one."""
    t = orders.build_Tn(n)
    booleans = [
        bijections.magog_to_boolean(m)
        for m in enumeration.generate(enumeration.FamilyId.MAGOG, n)
    ]
    pairs = t.cover_pairs()
    bad = None
    for i, j in pairs:
        if not _boolean_move(booleans[i], booleans[j]):
            bad = (t.labels[i], t.labels[j])
            break
    return _result("lemma4.8", n, bad is None, cover_count=len(pairs), witness=bad)


def check_lattice_thresholds(n):
    """The magog permutation order and the boolean order are lattices exactly
    up to order three; report the witness pair beyond."""
    expected = n <= 3
    results = {}
    witnesses = {}
    for name, poset in (
        ("magog_permutation_order", orders.build_Tn_perm(n)),
        ("boolean_order", orders.build_TBool(n)),
    ):
        report = poset.lattice_report()
        results[name] = report.is_lattice
        witnesses[name] = report.witness
    ok = all(value == expected for value in results.values())
    return _result(
        "prop-nonlattice",
        n,
        ok,
        expected_lattice=expected,
        is_lattice=results,
        witnesses={k: v for k, v in witnesses.items() if v is not None},
    )


CLAIMS = {
    "thm4.2": check_ideal_lattice_asm,
    "thm4.4": check_strong_bruhat,
    "thm4.6": check_ideal_lattice_magog,
    "thm4.9": check_tamari_subposet,
    "thm4.12": check_catalan_subposet,
    "cor4.16": check_bruhat_sandwich,
    "cor4.17": check_tamcat_in_boolean_poset,
    "lemma4.8": check_cover_moves,
    "prop-nonlattice": check_lattice_thresholds,
}


def claim_names():
    return tuple(CLAIMS)


def run_claim(name, n):
    try:
        check = CLAIMS[name]
    except KeyError:
        raise KeyError(f"unknown claim {name!r}; choose from {', '.join(CLAIMS)}")
    return check(n)
