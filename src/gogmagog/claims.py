"""Machine checks: one registry for ``verify-all`` and ``poset-check``.

``verify-all`` runs the ``CHECKS`` (counts, n!, statistics, round trips) for
k = 1..n, then each of the nine ``CLAIMS`` for k = 2..n.  Each check returns
a dict with at least ``claim``, ``n`` and ``ok``; failures carry a witness.

A claim with a known map is decided by one comparison of relation matrices
through it: the identity on one-line labels (``thm4.4``), the bracket vector
x_i = i + (row sum) (``thm4.9``, ``thm4.12``, ``cor4.17``), and the zero
count of each boolean-triangle row, onto [2]x...x[n] (``cor4.16``, whose
weak and strong containments compare the matrices on shared labels).
``thm4.2`` and ``thm4.6`` have no map yet and search for an isomorphism.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from . import bijections, enumeration, orders
from .enumeration import CapExceeded, FamilyId
from .statistics import avoids, boolean_stat_triple, perm_inversions
from .triangles import Permutation

__all__ = ["CHECKS", "CLAIMS", "run_claim", "verify_all"]


def _result(claim, n, ok, **extra):
    out = {"claim": claim, "n": n, "ok": bool(ok)}
    out.update(extra)
    return out


def _pullback(target, labels):
    """``target``'s relation matrix with row and column i at ``labels[i]``;
    no relation at all unless ``labels`` holds each label of ``target`` once."""
    if len(labels) != target.size or set(labels) != set(target.labels):
        return np.zeros((len(labels), len(labels)), dtype=bool)
    index = [target.index(label) for label in labels]
    return target.leq_matrix()[np.ix_(index, index)]


def _missing_relation(lower, upper):
    """The first relation x <= y of ``lower``, row by row, that ``upper``
    lacks, or None."""
    gap = lower.leq_matrix() & ~_pullback(upper, lower.labels)
    if not gap.any():
        return None
    i, j = np.unravel_index(gap.argmax(), gap.shape)
    return lower.labels[i], lower.labels[j]


def check_counts(n):
    """ASMs and boolean triangles are equinumerous."""
    asm = enumeration.count(FamilyId.ASM, n)
    boolean = enumeration.count(FamilyId.BOOLEAN, n)
    return _result("counts", n, asm == boolean, asm=asm, boolean=boolean)


def check_factorial(n):
    """There are n! permutation boolean triangles."""
    total = enumeration.count(FamilyId.PERMUTATION_BOOLEAN, n)
    return _result("factorial", n, total == factorial(n), count=total)


def check_statistics(n):
    """A permutation's boolean triangle has its inversions as zeros, n - sigma(n)
    last-row zeros, and the lowest one of its last diagonal at n's position."""
    for p in enumeration.generate(FamilyId.PERMUTATION, n):
        position = p.sigma.index(p.n)
        expected = (perm_inversions(p), n - p.sigma[-1], position or None)
        if boolean_stat_triple(bijections.permutation_to_boolean(p)) != expected:
            return _result("statistics", n, False)
    return _result("statistics", n, True)


def check_roundtrips(n):
    """The maps out of boolean triangles and ASMs invert."""
    ok = True
    for b in enumeration.generate(FamilyId.BOOLEAN, n):
        d = bijections.fundamental_from_boolean(b)
        if bijections.boolean_from_fundamental(d) != b:
            ok = False
        if bijections.nilp_to_boolean(bijections.boolean_to_nilp(b)) != b:
            ok = False
        if bijections.magog_to_boolean(bijections.boolean_to_magog(b)) != b:
            ok = False
    for a in enumeration.generate(FamilyId.ASM, n):
        if bijections.monotone_to_asm(bijections.asm_to_monotone(a)) != a:
            ok = False
    return _result("roundtrips", n, ok)


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
    Bruhat order: both carry the same one-line labels, and the identity on
    them maps one relation matrix onto the other."""
    a = orders.build_An_perm(n)
    ok = np.array_equal(_pullback(orders.build_strong_bruhat(n), a.labels), a.leq_matrix())
    return _result("thm4.4", n, ok, size=a.size)


def _catalan_subposet_check(base_poset, n, claim, pattern, build_target):
    """The ``pattern`` avoiders of ``base_poset``, relabelled by
    :func:`orders.bracket_label_map`, are exactly the order ``build_target(n)``."""
    avoiders = base_poset.induced(
        lambda s: avoids(Permutation.from_one_line(s), pattern)
    )
    target = build_target(n)
    label_map = orders.bracket_label_map(n)
    mapped = _pullback(target, [label_map[s] for s in avoiders.labels])
    ok = np.array_equal(mapped, avoiders.leq_matrix())
    return _result(claim, n, ok, size=target.size)


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
    """The boolean permutation order is the product of chains [2]x...x[n],
    whose label of a permutation is the zero count of each row of its boolean
    triangle, and sits between the weak and strong orders."""
    boolperm = orders.build_TBool_perm(n)
    row_zeros = {
        p.one_line(): str(tuple(row.count(0) for row in bijections.permutation_to_boolean(p).rows))
        for p in enumeration.generate(FamilyId.PERMUTATION, n)
    }
    mapped = _pullback(orders.build_product_of_chains(n), [row_zeros[s] for s in boolperm.labels])
    chains = np.array_equal(mapped, boolperm.leq_matrix())
    missing_weak = _missing_relation(orders.build_weak_order(n), boolperm)
    missing_strong = _missing_relation(boolperm, orders.build_strong_bruhat(n))
    ok = missing_weak is None and missing_strong is None and chains
    return _result(
        "cor4.16",
        n,
        ok,
        weak_relation_missing=missing_weak,
        strong_relation_missing=missing_strong,
        product_of_chains=chains,
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


CHECKS = (check_counts, check_factorial, check_statistics, check_roundtrips)

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


def run_claim(name, n):
    try:
        check = CLAIMS[name]
    except KeyError:
        raise KeyError(f"unknown claim {name!r}; choose from {', '.join(CLAIMS)}")
    return check(n)


def verify_all(n):
    """Every result of the registry up to order n: the ``CHECKS`` for
    k = 1..n, then each claim for k = 2..n."""
    if n < 1:
        raise CapExceeded(f"order must be >= 1, got {n}")
    rows = [check(k) for k in range(1, n + 1) for check in CHECKS]
    return rows + [run_claim(name, k) for name in CLAIMS for k in range(2, n + 1)]
