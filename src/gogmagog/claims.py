"""Machine checks: one registry for ``verify-all`` and ``poset-check``.

``verify-all`` runs the ``CHECKS`` (counts, n!, statistics, round trips) for
k = 1..n, then each of the nine ``CLAIMS`` for k = 2..n; a check that hits a
cap gives a row with the reason under ``cap``.  Each check returns a dict
with at least ``claim``, ``n`` and ``ok``; failures carry a witness.

A claim with a known map compares packed relation rows on one label tuple
and builds no dense view.  The five permutation orders list the
permutations in one order, so ``thm4.4`` is one equality of posets; the
zero counts of the boolean-triangle rows are checked to be the points of
[2]x...x[n], each once, and their componentwise order is compared with the
boolean permutation order (``cor4.16``, whose weak and strong containments
are the rows of one order less those of the other).  ``thm4.9``,
``thm4.12`` and ``cor4.17`` order only the C_n pattern avoiders, sorted by
their bracket vectors x_i = i + (row sum), which must be the labels of the
Tamari or Catalan order.
The other four check certificates on the entry arrays of
``enumeration.entries`` and build no relation matrix on the triangles:
``thm4.2`` and ``thm4.6`` the chain map onto the ideals (each non-bottom
entry owns a chain of P_n or Q_n, as in Striker's tetrahedral poset, Adv.
Appl. Math. 46, 2011), ``lemma4.8`` the unit moves that map makes the
covers, and ``prop-nonlattice`` beyond n = 3 one pair without a meet.
The statistics and round-trip checks and the permutation orders read entry
arrays through the batched maps of ``bijections``.
"""

from collections import Counter
from math import factorial, prod

import numpy as np

from . import bijections, enumeration, orders, statistics
from .enumeration import CHUNK, CapExceeded, FamilyId
from .poset import Poset, SizeCap
from .triangles import _corner_cells, _one_line_text, _triangle_cells, format_batch

__all__ = ["CHECKS", "CLAIMS", "run_claim", "verify_all"]


def _result(claim, n, ok, **extra):
    out = {"claim": claim, "n": n, "ok": bool(ok)}
    out.update(extra)
    return out


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
    """A permutation matrix's inversions are the zeros of its boolean
    triangle, the one of its last row in column k gives n - k last-row
    zeros, and the one of its last column in row l puts the lowest one of
    the last diagonal in row l - 1 (0: none)."""
    perms = enumeration.entries(FamilyId.PERMUTATION, n)
    booleans = bijections.permutations_to_booleans(n, perms)
    matrices = bijections.permutations_to_asms(n, perms)
    boolean, matrix = statistics.KINDS["boolean_triangle"], statistics.KINDS["asm"]
    lowest = boolean["lowest_one_last_diagonal"](n, booleans)
    ok = (
        np.array_equal(boolean["zeros"](n, booleans), matrix["inversions"](n, matrices))
        and np.array_equal(boolean["last_row_zeros"](n, booleans), n - matrix["last_row_one_col"](n, matrices))
        and np.array_equal(lowest, matrix["last_col_one_row"](n, matrices) - 1)
    )
    return _result("statistics", n, ok)


def _tsscpp_corners(n, booleans, domains):
    """Whether the TSSCPP of each boolean triangle, its closure checked by
    ``triangles.expand_domains``, has the triangle's domain as its corner;
    ``CHUNK`` triangles at a time, so no heights array holds them all."""
    blocks = (slice(start, start + CHUNK) for start in range(0, len(booleans), CHUNK))
    return all(
        np.array_equal(bijections.booleans_to_tsscpp(n, booleans[block])[:, _corner_cells(n)], domains[block])
        for block in blocks
    )


def check_roundtrips(n):
    """The maps out of boolean triangles and ASMs invert, on entry arrays:
    boolean -> domain -> boolean, boolean -> nest -> boolean, boolean ->
    domain -> magog -> boolean (the composition ``booleans_to_magogs`` is)
    and ASM -> monotone -> ASM; and each domain is the corner of its
    boolean triangle's TSSCPP."""
    booleans = enumeration.entries(FamilyId.BOOLEAN, n)
    asms = enumeration.entries(FamilyId.ASM, n)
    domains = bijections.booleans_to_domains(n, booleans)
    nests = bijections.booleans_to_nests(n, booleans)
    magogs = bijections.domains_to_magogs(n, domains)
    monotones = bijections.asms_to_monotones(n, asms)
    ok = (
        np.array_equal(bijections.domains_to_booleans(n, domains), booleans)
        and np.array_equal(bijections.nests_to_booleans(n, nests), booleans)
        and np.array_equal(bijections.magogs_to_booleans(n, magogs), booleans)
        and np.array_equal(bijections.monotones_to_asms(n, monotones), asms)
        and _tsscpp_corners(n, booleans, domains)
    )
    return _result("roundtrips", n, ok)


def _chains(n, magog):
    """The chain of P_n (monotone) or Q_n (magog) that each non-bottom entry
    of a triangle of order n owns, row-major, bottom end first: entry j of
    the row of length r owns {(j, t, n-1-r-t)} or {(i, j, r-1-j)}."""
    return [
        [(i, j, r - 1 - j) if magog else (j, i, n - 1 - r - i) for i in range(n - r - 1, -1, -1)]
        for r in range(1, n)
        for j in range(r)
    ]


def _label(family, n, entries):
    return format_batch(enumeration.FAMILY_CLASSES[family], n, entries[None]).rstrip("\n")


def _chain_map(family, coordinates, n):
    """The triangles of order n (``family``: monotone or magog) as entries, the
    counts entry - j - 1 of their chain map into the ideals of
    ``coordinates`` (P_n or Q_n), the mixed-radix keys of the counts with
    their strides and sorting order, and a witness that the map is no
    isomorphism onto the ideal lattice, or None.

    Validation fixes the bottom row and puts each count in 0..chain length.
    When the chains partition the coordinates, x <= y componentwise exactly
    when ideal(x) lies in ideal(y).  The map is then an isomorphism when
    every image is down-closed, no two keys (hence images) agree, and the
    images are as many as the ideals."""
    chains = _chains(n, family is FamilyId.MAGOG)
    radix = [len(chain) + 1 for chain in chains]
    if prod(radix) >= 1 << 63:
        raise SizeCap(f"chain counts of order {n} do not fit a 64-bit key")
    a = enumeration.entries(family, n)
    counts = a[:, : len(chains)] - np.array([j + 1 for r in range(1, n) for j in range(r)], a.dtype)
    strides = np.array([prod(radix[c + 1 :]) for c in range(len(radix))], dtype=np.int64)
    keys = np.zeros(len(a), np.int64)
    for column, stride in zip(counts.T, strides):  # not counts @ strides: an int64 copy of counts
        keys += np.multiply(column, stride, dtype=np.int64)
    order = np.argsort(keys, kind="stable")

    def witness():
        owners = Counter(str(e) for chain in chains for e in chain)
        owners.subtract(coordinates.labels)
        for label, surplus in owners.items():
            if surplus:
                return ("chains do not partition", label)
        owner = {str(e): (c, k) for c, chain in enumerate(chains) for k, e in enumerate(chain)}
        for i, j in coordinates.cover_pairs():
            low, high = coordinates.labels[i], coordinates.labels[j]
            (cl, kl), (ch, kh) = owner[low], owner[high]
            missing = (counts[:, ch] > kh) & (counts[:, cl] <= kl)  # holds high, not low
            if missing.any():
                return ("not down-closed", _label(family, n, a[missing.argmax()]), high, low)
        same = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
        if len(same):
            return ("same ideal", *(_label(family, n, a[order[same[0] + k]]) for k in (0, 1)))
        if len(a) != coordinates.count_ideals():
            return ("ideal count", len(a), coordinates.count_ideals())
        return None

    return a, counts, keys, strides, order, witness()


def _ideal_lattice_check(claim, family, coordinates, n):
    """The componentwise order is the ideal lattice of the coordinate poset
    of join irreducibles, through the chain map."""
    a, *_, witness = _chain_map(family, coordinates, n)
    if witness is None:
        return _result(claim, n, True, size=len(a), ideal_count=len(a))
    ideal_count = coordinates.count_ideals()
    return _result(claim, n, False, size=len(a), ideal_count=ideal_count, witness=witness)


def check_ideal_lattice_asm(n):
    return _ideal_lattice_check("thm4.2", FamilyId.MONOTONE, orders.build_Pn(n), n)


def check_ideal_lattice_magog(n):
    return _ideal_lattice_check("thm4.6", FamilyId.MAGOG, orders.build_Qn(n), n)


def check_strong_bruhat(n):
    """The permutation subposet of the monotone-triangle order is the strong
    Bruhat order: both list the same one-line labels in the same order, and
    their packed relations are equal."""
    a = orders.build_An_perm(n)
    return _result("thm4.4", n, a == orders.build_strong_bruhat(n), size=a.size)


def _catalan_subposet_check(claim, n, pattern, vectors, build_target):
    """The ``pattern`` avoiders of order n, ordered componentwise on
    ``vectors(n, booleans)`` of their boolean triangles, are the order
    ``build_target(n)`` through the bracket vector x_i = i + row sum: labelled
    by their bracket vectors in sorted order, they are the target, its labels
    and its packed rows.  Only the C_n avoiders are converted and ordered."""
    target = build_target(n)
    perms = enumeration.entries(FamilyId.PERMUTATION, n)
    booleans = bijections.permutations_to_booleans(n, perms[statistics.avoiding(perms, pattern)])
    brackets = bijections.booleans_to_brackets(n, booleans)
    order = np.lexsort(brackets.T[::-1])
    labels = map(_one_line_text, brackets[order].tolist())
    ok = Poset.componentwise(labels, vectors(n, booleans[order])) == target
    return _result(claim, n, ok, size=target.size)


def check_tamari_subposet(n):
    """132-avoiders inside the magog permutation order form the rotation
    lattice on bracket vectors, via x_i = i + row sum."""
    return _catalan_subposet_check("thm4.9", n, (1, 3, 2), bijections.booleans_to_magogs, orders.build_tamari)


def check_catalan_subposet(n):
    """213-avoiders inside the magog permutation order form the distributive
    lattice of weakly increasing sequences."""
    return _catalan_subposet_check(
        "thm4.12", n, (2, 1, 3), bijections.booleans_to_magogs, orders.build_catalan_distributive
    )


def check_bruhat_sandwich(n):
    """The boolean permutation order is the product of chains [2]x...x[n],
    whose vector of a permutation is the zero count of each row of its boolean
    triangle, and sits between the weak and strong orders.  The zero vectors
    lie in the box 0 <= c_i <= i and their mixed-radix keys are 0..n! - 1, so
    they are the box's points, each once; their componentwise order, on the
    one-line labels, is then compared with the boolean order."""
    boolperm = orders.build_TBool_perm(n)
    labels, booleans = orders._permutation_booleans(n)
    # Row r has r entries, and its sum is x_{n-r} - (n - r).
    zeros = n - bijections.booleans_to_brackets(n, booleans)[:, : n - 1][:, ::-1]
    keys = zeros @ np.array([factorial(n) // factorial(i + 1) for i in range(1, n)], dtype=np.int64)
    box = ((zeros >= 0) & (zeros <= np.arange(1, n))).all() and np.array_equal(np.sort(keys), np.arange(factorial(n)))
    chains = bool(box) and Poset.componentwise(labels, zeros) == boolperm
    missing_weak = orders.build_weak_order(n).relations_not_in(boolperm)
    missing_strong = boolperm.relations_not_in(orders.build_strong_bruhat(n))
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
    """The boolean permutation order (reverse componentwise) contains the same
    two Catalan subposets on 132- and 213-avoiders."""
    negated = lambda n, booleans: -booleans
    tam = _catalan_subposet_check("cor4.17", n, (1, 3, 2), negated, orders.build_tamari)
    cat = _catalan_subposet_check("cor4.17", n, (2, 1, 3), negated, orders.build_catalan_distributive)
    return _result("cor4.17", n, tam["ok"] and cat["ok"], tamari=tam["ok"], catalan=cat["ok"])


def _boolean_moves(n, lower, upper):
    """For each row pair of boolean entry arrays of order n: whether
    ``upper`` turns a one of ``lower`` into a zero and, off the bottom row,
    the zero southeast of it into a one, and changes nothing else."""
    r, _ = _triangle_cells(n - 1)
    moves = -np.eye(len(r), dtype=np.int8)
    inner = np.flatnonzero(r < n - 2)
    moves[inner, inner + r[inner] + 2] = 1
    diff = upper - lower
    return (diff == moves[(diff != 0).argmax(axis=1)]).all(axis=1)


def _unit_moves(n, counts, keys, strides, order):
    """Index pairs (x, x + e_c) inside a family under the chain map, chain
    by chain: each count with room left moves up by one, and the moved key
    is looked up among the sorted keys."""
    ordered = keys[order]
    room = [n - r for r in range(1, n) for _ in range(r)]
    for c, stride in enumerate(strides):
        x = np.flatnonzero(counts[:, c] < room[c])
        moved = keys[x] + stride
        at = np.minimum(np.searchsorted(ordered, moved), len(keys) - 1)
        hit = ordered[at] == moved
        yield x[hit], order[at[hit]]


def check_cover_moves(n):
    """Every cover of the magog order, transported to boolean triangles,
    either swaps a one with the zero southeast of it or kills a bottom-row
    one.  Given the ``thm4.6`` certificate the covers are the unit moves."""
    a, counts, keys, strides, order, witness = _chain_map(FamilyId.MAGOG, orders.build_Qn(n), n)
    if witness is not None:
        return _result("lemma4.8", n, False, cover_count=None, witness=witness)
    booleans = bijections.magogs_to_booleans(n, a)
    cover_count, bad = 0, []
    for lower, upper in _unit_moves(n, counts, keys, strides, order):
        cover_count += len(lower)
        good = _boolean_moves(n, booleans[lower], booleans[upper])
        bad += zip(lower[~good].tolist(), upper[~good].tolist())
    witness = tuple(_label(FamilyId.MAGOG, n, a[i]) for i in min(bad)) if bad else None
    return _result("lemma4.8", n, not bad, cover_count=cover_count, witness=witness)


def _meetless(vectors, x, y):
    """Whether x and y are rows of ``vectors`` with no meet in the
    componentwise order on the rows: their lower bounds are the rows below
    min(x, y), and the greatest, if any, is the componentwise maximum."""

    def member(rows, v):
        return bool((rows == v).all(axis=1).any())

    lower = vectors[(vectors <= np.minimum(x, y)).all(axis=1)]
    has_meet = len(lower) > 0 and member(lower, lower.max(axis=0))
    return member(vectors, x) and member(vectors, y) and not has_meet


def _nonlattice_pairs(n):
    """n >= 4: name -> (the order's componentwise vectors, and a pair without
    a meet as vectors and as labels).  Magog permutation order: 1..(n-4)
    followed by 1432 and 2314 shifted by n - 4.  Boolean order (reverse
    componentwise): one 1 at the end of the last row, or of the row above."""
    booleans = enumeration.entries(FamilyId.BOOLEAN, n)  # its cap is the lower one
    heads = ((1, 4, 3, 2), (2, 3, 1, 4))
    perms = np.array([(*range(1, n - 3), *(v + n - 4 for v in head)) for head in heads])
    ones = np.zeros((2, n * (n - 1) // 2), dtype=np.int8)
    ones[0, -1] = ones[1, (n - 2) * (n - 1) // 2 - 1] = 1
    return {
        "magog_permutation_order": (
            bijections.booleans_to_magogs(n, enumeration.entries(FamilyId.PERMUTATION_BOOLEAN, n)),
            bijections.booleans_to_magogs(n, bijections.permutations_to_booleans(n, perms)),
            orders._one_line(perms),
        ),
        "boolean_order": (-booleans, -ones, [_label(FamilyId.BOOLEAN, n, v) for v in ones]),
    }


def check_lattice_thresholds(n):
    """The magog permutation order and the boolean order are lattices exactly
    up to order three: the lattice report decides up to three, one explicit
    pair without a meet beyond (``is_lattice`` is None if it has one)."""
    expected = n <= 3
    if expected:
        reports = {
            "magog_permutation_order": orders.build_Tn_perm(n).lattice_report(),
            "boolean_order": orders.build_TBool(n).lattice_report(),
        }
        results = {name: report.is_lattice for name, report in reports.items()}
        witnesses = {name: report.witness for name, report in reports.items()}
    else:
        witnesses = {
            name: ("meet", *labels) if _meetless(vectors, *pair) else None
            for name, (vectors, pair, labels) in _nonlattice_pairs(n).items()
        }
        results = {name: False if witness else None for name, witness in witnesses.items()}
    ok = all(value == expected for value in results.values())
    return _result(
        "prop-nonlattice",
        n,
        ok,
        expected_lattice=expected,
        is_lattice=results,
        witnesses={k: v for k, v in witnesses.items() if v is not None},
    )


CHECKS = {
    "counts": check_counts,
    "factorial": check_factorial,
    "statistics": check_statistics,
    "roundtrips": check_roundtrips,
}

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


def _capped(name, check, n):
    """``check(n)``, or a failed row with the reason under ``cap`` when the
    check hits a size or order cap."""
    try:
        return check(n)
    except (CapExceeded, SizeCap) as exc:
        return _result(name, n, False, cap=str(exc))


def verify_all(n):
    """Every result of the registry up to order n: the ``CHECKS`` for
    k = 1..n, then each claim for k = 2..n.  An order above every family's
    cap, whose rows past that cap could only be capped, is refused before
    any check runs."""
    enumeration._check_order(n)
    cap = enumeration._cap()
    cap = max(enumeration.DEFAULT_CAPS.values()) if cap is None else cap
    if n > cap:
        raise CapExceeded(f"order {n} exceeds the cap {cap} of every family (raise it with {enumeration.ENV_CAP})")
    rows = [_capped(name, check, k) for k in range(1, n + 1) for name, check in CHECKS.items()]
    for name, check in CLAIMS.items():
        rows += [_capped(name, check, k) for k in range(2, n + 1)]
    return rows
