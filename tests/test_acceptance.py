"""Acceptance suite: the nine exit criteria, each exact (integer and set
equalities, no tolerances), each printing one PASS line.

Expected values are frozen from worked examples or from the independent
oracles in the sibling test modules (definitional quadruple sums, power-set
ideal scans, all-pairs path intersection, brute-force symmetry closures).
"""

import time
from math import factorial

import numpy as np
import pytest

import golden_data as gold
import reference_maps as ref
import reference_stats as ref_stats
from gogmagog import bijections as bij
from gogmagog import claims
from gogmagog.cli import main
from gogmagog.enumeration import FamilyId, _elements, count, entries, generate
from gogmagog.statistics import (
    boolean_stat_triple,
    distribution,
    inversion_number,
    is_permutation_boolean,
    object_statistics,
    perm_inversions,
)
from gogmagog.triangles import (
    BooleanTriangle,
    MagogTriangle,
    Permutation,
    build_batch,
    validate_boolean,
    validate_monotone,
)

ASM_SEQUENCE = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436}


def test_criterion_1_family_counts():
    """Seven objects of order three in every family; the matrix and
    plane-partition enumerations agree through order six.  Target: under
    60 s from a cold cache."""
    _elements.cache_clear()
    start = time.monotonic()
    for family in (
        FamilyId.ASM,
        FamilyId.MONOTONE,
        FamilyId.MAGOG,
        FamilyId.BOOLEAN,
        FamilyId.NILP,
        FamilyId.TSSCPP,
    ):
        assert count(family, 3) == 7
    for n in range(1, 7):
        asm = count(FamilyId.ASM, n)
        boolean = count(FamilyId.BOOLEAN, n)
        assert asm == boolean == ASM_SEQUENCE[n], (n, asm, boolean)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 PASS: counts agree, 1,2,7,42,429,7436 through order 6 ({elapsed:.1f}s < 60s)")


def test_criterion_2_factorial_counts():
    _elements.cache_clear()
    start = time.monotonic()
    for n in range(1, 9):
        assert count(FamilyId.PERMUTATION_BOOLEAN, n) == factorial(n)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 PASS: n! permutation boolean triangles for n = 1..8 ({elapsed:.1f}s < 10s)")


def test_criterion_3_statistic_preservation():
    start = time.monotonic()
    total = 0
    for n in range(1, 8):
        perms = entries(FamilyId.PERMUTATION, n)
        booleans = bij.permutations_to_booleans(n, perms)
        assert np.array_equal(bij.booleans_to_permutations(n, booleans), perms)
        for p, b in zip(generate(FamilyId.PERMUTATION, n), build_batch(BooleanTriangle, n, booleans), strict=True):
            total += 1
            zeros, last_row_zeros, lowest = boolean_stat_triple(b)
            assert zeros == perm_inversions(p)
            assert last_row_zeros == n - p.sigma[-1]
            ell = p.sigma.index(n) + 1
            assert lowest == (None if ell == 1 else ell - 1)
    elapsed = time.monotonic() - start
    assert total == 5913 and elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS: statistics preserved for all 5913 permutations, n = 1..7 ({elapsed:.1f}s < 30s)")


def test_criterion_4_golden_example():
    sigma = Permutation.from_one_line("463512")
    matrix = bij.permutation_matrix(sigma)
    assert matrix.rows == gold.GOLDEN["matrix"]
    assert inversion_number(matrix) == 11
    assert bij.asm_to_monotone(matrix) == validate_monotone(gold.GOLDEN["monotone"])
    b = bij.permutation_to_boolean(sigma)
    assert b == validate_boolean(gold.GOLDEN["boolean"])
    assert boolean_stat_triple(b) == (11, 4, 1)
    print("ACCEPTANCE 4 PASS: golden example 463512 reproduced exactly")


def test_criterion_5_negative_ones():
    for n in range(1, 6):
        for a in generate(FamilyId.ASM, n):
            strict = object_statistics(ref.asm_to_monotone(a))["strict_diagonal_entries"]
            assert object_statistics(a)["negative_ones"] == strict
    print("ACCEPTANCE 5 PASS: -1 count equals strict-diagonal-entry count, n = 1..5")


@pytest.mark.parametrize("n", range(1, 7))
def test_criterion_6_permutation_characterizations(n):
    """Weakly decreasing boolean rows, the forbidden array configuration, and
    the forbidden magog pattern select the same plane partitions."""
    by_boolean = set()
    by_array = set()
    by_magog = set()
    tsscpps = entries(FamilyId.TSSCPP, n)
    booleans = bij.domains_to_booleans(n, bij.tsscpps_to_domains(n, tsscpps))
    magogs = build_batch(MagogTriangle, n, bij.booleans_to_magogs(n, booleans))
    for p, b, m in zip(generate(FamilyId.TSSCPP, n), build_batch(BooleanTriangle, n, booleans), magogs, strict=True):
        if is_permutation_boolean(b):
            by_boolean.add(p)
        if ref_stats.is_permutation_tsscpp(p):
            by_array.add(p)
        if ref_stats.is_permutation_magog(m):
            by_magog.add(p)
    assert by_boolean == by_array == by_magog
    assert len(by_boolean) == factorial(n)
    if n == 6:
        print("ACCEPTANCE 6 PASS: three permutation characterizations agree, n = 1..6")


CLAIM_RANGES = {
    "thm4.2": (2, 4),
    "thm4.6": (2, 4),
    "thm4.4": (2, 5),
    "thm4.9": (2, 5),
    "thm4.12": (2, 5),
    "cor4.16": (2, 5),
    "cor4.17": (2, 5),
    "lemma4.8": (2, 5),
    "prop-nonlattice": (2, 4),
}


_claim_seconds = {}


@pytest.mark.parametrize("claim", sorted(CLAIM_RANGES))
def test_criterion_7_poset_claims(claim):
    start = time.monotonic()
    low, high = CLAIM_RANGES[claim]
    for n in range(low, high + 1):
        result = claims.run_claim(claim, n)
        assert result["ok"], result
        if claim == "prop-nonlattice" and n == 4:
            assert result["witnesses"], "no-meet/no-join witness expected at order 4"
    _claim_seconds[claim] = time.monotonic() - start
    cumulative = sum(_claim_seconds.values())
    assert cumulative < 300.0
    print(f"ACCEPTANCE 7 PASS: {claim} verified for n = {low}..{high} (cumulative {cumulative:.1f}s < 300s)")


def test_criterion_8_zero_then_one_report():
    for n in range(1, 5):
        assert distribution(FamilyId.BOOLEAN, n, "zero_then_one") == distribution(
            FamilyId.ASM, n, "negative_ones"
        )
    lhs = distribution(FamilyId.BOOLEAN, 5, "zero_then_one")
    rhs = distribution(FamilyId.ASM, 5, "negative_ones")
    verdict = "equal" if lhs == rhs else "different"
    print(f"ACCEPTANCE 8 PASS: distributions equal for n <= 4; at n = 5 they are {verdict}:")
    print(f"  zero-then-one over boolean triangles: {lhs}")
    print(f"  negative ones over matrices:          {rhs}")


def test_criterion_9_round_trips():
    for n in range(1, 7):
        booleans = entries(FamilyId.BOOLEAN, n)
        domains = bij.booleans_to_domains(n, booleans)
        assert np.array_equal(bij.domains_to_booleans(n, domains), booleans)
        nests = bij.booleans_to_nests(n, booleans)
        assert np.array_equal(bij.nests_to_booleans(n, nests), booleans)
        assert np.array_equal(bij.booleans_to_domains(n, bij.nests_to_booleans(n, nests)), domains)
        magogs = bij.domains_to_magogs(n, domains)
        assert np.array_equal(bij.magogs_to_domains(n, magogs), domains)
        assert np.array_equal(bij.magogs_to_booleans(n, magogs), booleans)
        tsscpps = entries(FamilyId.TSSCPP, n)
        d = bij.booleans_to_domains(n, bij.domains_to_booleans(n, bij.tsscpps_to_domains(n, tsscpps)))
        heights = bij.booleans_to_tsscpp(n, bij.domains_to_booleans(n, d))
        assert np.array_equal(heights.reshape(len(tsscpps), -1), tsscpps)
        asms = entries(FamilyId.ASM, n)
        assert np.array_equal(bij.monotones_to_asms(n, bij.asms_to_monotones(n, asms)), asms)
    for n in range(1, 8):
        perms = entries(FamilyId.PERMUTATION, n)
        booleans = bij.permutations_to_booleans(n, perms)
        assert np.array_equal(bij.booleans_to_permutations(n, booleans), perms)
        assert np.array_equal(bij.asms_to_permutations(n, bij.permutations_to_asms(n, perms)), perms)
        assert np.array_equal(bij.monotones_to_permutations(n, bij.permutations_to_monotones(n, perms)), perms)
        assert np.array_equal(bij.brackets_to_booleans(n, bij.booleans_to_brackets(n, booleans)), booleans)
    print("ACCEPTANCE 9 PASS: all bijection pairs round-trip (n <= 6 TSSCPP side, n <= 7 permutations)")


def test_verify_all_cli_gate(capsys):
    """The CLI suite runner agrees with the library-level checks."""
    assert main(["verify-all", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    print("ACCEPTANCE CLI PASS: verify-all --n 4 exits 0")
