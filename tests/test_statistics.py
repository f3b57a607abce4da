"""Statistics against definitional brute-force oracles and frozen values.

The batched statistics of ``gogmagog.statistics`` are compared row by row
with the scalar scans of ``reference_stats``; the frozen values go through
the one-row path that ``gogmagog stats`` takes."""

import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import golden_data as gold
import reference_maps as ref
import reference_stats as oracle
from gogmagog import bijections as bij
from gogmagog import enumeration, statistics, triangles
from gogmagog.enumeration import CapExceeded, FamilyId, count, entries, generate
from gogmagog.statistics import KINDS, STATISTICS, avoiding, avoids, distribution, object_statistics
from gogmagog.triangles import Asm, BooleanTriangle, MonotoneTriangle, Permutation


def inversion_number_oracle(a):
    """The definitional quadruple sum."""
    n = a.n
    total = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if i > k and j < l:
                        total += a.rows[i][j] * a.rows[k][l]
    return total


def inversion_number(obj):
    return object_statistics(obj)["inversions"]


def boolean_stat_triple(b):
    stats = object_statistics(b)
    return stats["zeros"], stats["last_row_zeros"], stats["lowest_one_last_diagonal"]


def test_inversion_number_frozen_values():
    golden = Asm(6, gold.GOLDEN["matrix"])
    assert inversion_number(golden) == 11
    eye = Asm(2, ((1, 0), (0, 1)))
    assert inversion_number(eye) == 0
    # the single order-3 matrix with a -1; value from the quadruple sum
    minus = Asm(3, gold.ASMS_3[3])
    assert inversion_number_oracle(minus) == 2
    assert inversion_number(minus) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inversion_number_matches_quadruple_sum(n):
    for a in generate(FamilyId.ASM, n):
        assert inversion_number(a) == inversion_number_oracle(a)


def test_perm_inversions():
    assert inversion_number(Permutation.from_one_line("463512")) == 11
    assert inversion_number(Permutation.from_one_line("1234")) == 0
    assert inversion_number(Permutation.from_one_line("4321")) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inversion_number_extends_permutation_inversions(n):
    for p in generate(FamilyId.PERMUTATION, n):
        assert inversion_number(ref.permutation_matrix(p)) == inversion_number(p)


def negative_ones(a):
    return object_statistics(a)["negative_ones"]


def strict_diagonal_entries(m):
    return object_statistics(m)["strict_diagonal_entries"]


def test_negative_ones_matches_strict_diagonal_entries_on_golden_pairs():
    bold_asm = Asm(3, gold.ASMS_3[3])
    bold_mono = MonotoneTriangle(3, gold.MONOTONE_3[3])
    assert negative_ones(bold_asm) == strict_diagonal_entries(bold_mono) == 1
    for rows in gold.MONOTONE_3[:3]:
        assert strict_diagonal_entries(MonotoneTriangle(3, rows)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_negative_ones_equal_strict_diagonal_entries(n):
    for a in generate(FamilyId.ASM, n):
        assert negative_ones(a) == strict_diagonal_entries(ref.asm_to_monotone(a))


def test_boolean_statistics_on_golden_example():
    b = BooleanTriangle(6, gold.GOLDEN["boolean"])
    assert boolean_stat_triple(b) == (11, 4, 1)


def test_boolean_statistics_all_ones():
    for n in (2, 3, 4, 5):
        b = BooleanTriangle(n, [[1] * (r + 1) for r in range(n - 1)])
        assert boolean_stat_triple(b) == (0, 0, n - 1)


def test_lowest_one_none_when_diagonal_empty():
    assert object_statistics(BooleanTriangle(3, [[0], [0, 0]]))["lowest_one_last_diagonal"] is None
    assert object_statistics(BooleanTriangle(1, []))["lowest_one_last_diagonal"] is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_statistic_preservation(n):
    """Inversions <-> zeros; last-row one at column k <-> n-k last-row zeros;
    last-column one at row l <-> lowest one of the last diagonal at row l-1."""
    for p in generate(FamilyId.PERMUTATION, n):
        b = ref.permutation_to_boolean(p)
        matrix = object_statistics(ref.permutation_matrix(p))
        zeros, last_row, lowest = boolean_stat_triple(b)
        assert zeros == matrix["inversions"] == inversion_number(p)
        assert last_row == n - matrix["last_row_one_col"]
        assert lowest == (None if matrix["last_col_one_row"] == 1 else matrix["last_col_one_row"] - 1)


def test_zero_then_one_count():
    def zero_then_one(rows):
        return object_statistics(BooleanTriangle(len(rows) + 1, rows))["zero_then_one"]

    assert zero_then_one([[0], [0, 1]]) == 1
    assert zero_then_one([[1], [1, 1]]) == 0
    assert zero_then_one([[0], [0, 0], [1, 0, 1]]) == 1


def avoids_oracle(p, pattern):
    s = p.sigma
    k = len(pattern)
    rank = {v: i for i, v in enumerate(sorted(pattern))}
    normalized = tuple(rank[v] for v in pattern)
    for idxs in itertools.combinations(range(p.n), k):
        vals = [s[i] for i in idxs]
        r = {v: i for i, v in enumerate(sorted(vals))}
        if tuple(r[v] for v in vals) == normalized:
            return False
    return True


def test_avoids_examples():
    p = Permutation.from_one_line("463512")
    assert not avoids(p, (1, 3, 2))  # e.g. 4, 6, 5
    assert avoids(Permutation.from_one_line("12345"), (2, 1))
    count = sum(1 for q in generate(FamilyId.PERMUTATION, 4) if avoids(q, (1, 3, 2)))
    assert count == 14


@pytest.mark.parametrize("pattern", [(1, 3, 2), (2, 1, 3), (1, 2, 3), (3, 2, 1), (2, 3, 1), (3, 1, 2), (2, 1)])
def test_avoids_matches_oracle(pattern):
    for n in (1, 2, 3, 4, 5):
        for p in generate(FamilyId.PERMUTATION, n):
            assert avoids(p, pattern) == avoids_oracle(p, pattern)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_batched_avoidance_equals_avoids(n):
    perms = entries(FamilyId.PERMUTATION, n)
    objects = list(generate(FamilyId.PERMUTATION, n))
    for k in (1, 2, 3, 4):
        for pattern in itertools.permutations(range(1, k + 1)):
            assert avoiding(perms, pattern).tolist() == [oracle.avoids(p, pattern) for p in objects]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_avoiding_the_empty_pattern_and_longer_patterns_matches_oracle(n):
    """Every permutation contains the empty pattern and avoids any longer
    than itself."""
    perms = entries(FamilyId.PERMUTATION, n)
    objects = list(generate(FamilyId.PERMUTATION, n))
    for pattern in [(), *itertools.permutations(range(1, n + 2)), tuple(range(n + 3, 0, -1))]:
        expected = [avoids_oracle(p, pattern) for p in objects]
        assert avoiding(perms, pattern).tolist() == expected
        assert [avoids(p, pattern) for p in objects] == expected
    assert not avoiding(perms, ()).any()


def test_avoiding_in_blocks_of_one_choice_of_positions(monkeypatch):
    perms = entries(FamilyId.PERMUTATION, 6)
    whole = {pattern: avoiding(perms, pattern) for pattern in itertools.permutations(range(1, 4))}
    monkeypatch.setattr(statistics, "_AVOID_CELLS", 1)
    for pattern, mask in whole.items():
        assert np.array_equal(avoiding(perms, pattern), mask)


def test_stat_bundle_positions():
    bundle = object_statistics(bij.convert(Permutation.from_one_line("463512"), "asm"))
    assert bundle["last_row_one_col"] == 2
    assert bundle["last_col_one_row"] == 2
    assert bundle["negative_ones"] == 0
    # boundary positions exist for matrices with a -1 as well
    bundle = object_statistics(Asm(3, gold.ASMS_3[3]))
    assert (bundle["last_row_one_col"], bundle["last_col_one_row"]) == (2, 2)


def test_distribution_frozen_values():
    assert distribution(FamilyId.PERMUTATION_BOOLEAN, 3, "zeros") == {0: 1, 1: 2, 2: 2, 3: 1}
    assert distribution(FamilyId.ASM, 3, "negative_ones") == {0: 6, 1: 1}
    assert sum(distribution(FamilyId.BOOLEAN, 3, "zeros").values()) == 7


def test_permutation_boolean_zero_distribution_is_mahonian():
    for n in (2, 3, 4, 5):
        by_zero = distribution(FamilyId.PERMUTATION_BOOLEAN, n, "zeros")
        by_inv = distribution(FamilyId.PERMUTATION, n, "inversions")
        assert by_zero == by_inv
    assert distribution(FamilyId.PERMUTATION_BOOLEAN, 4, "zeros") == {
        0: 1, 1: 3, 2: 5, 3: 6, 4: 5, 5: 3, 6: 1,
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zero_then_one_matches_negative_ones_up_to_four(n):
    lhs = distribution(FamilyId.BOOLEAN, n, "zero_then_one")
    rhs = distribution(FamilyId.ASM, n, "negative_ones")
    assert lhs == rhs


def test_zero_then_one_comparison_at_five_is_reported():
    lhs = distribution(FamilyId.BOOLEAN, 5, "zero_then_one")
    rhs = distribution(FamilyId.ASM, 5, "negative_ones")
    # the zero coefficient agrees always: those are exactly the permutations
    assert lhs[0] == rhs[0] == 120
    assert sum(lhs.values()) == sum(rhs.values()) == 429
    verdict = "equal" if lhs == rhs else "different"
    print(f"order 5: zero-then-one {lhs} vs negative ones {rhs} -> {verdict}")


def test_distribution_unknown_statistic():
    with pytest.raises(KeyError):
        distribution(FamilyId.ASM, 3, "zeros")


def test_distribution_refuses_an_unregistered_pair_before_the_order():
    for n in (0, 8):
        with pytest.raises(KeyError, match="not defined for asm"):
            distribution(FamilyId.ASM, n, "zeros")
        with pytest.raises(CapExceeded):
            distribution(FamilyId.ASM, n, "inversions")


PAIRS = [
    (statistic, family, n)
    for statistic, families in STATISTICS.items()
    for family in families
    for n in range(1, 8 if family.startswith("permutation") else 7)
]


@pytest.mark.parametrize("statistic,family,n", PAIRS)
def test_batched_statistic_equals_oracle(statistic, family, n):
    values = STATISTICS[statistic][family](n, entries(family, n))
    scan = oracle.STATISTICS[statistic][family]
    assert values.tolist() == [scan(obj) for obj in generate(family, n)]


@pytest.mark.parametrize("statistic,family,n", PAIRS)
def test_distribution_equals_counter_of_oracle(statistic, family, n):
    counts = distribution(family, n, statistic)
    scan = oracle.STATISTICS[statistic][family]
    assert counts == dict(sorted(Counter(scan(obj) for obj in generate(family, n)).items()))
    assert list(counts) == sorted(counts)
    assert all(type(k) is int and type(v) is int for k, v in counts.items())


def test_distribution_builds_no_object(monkeypatch):
    expected = {(statistic, family): distribution(family, 4, statistic) for statistic, family, _ in PAIRS}

    def refuse(*args, **kwargs):
        raise AssertionError("distribution built an object")

    monkeypatch.setattr(enumeration, "_elements", refuse)
    monkeypatch.setattr(enumeration, "build_batch", refuse)
    monkeypatch.setattr(triangles, "_check", refuse)  # every constructor calls it
    for (statistic, family), counts in expected.items():
        assert distribution(family, 4, statistic) == counts
        assert sum(counts.values()) == count(family, 4)


@pytest.mark.parametrize("family", ["asm", "monotone", "magog", "boolean", "tsscpp", "permutation"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_object_statistics_equal_oracle(family, n):
    """What ``gogmagog stats`` prints, key order and JSON types included."""
    for obj in generate(family, n):
        assert list(object_statistics(obj)) == list(KINDS[triangles.SCHEMA[type(obj)][0]])
        assert json.dumps(object_statistics(obj)) == json.dumps(oracle.object_statistics(obj))


def test_inversions_of_an_order_10000_permutation_take_linear_memory():
    """``stats --kind permutation`` takes a permutation of any order; a
    (rows, n, n) comparison would take 100 MB here."""
    n = 10_000
    p = Permutation(n, tuple(range(n, 0, -1)))
    tracemalloc.start()
    try:
        inversions = inversion_number(p)
        printed = object_statistics(p)["inversions"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inversions == printed == n * (n - 1) // 2
    assert peak < 16 * 2**20
