"""Statistics against definitional brute-force oracles and frozen values."""

import itertools

import pytest

import golden_data as gold
import reference_maps as ref
from gogmagog import bijections as bij
from gogmagog.enumeration import FamilyId, entries, generate
from gogmagog.statistics import (
    avoiding,
    avoids,
    boolean_lowest_one_last_diagonal,
    boolean_stat_triple,
    boolean_zero_count,
    count_negative_ones,
    distribution,
    inversion_number,
    perm_inversions,
    stat_bundle,
    strict_diagonal_entries,
    zero_then_one_count,
)
from gogmagog.triangles import (
    Permutation,
    validate_asm,
    validate_boolean,
    validate_monotone,
)


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


def test_inversion_number_frozen_values():
    golden = validate_asm(gold.GOLDEN["matrix"])
    assert inversion_number(golden) == 11
    eye = validate_asm(((1, 0), (0, 1)))
    assert inversion_number(eye) == 0
    # the single order-3 matrix with a -1; value from the quadruple sum
    minus = validate_asm(gold.ASMS_3[3])
    assert inversion_number_oracle(minus) == 2
    assert inversion_number(minus) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inversion_number_matches_quadruple_sum(n):
    for a in generate(FamilyId.ASM, n):
        assert inversion_number(a) == inversion_number_oracle(a)


def test_perm_inversions():
    assert perm_inversions(Permutation.from_one_line("463512")) == 11
    assert perm_inversions(Permutation.from_one_line("1234")) == 0
    assert perm_inversions(Permutation.from_one_line("4321")) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inversion_number_extends_permutation_inversions(n):
    for p in generate(FamilyId.PERMUTATION, n):
        assert inversion_number(ref.permutation_matrix(p)) == perm_inversions(p)


def test_negative_ones_matches_strict_diagonal_entries_on_golden_pairs():
    bold_asm = validate_asm(gold.ASMS_3[3])
    bold_mono = validate_monotone(gold.MONOTONE_3[3])
    assert count_negative_ones(bold_asm) == strict_diagonal_entries(bold_mono) == 1
    for rows in gold.MONOTONE_3[:3]:
        assert strict_diagonal_entries(validate_monotone(rows)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_negative_ones_equal_strict_diagonal_entries(n):
    for a in generate(FamilyId.ASM, n):
        assert count_negative_ones(a) == strict_diagonal_entries(ref.asm_to_monotone(a))


def test_boolean_statistics_on_golden_example():
    b = validate_boolean(gold.GOLDEN["boolean"])
    assert boolean_stat_triple(b) == (11, 4, 1)


def test_boolean_statistics_all_ones():
    for n in (2, 3, 4, 5):
        b = validate_boolean([[1] * (r + 1) for r in range(n - 1)])
        assert boolean_stat_triple(b) == (0, 0, n - 1)


def test_lowest_one_none_when_diagonal_empty():
    assert boolean_lowest_one_last_diagonal(validate_boolean([[0], [0, 0]])) is None
    assert boolean_lowest_one_last_diagonal(validate_boolean([], n=1)) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_statistic_preservation(n):
    """Inversions <-> zeros; last-row one at column k <-> n-k last-row zeros;
    last-column one at row l <-> lowest one of the last diagonal at row l-1."""
    for p in generate(FamilyId.PERMUTATION, n):
        b = ref.permutation_to_boolean(p)
        bundle = stat_bundle(ref.permutation_matrix(p))
        zeros, last_row, lowest = boolean_stat_triple(b)
        assert zeros == bundle.inversion_number == perm_inversions(p)
        assert last_row == n - bundle.last_row_one_col
        assert lowest == (None if bundle.last_col_one_row == 1 else bundle.last_col_one_row - 1)


def test_zero_then_one_count():
    assert zero_then_one_count(validate_boolean([[0], [0, 1]])) == 1
    assert zero_then_one_count(validate_boolean([[1], [1, 1]])) == 0
    assert zero_then_one_count(validate_boolean([[0], [0, 0], [1, 0, 1]])) == 1


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
            assert avoiding(perms, pattern).tolist() == [avoids(p, pattern) for p in objects]


def test_stat_bundle_positions():
    bundle = stat_bundle(bij.permutation_matrix(Permutation.from_one_line("463512")))
    assert bundle.last_row_one_col == 2
    assert bundle.last_col_one_row == 2
    assert bundle.negative_ones == 0
    # boundary positions exist for matrices with a -1 as well
    bundle = stat_bundle(validate_asm(gold.ASMS_3[3]))
    assert (bundle.last_row_one_col, bundle.last_col_one_row) == (2, 2)


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


def test_distribution_accepts_callable():
    counts = distribution(FamilyId.BOOLEAN, 3, boolean_zero_count)
    assert sum(counts.values()) == 7


def test_distribution_unknown_statistic():
    with pytest.raises(KeyError):
        distribution(FamilyId.ASM, 3, "zeros")
