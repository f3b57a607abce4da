"""Statistics on the object families and distributions over them.

The bundle preserved by the permutation bijection: inversion number <-> zero
count, position of the one in the last matrix row <-> zero count of the last
triangle row, position of the one in the last matrix column <-> lowest one of
the last triangle diagonal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .triangles import Asm, BooleanTriangle, MonotoneTriangle, Permutation

__all__ = [
    "StatBundle",
    "inversion_number",
    "perm_inversions",
    "count_negative_ones",
    "strict_diagonal_entries",
    "boolean_zero_count",
    "boolean_last_row_zeros",
    "boolean_lowest_one_last_diagonal",
    "boolean_stat_triple",
    "zero_then_one_count",
    "avoids",
    "avoiding",
    "stat_bundle",
    "distribution",
    "STATISTICS",
]


@dataclass(frozen=True)
class StatBundle:
    """The four matrix-side statistics of the permutation bijection."""

    inversion_number: int
    negative_ones: int
    last_row_one_col: int
    last_col_one_row: int


def inversion_number(a: Asm) -> int:
    """Sum of A[i,j] * A[k,l] over all pairs with i > k and j < l.

    Computed as sum over entries of (entry times the total strictly
    above-right of it); identical to the definitional quadruple sum.
    """
    m = np.array(a.rows, dtype=np.int64)
    above = np.zeros_like(m)
    above[1:, :] = np.cumsum(m, axis=0)[:-1, :]
    above_right = np.zeros_like(m)
    above_right[:, :-1] = np.cumsum(above[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return int((m * above_right).sum())


def perm_inversions(p: Permutation) -> int:
    """Number of pairs i < j with sigma(j) < sigma(i)."""
    s = p.sigma
    return sum(1 for i, j in combinations(range(p.n), 2) if s[j] < s[i])


def count_negative_ones(a: Asm) -> int:
    return sum(1 for row in a.rows for entry in row if entry == -1)


def strict_diagonal_entries(m: MonotoneTriangle) -> int:
    """Entries strictly between both diagonal neighbours below; these match
    the -1 entries of the corresponding matrix."""
    total = 0
    for r in range(m.n - 1):
        below = m.rows[r + 1]
        total += sum(1 for c, v in enumerate(m.rows[r]) if below[c] < v < below[c + 1])
    return total


def boolean_zero_count(b: BooleanTriangle) -> int:
    return sum(1 for row in b.rows for entry in row if entry == 0)


def boolean_last_row_zeros(b: BooleanTriangle) -> int:
    if b.n == 1:
        return 0
    return sum(1 for entry in b.rows[-1] if entry == 0)


def boolean_lowest_one_last_diagonal(b: BooleanTriangle):
    """Row index (1-based) of the lowest one in diagonal n-1, or None when
    the diagonal has no ones (the order-1 triangle included)."""
    if b.n == 1:
        return None
    lowest = None
    for r, value in enumerate(b.diagonal(b.n - 1), start=1):
        if value == 1:
            lowest = r
    return lowest


def boolean_stat_triple(b: BooleanTriangle):
    return (
        boolean_zero_count(b),
        boolean_last_row_zeros(b),
        boolean_lowest_one_last_diagonal(b),
    )


def zero_then_one_count(b: BooleanTriangle) -> int:
    """Adjacent (0, 1) pairs read across the rows."""
    return sum(
        1
        for row in b.rows
        for c in range(len(row) - 1)
        if row[c] == 0 and row[c + 1] == 1
    )


def avoids(p: Permutation, pattern) -> bool:
    """True iff no subsequence of p is order-isomorphic to the pattern."""
    pat = tuple(pattern.sigma) if isinstance(pattern, Permutation) else tuple(pattern)
    k = len(pat)
    if k > p.n:
        return True
    order = tuple(sorted(range(k), key=lambda i: pat[i]))
    s = p.sigma
    for positions in combinations(range(p.n), k):
        values = [s[i] for i in positions]
        if tuple(sorted(range(k), key=lambda i: values[i])) == order:
            return False
    return True


def avoiding(perms, pattern):
    """Batch form of :func:`avoids` on a permutation entry array (one row per
    permutation) and a pattern tuple: the mask of the rows with no
    subsequence order-isomorphic to the pattern, by one test over every
    choice of positions."""
    pattern = np.array(pattern)
    positions = np.array(list(combinations(range(perms.shape[1]), len(pattern))), dtype=np.intp)
    values = perms[:, positions.reshape(-1, len(pattern))]
    order = pattern[:, None] < pattern
    return ~((values[..., :, None] < values[..., None, :]) == order).all(axis=(2, 3)).any(axis=1)


def _one_position(values) -> int:
    return values.index(1) + 1


def stat_bundle(a: Asm) -> StatBundle:
    """First and last rows/columns of any alternating sign matrix contain a
    single nonzero entry, a one, so the boundary positions are well defined.
    """
    last_col = [row[a.n - 1] for row in a.rows]
    return StatBundle(
        inversion_number=inversion_number(a),
        negative_ones=count_negative_ones(a),
        last_row_one_col=_one_position(list(a.rows[a.n - 1])),
        last_col_one_row=_one_position(last_col),
    )


# Statistic registry: name -> {family value: function}.  Family values are the
# FamilyId strings; see gogmagog.enumeration.
STATISTICS = {
    "inversions": {
        "asm": inversion_number,
        "permutation": perm_inversions,
    },
    "negative_ones": {"asm": count_negative_ones},
    "zeros": {
        "boolean": boolean_zero_count,
        "permutation-boolean": boolean_zero_count,
    },
    "last_row_zeros": {
        "boolean": boolean_last_row_zeros,
        "permutation-boolean": boolean_last_row_zeros,
    },
    "zero_then_one": {
        "boolean": zero_then_one_count,
        "permutation-boolean": zero_then_one_count,
    },
    "strict_diagonal_entries": {"monotone": strict_diagonal_entries},
}


def distribution(family, n, statistic, *, max_n=None):
    """Counts of objects in the family by statistic value.

    ``statistic`` is a registry name or any callable on the family's objects.
    """
    from . import enumeration

    family = enumeration.FamilyId(family)
    if callable(statistic):
        func = statistic
    else:
        try:
            func = STATISTICS[statistic][family.value]
        except KeyError:
            raise KeyError(f"statistic {statistic!r} is not defined for {family.value}")
    counts = Counter(func(obj) for obj in enumeration.generate(family, n, max_n=max_n))
    return dict(sorted(counts.items()))
