"""The scalar statistics and permutation predicates the batched functions of
``gogmagog.statistics`` replaced, kept as the test oracle: each one scans a
single object, entry by entry or over every choice of positions.  Also the
two pattern scans that characterise permutation TSSCPPs on the magog and
plane-partition encodings.

``STATISTICS`` mirrors the registry of ``gogmagog.statistics`` with these
functions, and :func:`object_statistics` mirrors what ``gogmagog stats``
prints for an object.
"""

from itertools import combinations

import numpy as np

from gogmagog.statistics import StatBundle
from gogmagog.triangles import SCHEMA, Permutation


def inversion_number(a) -> int:
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


def perm_inversions(p) -> int:
    """Number of pairs i < j with sigma(j) < sigma(i)."""
    s = p.sigma
    return sum(1 for i, j in combinations(range(p.n), 2) if s[j] < s[i])


def count_negative_ones(a) -> int:
    return sum(1 for row in a.rows for entry in row if entry == -1)


def strict_diagonal_entries(m) -> int:
    """Entries strictly between both diagonal neighbours below; these match
    the -1 entries of the corresponding matrix."""
    total = 0
    for r in range(m.n - 1):
        below = m.rows[r + 1]
        total += sum(1 for c, v in enumerate(m.rows[r]) if below[c] < v < below[c + 1])
    return total


def boolean_zero_count(b) -> int:
    return sum(1 for row in b.rows for entry in row if entry == 0)


def boolean_last_row_zeros(b) -> int:
    if b.n == 1:
        return 0
    return sum(1 for entry in b.rows[-1] if entry == 0)


def boolean_lowest_one_last_diagonal(b):
    """Row index (1-based) of the lowest one in diagonal n-1, or None when
    the diagonal has no ones (the order-1 triangle included)."""
    if b.n == 1:
        return None
    lowest = None
    for r, value in enumerate(b.diagonal(b.n - 1), start=1):
        if value == 1:
            lowest = r
    return lowest


def zero_then_one_count(b) -> int:
    """Adjacent (0, 1) pairs read across the rows."""
    return sum(
        1
        for row in b.rows
        for c in range(len(row) - 1)
        if row[c] == 0 and row[c + 1] == 1
    )


def avoids(p, pattern) -> bool:
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


def _one_position(values) -> int:
    return values.index(1) + 1


def stat_bundle(a) -> StatBundle:
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


def is_permutation_matrix(a) -> bool:
    return all(entry >= 0 for row in a.rows for entry in row)


def is_permutation_boolean(b) -> bool:
    """Rows weakly decreasing, i.e. the ones of every row are left-justified."""
    return all(row[c] >= row[c + 1] for row in b.rows for c in range(len(row) - 1))


def is_permutation_magog(m) -> bool:
    """No entry x at (r, c) with, for some k >= 0, the pattern

        x >= rows[r+1][c+1] == rows[r+k+1][c+1] > rows[r+k+1][c] + 1

    (dense 0-based indices; values down a dense column weakly decrease, so
    the equality run is a prefix)."""
    rows = m.rows
    for r in range(m.n - 1):
        for c in range(r + 1):
            v = rows[r + 1][c + 1]
            if rows[r][c] >= v:
                for rr in range(r + 1, m.n):
                    if rows[rr][c + 1] != v:
                        break
                    if v > rows[rr][c] + 1:
                        return False
    return True


def is_permutation_tsscpp(p) -> bool:
    """No k >= 0 and fundamental-domain position (i, j), n+1 <= i <= j <= 2n-1,
    with t[i][j] > t[i][j+1] == t[i+k][j+k+1] > t[i+k+1][j+k+1]."""
    n = p.n
    t = p.rows
    for i in range(n + 1, 2 * n):
        for j in range(i, 2 * n):
            if t[i - 1][j - 1] > t[i - 1][j]:
                v = t[i - 1][j]
                k = 0
                while i + k + 1 <= 2 * n and j + k + 1 <= 2 * n:
                    if t[i + k - 1][j + k] != v:
                        break
                    if v > t[i + k][j + k]:
                        return False
                    k += 1
    return True


STATISTICS = {
    "inversions": {"asm": inversion_number, "permutation": perm_inversions},
    "negative_ones": {"asm": count_negative_ones},
    "zeros": {"boolean": boolean_zero_count, "permutation-boolean": boolean_zero_count},
    "last_row_zeros": {"boolean": boolean_last_row_zeros, "permutation-boolean": boolean_last_row_zeros},
    "zero_then_one": {"boolean": zero_then_one_count, "permutation-boolean": zero_then_one_count},
    "strict_diagonal_entries": {"monotone": strict_diagonal_entries},
}


def object_statistics(obj):
    """What ``gogmagog stats`` printed for an object of a kind with
    statistics of its own, by the scans above."""
    kind = SCHEMA[type(obj)][0]
    if kind == "asm":
        bundle = stat_bundle(obj)
        return {
            "inversions": bundle.inversion_number,
            "negative_ones": bundle.negative_ones,
            "last_row_one_col": bundle.last_row_one_col,
            "last_col_one_row": bundle.last_col_one_row,
            "is_permutation": is_permutation_matrix(obj),
        }
    if kind == "permutation":
        return {"inversions": perm_inversions(obj)}
    if kind == "monotone_triangle":
        return {"strict_diagonal_entries": strict_diagonal_entries(obj)}
    if kind == "boolean_triangle":
        return {
            "zeros": boolean_zero_count(obj),
            "last_row_zeros": boolean_last_row_zeros(obj),
            "lowest_one_last_diagonal": boolean_lowest_one_last_diagonal(obj),
            "zero_then_one": zero_then_one_count(obj),
            "is_permutation": is_permutation_boolean(obj),
        }
    if kind == "magog_triangle":
        return {"is_permutation": is_permutation_magog(obj)}
    if kind == "plane_partition":
        return {"is_permutation": is_permutation_tsscpp(obj)}
    raise KeyError(kind)
