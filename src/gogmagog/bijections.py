"""Conversion maps between the object families, each total on its stated
domain and invertible.

The conversion graph has two hubs:

* ``MonotoneTriangle`` for the matrix side (``Asm`` <-> monotone triangle via
  column partial sums; permutations <-> monotone triangles via sorted
  prefixes).
* ``FundamentalDomain`` for the plane-partition side (magog triangles via the
  rotate-and-shift formula; boolean triangles via layer profiles, see below;
  nests of paths via the boolean encoding).

The two sides meet only on permutation objects: a boolean triangle with
weakly decreasing rows maps to a monotone triangle by copying, in each row,
the below-left neighbour over a one and the below-right neighbour over a
zero.  That map sends zeros to inversions and is the statistic-preserving
permutation bijection.

The maps the claims read in bulk also have batch forms on validated entry
arrays (``permutations_to_booleans`` and the like); the scalar maps are
their oracles.

Layer profiles
--------------
``boolean_from_fundamental`` encodes domain heights by levels.  For each
``q = 1 .. n-1`` consider the cells of the domain with height at least
``n - q`` (a shifted, strictly-row-decreasing shape confined to the first
``q`` columns).  A layer row of length ``r`` puts a zero at depth
``q - r + 1`` of diagonal ``q`` of the boolean triangle; all other entries
are ones.  The inverse reads the zero depths of each diagonal back into
nested layers and sums them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .triangles import (
    Asm,
    BooleanTriangle,
    FundamentalDomain,
    InconsistentDomain,
    MagogTriangle,
    MonotoneTriangle,
    NilpNest,
    Permutation,
    PlanePartition,
    ValidationError,
    _triangle_cells,
    _triangle_neighbours,
    expand_domains,
    expand_fundamental,
    fundamental_domain,
    is_permutation_matrix,
    validate_batch,
)

__all__ = [
    "NotPermutationBoolean",
    "NotPermutationMonotone",
    "NotPermutationMatrix",
    "ResultNotMagog",
    "asm_to_monotone",
    "monotone_to_asm",
    "asm_to_permutation",
    "permutation_matrix",
    "permutation_to_monotone",
    "monotone_to_permutation",
    "magog_from_fundamental",
    "fundamental_from_magog",
    "boolean_from_fundamental",
    "fundamental_from_boolean",
    "boolean_to_nilp",
    "nilp_to_boolean",
    "nilp_from_fundamental",
    "fundamental_from_nilp",
    "magog_to_boolean",
    "boolean_to_magog",
    "tsscpp_to_boolean",
    "boolean_to_tsscpp",
    "booleans_to_tsscpp",
    "permutations_to_monotones",
    "permutations_to_booleans",
    "asms_to_monotones",
    "monotones_to_asms",
    "booleans_to_nests",
    "nests_to_booleans",
    "booleans_to_domains",
    "domains_to_booleans",
    "domains_to_magogs",
    "magogs_to_booleans",
    "booleans_to_magogs",
    "boolean_to_monotone_perm",
    "monotone_perm_to_boolean",
    "permutation_to_boolean",
    "boolean_to_permutation",
    "bracket_vector",
    "bracket_vector_to_boolean",
    "is_permutation_boolean",
    "is_permutation_magog",
    "is_permutation_tsscpp",
]


class NotPermutationBoolean(ValidationError):
    pass


class NotPermutationMonotone(ValidationError):
    pass


class NotPermutationMatrix(ValidationError):
    pass


class ResultNotMagog(ValidationError):
    pass


def asm_to_monotone(a: Asm) -> MonotoneTriangle:
    """Row i lists, in increasing order, the columns whose top-i partial sum
    is one."""
    n = a.n
    rows = []
    col = [0] * n
    for r in range(n):
        for c in range(n):
            col[c] += a.rows[r][c]
        rows.append(tuple(c + 1 for c in range(n) if col[c] == 1))
    return MonotoneTriangle(n, tuple(rows))


def monotone_to_asm(m: MonotoneTriangle) -> Asm:
    n = m.n
    rows = []
    prev = frozenset()
    for r in range(n):
        cur = frozenset(m.rows[r])
        rows.append(tuple((1 if c in cur else 0) - (1 if c in prev else 0) for c in range(1, n + 1)))
        prev = cur
    return Asm(n, tuple(rows))


def permutation_matrix(p: Permutation) -> Asm:
    n = p.n
    return Asm(n, tuple(tuple(1 if p.sigma[r] == c else 0 for c in range(1, n + 1)) for r in range(n)))


def asm_to_permutation(a: Asm) -> Permutation:
    if not is_permutation_matrix(a):
        raise NotPermutationMatrix("matrix has a -1 entry")
    return Permutation(a.n, tuple(row.index(1) + 1 for row in a.rows))


def permutation_to_monotone(p: Permutation) -> MonotoneTriangle:
    """Row i is the sorted prefix sigma(1..i)."""
    return MonotoneTriangle(p.n, tuple(tuple(sorted(p.sigma[: r + 1])) for r in range(p.n)))


def monotone_to_permutation(m: MonotoneTriangle) -> Permutation:
    """sigma(i) is the unique new value in row i; defined exactly on the
    monotone triangles of permutation matrices."""
    sigma = []
    prev = frozenset()
    for row in m.rows:
        new = frozenset(row) - prev
        if len(new) != 1:
            raise NotPermutationMonotone("monotone triangle rows are not nested prefixes")
        sigma.append(next(iter(new)))
        prev = frozenset(row)
    return Permutation(m.n, tuple(sigma))


def magog_from_fundamental(d: FundamentalDomain) -> MagogTriangle:
    """Rotate the domain and add 1, 2, ..., n along the diagonals:
    triangle row i, dense position i-j+1 equals t[n+j][n+i] + i - j + 1."""
    n = d.n
    rows = [[0] * (i + 1) for i in range(n)]
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            rows[i - 1][i - j] = d.rows[j - 1][i - j] + i - j + 1
    try:
        return MagogTriangle(n, tuple(tuple(row) for row in rows))
    except ValidationError as exc:
        raise ResultNotMagog(f"domain does not yield a magog triangle: {exc}") from exc


def fundamental_from_magog(m: MagogTriangle) -> FundamentalDomain:
    n = m.n
    rows = [[0] * (n - i) for i in range(n)]
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            rows[j - 1][i - j] = m.rows[i - 1][i - j] - (i - j + 1)
    return FundamentalDomain(n, tuple(tuple(row) for row in rows))


def _layer_row_lengths(d: FundamentalDomain, level):
    """Row lengths of the domain cells with height >= level (strictly
    decreasing; rows weakly decrease so each run starts on the diagonal)."""
    lengths = []
    for row in d.rows:
        r = 0
        while r < len(row) and row[r] >= level:
            r += 1
        if r == 0:
            break
        lengths.append(r)
    return lengths


def boolean_from_fundamental(d: FundamentalDomain) -> BooleanTriangle:
    n = d.n
    rows = [[1] * (r + 1) for r in range(n - 1)]
    for q in range(1, n):
        for r in _layer_row_lengths(d, n - q):
            depth = q - r + 1
            if depth < 1 or rows[n - q + depth - 2][depth - 1] == 0:
                raise InconsistentDomain(
                    f"level {n - q} of the domain has an impossible row of length {r}"
                )
            rows[n - q + depth - 2][depth - 1] = 0
    return BooleanTriangle(n, tuple(tuple(row) for row in rows))


def fundamental_from_boolean(b: BooleanTriangle) -> FundamentalDomain:
    n = b.n
    rows = [[0] * (n - i) for i in range(n)]
    for q in range(1, n):
        depths = [s for s, value in enumerate(b.diagonal(q), start=1) if value == 0]
        lengths = sorted((q - s + 1 for s in depths), reverse=True)
        for i, r in enumerate(lengths):
            for c in range(r):
                rows[i][c] += 1
    return FundamentalDomain(n, tuple(tuple(row) for row in rows))


def boolean_to_nilp(b: BooleanTriangle) -> NilpNest:
    """Diagonal q, top to bottom, is path q: one = vertical step,
    zero = southeast diagonal step."""
    paths = tuple(
        tuple("V" if value else "D" for value in b.diagonal(q)) for q in range(1, b.n)
    )
    return NilpNest(b.n, paths)


def nilp_to_boolean(nest: NilpNest) -> BooleanTriangle:
    n = nest.n
    rows = [[0] * (r + 1) for r in range(n - 1)]
    for q, path in enumerate(nest.paths, start=1):
        for s, step in enumerate(path, start=1):
            rows[n - q + s - 2][s - 1] = 1 if step == "V" else 0
    return BooleanTriangle(n, tuple(tuple(row) for row in rows))


def nilp_from_fundamental(d: FundamentalDomain) -> NilpNest:
    return boolean_to_nilp(boolean_from_fundamental(d))


def fundamental_from_nilp(nest: NilpNest) -> FundamentalDomain:
    return fundamental_from_boolean(nilp_to_boolean(nest))


def magog_to_boolean(m: MagogTriangle) -> BooleanTriangle:
    return boolean_from_fundamental(fundamental_from_magog(m))


def boolean_to_magog(b: BooleanTriangle) -> MagogTriangle:
    return magog_from_fundamental(fundamental_from_boolean(b))


def tsscpp_to_boolean(p: PlanePartition) -> BooleanTriangle:
    return boolean_from_fundamental(fundamental_domain(p))


def boolean_to_tsscpp(b: BooleanTriangle) -> PlanePartition:
    return expand_fundamental(fundamental_from_boolean(b))


@lru_cache(maxsize=None)
def _layer_cells(n):
    """For each entry (r, c) of a boolean triangle of order n, row-major: its
    diagonal q = n - 1 - r + c, its depth c (0-based), and which cells (i, j)
    of an n x n grid a layer row starting at (i, i) covers, i <= j < i + q - c
    (the row's length q - c is n - 1 - r)."""
    r, c = _triangle_cells(n - 1)
    i, j = np.arange(n)[:, None], np.arange(n)
    covers = (i <= j) & (j < i + (n - 1 - r)[:, None, None])
    return n - 1 - r + c, c, covers.astype(np.int64)


def _domains_from_booleans(n, a):
    """Batch form of :func:`fundamental_from_boolean` on the boolean
    triangles in the rows of ``a`` (see ``triangles.validate_batch``), as the
    padded domain arrays :func:`triangles.expand_domains` takes.  A zero at
    depth c of diagonal q with i zeros above it is a layer row of length
    q - c in domain row i."""
    q, depth, covers = _layer_cells(n)
    zeros = a == 0
    grid = np.zeros((len(a), n, n), dtype=np.int64)
    grid[:, q, depth] = zeros
    above = grid.cumsum(axis=2)[:, q, depth] - zeros
    rows = (zeros[:, :, None] & (above[:, :, None] == np.arange(n))).astype(np.int64)
    padded = np.zeros((len(a), 2 * n + 1, 2 * n + 1), dtype=np.int16)
    padded[:, n + 1 :, n + 1 :] = np.einsum("mpi,pij->mij", rows, covers)
    return padded


def booleans_to_tsscpp(n, a):
    """Batch form of :func:`boolean_to_tsscpp` on validated boolean entry
    arrays of order n: the heights arrays, shape (len(a), 2n, 2n), checked
    with ``triangles.expand_domains`` (a domain that round-trips is the
    corner of a valid plane partition)."""
    heights = expand_domains(n, _domains_from_booleans(n, a))
    if heights is None:
        raise ValidationError(f"a batched map gave a domain of order {n} that is no TSSCPP's")
    return heights


# The batched maps below take validated entry arrays of order n (one row per
# value, see ``triangles.validate_batch``) and check each block of
# ``_CHECK_ROWS`` values they return.  Small blocks, because
# ``triangles.expand_domains`` holds (rows, 2n, 2n, 2n) closure cubes per
# block: with blocks of 1,024 rows ``poset-check --claim lemma4.8 --n 6``
# peaks at 38.6 MiB against 34.2 MiB, and counting the magog triangles of
# order 6 takes 22 ms against 19 ms.
_CHECK_ROWS = 256


def _checked(cls, n, a):
    """``a``, once its values pass the batch check of ``cls``."""
    for block in np.split(a, range(_CHECK_ROWS, len(a), _CHECK_ROWS)):
        if validate_batch(cls, n, block) is None:
            raise ValidationError(f"a batched map gave a value that is no {cls.__name__} of order {n}")
    return a


def permutations_to_monotones(n, a):
    """Batch form of :func:`permutation_to_monotone`."""
    rows = [np.sort(a[:, : r + 1], axis=1) for r in range(n)]
    return _checked(MonotoneTriangle, n, np.concatenate(rows, axis=1))


def permutations_to_booleans(n, a):
    """Batch form of :func:`permutation_to_boolean`: entry (r, c) is 1 iff
    the sorted prefixes of lengths r + 1 and r + 2 agree at c."""
    _, above, below_left = _triangle_neighbours(n)
    monotones = permutations_to_monotones(n, a)
    agree = monotones[:, above] == monotones[:, below_left]
    return _checked(BooleanTriangle, n, agree.astype(np.int8))


def asms_to_monotones(n, a):
    """Batch form of :func:`asm_to_monotone`: the columns whose prefix sum
    through row k is 1, sorted, and n + 1 in the other columns."""
    ones = a.reshape(len(a), n, n).cumsum(axis=1, dtype=np.int8) == 1
    columns = np.sort(np.where(ones, np.arange(1, n + 1, dtype=np.int8), np.int8(n + 1)), axis=2)
    r, c = _triangle_cells(n)
    return _checked(MonotoneTriangle, n, columns[:, r, c])


def monotones_to_asms(n, a):
    """Batch form of :func:`monotone_to_asm`: the indicator of each monotone
    row less that of the row above."""
    rows = np.zeros((len(a), n + 1, n + 1), dtype=np.int8)
    rows[np.arange(len(a))[:, None], _triangle_cells(n)[0] + 1, a] = 1
    return _checked(Asm, n, np.diff(rows, axis=1)[:, :, 1:].reshape(len(a), n * n))


def _nest_cells(n):
    """The boolean entry, row-major, under each nest step, row-major: step s
    of path q is depth s of diagonal q, in row n - q + s - 2."""
    path, step = _triangle_cells(n - 1)
    row = n - 2 - path + step
    return row * (row + 1) // 2 + step


def booleans_to_nests(n, a):
    """Batch form of :func:`boolean_to_nilp`, 1 for a "D" step."""
    return _checked(NilpNest, n, 1 - a[:, _nest_cells(n)])


def nests_to_booleans(n, a):
    """Batch form of :func:`nilp_to_boolean`, 1 for a "D" step."""
    return _checked(BooleanTriangle, n, 1 - a[:, np.argsort(_nest_cells(n))])


@lru_cache(maxsize=None)
def _domain_cells(n):
    """Row and column of each entry of a fundamental domain, row-major (row i
    has n - i entries), and the position there of magog entry (r, c), which
    is cell (r - c, c)."""
    i = np.repeat(np.arange(n), np.arange(n, 0, -1))
    r, c = _triangle_cells(n)
    return i, np.arange(len(i)) - i * (2 * n + 1 - i) // 2, (r - c) * (2 * n + 1 - r + c) // 2 + c


def booleans_to_domains(n, a):
    """Batch form of :func:`fundamental_from_boolean`: the domain entries,
    row-major, checked with ``triangles.expand_domains``."""
    i, c, _ = _domain_cells(n)
    out = np.empty((len(a), len(i)), dtype=np.int8)
    for start in range(0, len(a), _CHECK_ROWS):
        out[start : start + _CHECK_ROWS] = booleans_to_tsscpp(n, a[start : start + _CHECK_ROWS])[:, n + i, n + i + c]
    return out


def domains_to_booleans(n, a):
    """Batch form of :func:`boolean_from_fundamental` on the domain entries of
    :func:`booleans_to_domains`: a domain row with l >= 1 cells of height at
    least L puts the zero at depth n - L - l of diagonal n - L, in row
    n - 1 - l."""
    i, c, _ = _domain_cells(n)
    domain = np.zeros((len(a), n, n), dtype=np.int8)
    domain[:, i, c] = a
    out = np.ones((len(a), n * (n - 1) // 2), dtype=np.int8)
    for level in range(1, n):
        lengths = (domain >= level).sum(axis=2)
        triangle, _ = np.nonzero(lengths)
        length = lengths[lengths > 0]
        row = n - 1 - length
        out[triangle, row * (row + 1) // 2 + n - level - length] = 0
    return _checked(BooleanTriangle, n, out)


def domains_to_magogs(n, a):
    """Batch form of :func:`magog_from_fundamental`."""
    _, c = _triangle_cells(n)
    return _checked(MagogTriangle, n, a[:, _domain_cells(n)[2]] + (c + 1).astype(a.dtype))


def magogs_to_booleans(n, a):
    """Batch form of :func:`magog_to_boolean`."""
    _, c = _triangle_cells(n)
    domains = a - (c + 1).astype(a.dtype)
    return domains_to_booleans(n, domains[:, np.argsort(_domain_cells(n)[2])])


def booleans_to_magogs(n, a):
    """Batch form of :func:`boolean_to_magog`."""
    return domains_to_magogs(n, booleans_to_domains(n, a))


def is_permutation_boolean(b: BooleanTriangle) -> bool:
    """Rows weakly decreasing, i.e. the ones of every row are left-justified."""
    return all(row[c] >= row[c + 1] for row in b.rows for c in range(len(row) - 1))


def is_permutation_magog(m: MagogTriangle) -> bool:
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


def is_permutation_tsscpp(p: PlanePartition) -> bool:
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


def boolean_to_monotone_perm(b: BooleanTriangle) -> MonotoneTriangle:
    """The statistic-preserving permutation bijection, boolean side to matrix
    side: bottom row 1..n, then every entry copies its below-left neighbour
    over a one and its below-right neighbour over a zero."""
    if not is_permutation_boolean(b):
        raise NotPermutationBoolean("a row of the boolean triangle increases")
    n = b.n
    rows = [tuple(range(1, n + 1))]
    for r in range(n - 2, -1, -1):
        below = rows[0]
        rows.insert(0, tuple(below[c] if b.rows[r][c] else below[c + 1] for c in range(r + 1)))
    return MonotoneTriangle(n, tuple(rows))


def monotone_perm_to_boolean(m: MonotoneTriangle) -> BooleanTriangle:
    """Inverse of :func:`boolean_to_monotone_perm`, defined on monotone
    triangles of permutation matrices.  Rows are strict, so at most one of the
    two neighbour equalities can hold; if neither does the triangle has a
    strict-diagonal entry, i.e. a -1 in its matrix."""
    n = m.n
    rows = []
    for r in range(n - 1):
        below = m.rows[r + 1]
        row = []
        for c, entry in enumerate(m.rows[r]):
            if entry == below[c]:
                row.append(1)
            elif entry == below[c + 1]:
                row.append(0)
            else:
                raise NotPermutationMonotone(
                    f"entry at ({r + 1},{c + 1}) matches neither neighbour below"
                )
        rows.append(tuple(row))
    return BooleanTriangle(n, tuple(rows))


def permutation_to_boolean(p: Permutation) -> BooleanTriangle:
    return monotone_perm_to_boolean(permutation_to_monotone(p))


def boolean_to_permutation(b: BooleanTriangle) -> Permutation:
    return monotone_to_permutation(boolean_to_monotone_perm(b))


def bracket_vector(b: BooleanTriangle) -> tuple[int, ...]:
    """x_i = i + (sum of row n - i), the empty row counting as zero; a
    bijection from permutation boolean triangles onto sequences with
    i <= x_i <= n."""
    if not is_permutation_boolean(b):
        raise NotPermutationBoolean("a row of the boolean triangle increases")
    n = b.n
    return tuple(i + (sum(b.rows[n - i - 1]) if i < n else 0) for i in range(1, n + 1))


def bracket_vector_to_boolean(x) -> BooleanTriangle:
    x = tuple(x)
    n = len(x)
    for i, v in enumerate(x, start=1):
        if not i <= v <= n:
            raise ValidationError(f"entry {v} at position {i} outside {i}..{n}")
    rows = []
    for r in range(1, n):
        ones = x[n - r - 1] - (n - r)
        rows.append((1,) * ones + (0,) * (r - ones))
    return BooleanTriangle(n, tuple(rows))
