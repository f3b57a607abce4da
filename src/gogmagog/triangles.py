"""Value types for the object families and their defining inequalities.

Eight families live here: alternating sign matrices, permutations, monotone
triangles, magog triangles, boolean triangles, nests of non-intersecting
lattice paths, plane partitions, and fundamental domains of totally symmetric
self-complementary plane partitions (TSSCPP).

Conventions, fixed once for the whole package:

* Triangular arrays are stored dense and 0-based: ``rows[r]`` is the
  (r+1)-st row from the top and holds ``r + 1`` entries left to right.
* Monotone and magog triangles of order ``n`` have ``n`` rows and bottom row
  ``1, 2, ..., n``.  Entry ``rows[r][c]`` sits between ``rows[r+1][c]``
  (below-left) and ``rows[r+1][c+1]`` (below-right).
* Boolean triangles of order ``n`` have ``n - 1`` rows of 0/1 entries.
  Diagonal ``q`` (``q = 1 .. n-1``) is the northwest-to-southeast line
  ``rows[r][r - n + q + 1]`` for ``r = n-1-q .. n-2``; diagonal ``n - 1`` is
  the rightmost one.  Diagonal ``q`` read top to bottom is exactly lattice
  path ``q`` of the corresponding nest, with 1 = vertical step and
  0 = diagonal step.
* Plane partitions store the full, zero-completed square array.

All types are frozen dataclasses; construction validates every defining
inequality and reports the first violation in row-major scan order.
:func:`validate_batch` makes the same checks on a whole chunk of raw values
at once, :func:`build_batch` builds a chunk that passes them without
checking each object again, and :func:`format_batch` writes the JSON lines of
such a chunk without building any object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import chain

import numpy as np

__all__ = [
    "ValidationError",
    "ShapeError",
    "EntryError",
    "BottomRowError",
    "RowStrictError",
    "InterlaceError",
    "PartialSumError",
    "RowSumError",
    "ColumnSumError",
    "AlternationError",
    "MonotonicityError",
    "NotTsscpp",
    "InconsistentDomain",
    "IntersectionError",
    "MonotoneTriangle",
    "MagogTriangle",
    "BooleanTriangle",
    "NilpNest",
    "Asm",
    "Permutation",
    "PlanePartition",
    "FundamentalDomain",
    "SymmetryReport",
    "validate_monotone",
    "validate_magog",
    "validate_boolean",
    "validate_nilp",
    "validate_asm",
    "validate_tsscpp",
    "fundamental_domain",
    "expand_fundamental",
    "expand_domains",
    "domains_to_tsscpps",
    "tsscpps_to_domains",
    "entry_row",
    "validate_batch",
    "build_batch",
    "format_batch",
    "is_permutation_matrix",
    "to_json_dict",
    "from_json_dict",
    "to_json",
    "from_json",
]


class ValidationError(ValueError):
    """A raw array violates a defining condition.

    ``row``/``col`` give the 1-based dense position of the first violation in
    row-major scan order, when that makes sense for the condition.
    """

    def __init__(self, message, *, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class ShapeError(ValidationError):
    pass


class EntryError(ValidationError):
    pass


class BottomRowError(ValidationError):
    pass


class RowStrictError(ValidationError):
    pass


class InterlaceError(ValidationError):
    pass


class PartialSumError(ValidationError):
    """Violated diagonal partial-sum inequality.

    ``j`` indexes the adjacent diagonal pair (left diagonal ``n - j - 1``,
    right diagonal ``n - j``) and ``i_prime`` the depth at which the running
    sums first cross.
    """

    def __init__(self, message, *, j, i_prime, row=None, col=None):
        super().__init__(message, row=row, col=col)
        self.j = j
        self.i_prime = i_prime


class RowSumError(ValidationError):
    pass


class ColumnSumError(ValidationError):
    pass


class AlternationError(ValidationError):
    pass


class MonotonicityError(ValidationError):
    pass


class NotTsscpp(ValidationError):
    pass


class InconsistentDomain(ValidationError):
    pass


class IntersectionError(ValidationError):
    pass


def _is_int(entry):
    return isinstance(entry, (int, np.integer)) and not isinstance(entry, bool)


def _as_rows(raw, what):
    """Normalize a nested sequence to a tuple of int tuples."""
    try:
        rows = tuple(map(tuple, raw))
    except TypeError:
        raise ShapeError(f"{what}: expected a sequence of rows")
    if all(type(entry) is int for row in rows for entry in row):
        return rows
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if not _is_int(entry):
                raise EntryError(
                    f"{what}: entry at ({r + 1},{c + 1}) is not an integer",
                    row=r + 1,
                    col=c + 1,
                )
    return tuple(tuple(int(entry) for entry in row) for row in rows)


def _check_order(n, what):
    if not _is_int(n) or n < 1:
        raise ShapeError(f"{what}: order must be an integer >= 1, got {n!r}")


def _check_triangular(rows, n, what):
    if len(rows) != n:
        raise ShapeError(f"{what}: expected {n} rows, got {len(rows)}")
    for r, row in enumerate(rows):
        if len(row) != r + 1:
            raise ShapeError(
                f"{what}: row {r + 1} has {len(row)} entries, expected {r + 1}",
                row=r + 1,
            )


@dataclass(frozen=True)
class MonotoneTriangle:
    """Strictly increasing rows, bottom row 1..n, interlacing diagonals:

        rows[r+1][c] <= rows[r][c] <= rows[r+1][c+1]
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_order(self.n, "monotone triangle")
        rows = _as_rows(self.rows, "monotone triangle")
        object.__setattr__(self, "rows", rows)
        _check_triangular(rows, self.n, "monotone triangle")
        n = self.n
        if rows[n - 1] != tuple(range(1, n + 1)):
            raise BottomRowError(
                f"monotone triangle: bottom row must be 1..{n}", row=n
            )
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                if not 1 <= entry <= n:
                    raise EntryError(
                        f"monotone triangle: entry {entry} at ({r + 1},{c + 1}) "
                        f"outside 1..{n}",
                        row=r + 1,
                        col=c + 1,
                    )
                if c + 1 < len(row) and not entry < row[c + 1]:
                    raise RowStrictError(
                        f"monotone triangle: row {r + 1} not strictly increasing "
                        f"at position {c + 1}",
                        row=r + 1,
                        col=c + 1,
                    )
                if r + 1 < n:
                    below = rows[r + 1]
                    if not below[c] <= entry <= below[c + 1]:
                        raise InterlaceError(
                            f"monotone triangle: entry {entry} at ({r + 1},{c + 1}) "
                            f"does not interlace {below[c]}, {below[c + 1]} below",
                            row=r + 1,
                            col=c + 1,
                        )


@dataclass(frozen=True)
class MagogTriangle:
    """Strictly increasing rows, bottom row 1..n, diagonal conditions:

        rows[r+1][c] <= rows[r][c]      (below-left no larger)
        rows[r+1][c+1] <= rows[r][c] + 1  (below-right exceeds by at most one)
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_order(self.n, "magog triangle")
        rows = _as_rows(self.rows, "magog triangle")
        object.__setattr__(self, "rows", rows)
        _check_triangular(rows, self.n, "magog triangle")
        n = self.n
        if rows[n - 1] != tuple(range(1, n + 1)):
            raise BottomRowError(f"magog triangle: bottom row must be 1..{n}", row=n)
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                if not 1 <= entry <= n:
                    raise EntryError(
                        f"magog triangle: entry {entry} at ({r + 1},{c + 1}) outside 1..{n}",
                        row=r + 1,
                        col=c + 1,
                    )
                if c + 1 < len(row) and not entry < row[c + 1]:
                    raise RowStrictError(
                        f"magog triangle: row {r + 1} not strictly increasing at "
                        f"position {c + 1}",
                        row=r + 1,
                        col=c + 1,
                    )
                if r + 1 < n:
                    below = rows[r + 1]
                    if not below[c] <= entry:
                        raise InterlaceError(
                            f"magog triangle: entry {entry} at ({r + 1},{c + 1}) "
                            f"smaller than {below[c]} below-left",
                            row=r + 1,
                            col=c + 1,
                        )
                    if not below[c + 1] <= entry + 1:
                        raise InterlaceError(
                            f"magog triangle: entry {entry} at ({r + 1},{c + 1}) "
                            f"more than one below {below[c + 1]} below-right",
                            row=r + 1,
                            col=c + 1,
                        )


@dataclass(frozen=True)
class BooleanTriangle:
    """0/1 triangle of order n (n-1 rows) with the diagonal partial-sum
    condition: for every adjacent diagonal pair and every depth, the running
    sum down a diagonal may exceed the running sum down its left neighbour by
    at most one.  Equivalently, the diagonals read as lattice paths are
    non-intersecting.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_order(self.n, "boolean triangle")
        rows = _as_rows(self.rows, "boolean triangle")
        object.__setattr__(self, "rows", rows)
        _check_triangular(rows, self.n - 1, "boolean triangle")
        n = self.n
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                if entry not in (0, 1):
                    raise EntryError(
                        f"boolean triangle: entry {entry} at ({r + 1},{c + 1}) not 0/1",
                        row=r + 1,
                        col=c + 1,
                    )
        # Running sums per diagonal q = 1..n-1; rows[r][c] lies on diagonal
        # q = n - 1 - r + c.  Check, entry by entry in row-major order, the
        # inequality 1 + sum(diagonal q-1) >= sum(diagonal q) at this depth.
        sums = [0] * (n + 1)
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                q = n - 1 - r + c
                sums[q] += entry
            for c in range(len(row)):
                q = n - 1 - r + c
                if q >= 2 and not 1 + sums[q - 1] >= sums[q]:
                    raise PartialSumError(
                        f"boolean triangle: partial sums of diagonals {q - 1},{q} "
                        f"cross at depth {r + 1}",
                        j=n - q,
                        i_prime=r + 1,
                        row=r + 1,
                        col=c + 1,
                    )

    def diagonal(self, q):
        """Entries of diagonal ``q`` (1-based), top to bottom."""
        if not 1 <= q <= self.n - 1:
            raise IndexError(f"diagonal {q} out of range 1..{self.n - 1}")
        return tuple(self.rows[r][r - (self.n - 1 - q)] for r in range(self.n - 1 - q, self.n - 1))


@dataclass(frozen=True)
class NilpNest:
    """Nest of non-intersecting lattice paths.

    Path ``i`` (1-based, ``i = 1 .. n-1``) starts at ``(i, i)`` and takes
    exactly ``i`` steps, each ``"V"`` = (0,-1) or ``"D"`` = (1,-1), ending on
    the x-axis.  No two paths share a lattice point.
    """

    n: int
    paths: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        _check_order(self.n, "nest")
        try:
            paths = tuple(tuple(step for step in path) for path in self.paths)
        except TypeError:
            raise ShapeError("nest: expected a sequence of step sequences")
        object.__setattr__(self, "paths", paths)
        if len(paths) != self.n - 1:
            raise ShapeError(f"nest: expected {self.n - 1} paths, got {len(paths)}")
        for i, path in enumerate(paths, start=1):
            if len(path) != i:
                raise ShapeError(f"nest: path {i} has {len(path)} steps, expected {i}")
            for step in path:
                if step not in ("V", "D"):
                    raise EntryError(f"nest: path {i} has step {step!r}, expected 'V'/'D'")
        seen = {}
        for i, path in enumerate(paths, start=1):
            for point in self.points(i):
                if point in seen:
                    raise IntersectionError(
                        f"nest: paths {seen[point]} and {i} share the point {point}"
                    )
                seen[point] = i

    def points(self, i):
        """Lattice points visited by path ``i``, start and endpoint included."""
        x, y = i, i
        pts = [(x, y)]
        for step in self.paths[i - 1]:
            if step == "D":
                x += 1
            y -= 1
            pts.append((x, y))
        return tuple(pts)

    def endpoints(self):
        return tuple(self.points(i)[-1] for i in range(1, self.n))


@dataclass(frozen=True)
class Asm:
    """Alternating sign matrix: entries in {-1,0,1}, every row and column sums
    to one, and the nonzero entries of each row and column alternate in sign.
    Equivalently every row and column prefix sum lies in {0, 1}.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_order(self.n, "asm")
        rows = _as_rows(self.rows, "asm")
        object.__setattr__(self, "rows", rows)
        n = self.n
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ShapeError(f"asm: expected a {n}x{n} matrix")
        col = [0] * n
        for r, row in enumerate(rows):
            acc = 0
            for c, entry in enumerate(row):
                if entry not in (-1, 0, 1):
                    raise EntryError(
                        f"asm: entry {entry} at ({r + 1},{c + 1}) not in -1/0/1",
                        row=r + 1,
                        col=c + 1,
                    )
                acc += entry
                col[c] += entry
                if acc not in (0, 1):
                    raise AlternationError(
                        f"asm: row {r + 1} prefix sum {acc} at column {c + 1}",
                        row=r + 1,
                        col=c + 1,
                    )
                if col[c] not in (0, 1):
                    raise AlternationError(
                        f"asm: column {c + 1} prefix sum {col[c]} at row {r + 1}",
                        row=r + 1,
                        col=c + 1,
                    )
            if acc != 1:
                raise RowSumError(f"asm: row {r + 1} sums to {acc}, expected 1", row=r + 1)
        for c in range(n):
            if col[c] != 1:
                raise ColumnSumError(f"asm: column {c + 1} sums to {col[c]}, expected 1", col=c + 1)


@dataclass(frozen=True)
class Permutation:
    """A permutation of 1..n in one-line notation."""

    n: int
    sigma: tuple[int, ...]

    def __post_init__(self):
        _check_order(self.n, "permutation")
        try:
            sigma = tuple(self.sigma)
        except TypeError:
            raise ShapeError("permutation: expected a sequence of values")
        for i, v in enumerate(sigma, start=1):
            if not _is_int(v):
                raise EntryError(f"permutation: value at position {i} is not an integer", col=i)
        sigma = tuple(int(v) for v in sigma)
        object.__setattr__(self, "sigma", sigma)
        if len(sigma) != self.n or sorted(sigma) != list(range(1, self.n + 1)):
            raise ValidationError(f"permutation: {sigma} is not a bijection on 1..{self.n}")

    def __call__(self, i):
        return self.sigma[i - 1]

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.sigma, start=1):
            inv[v - 1] = i
        return Permutation(self.n, tuple(inv))

    def one_line(self):
        """One-line string: bare digits up to n = 9, comma-separated beyond."""
        if self.n <= 9:
            return "".join(str(v) for v in self.sigma)
        return ",".join(str(v) for v in self.sigma)

    @classmethod
    def from_one_line(cls, text):
        text = text.strip()
        parts = text.split(",") if "," in text else text
        try:
            values = tuple(int(part) for part in parts)
        except ValueError:
            raise EntryError(f"permutation: {text!r} is not one-line notation") from None
        return cls(len(values), values)


@dataclass(frozen=True)
class PlanePartition:
    """A plane partition completed to a square array with zeros.

    For TSSCPP use the side is ``2n`` and entries are at most ``2n``; the
    derived lattice-point set is {(i,j,k) : 1 <= k <= rows[i-1][j-1]}.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_order(self.n, "plane partition")
        rows = _as_rows(self.rows, "plane partition")
        object.__setattr__(self, "rows", rows)
        side = 2 * self.n
        if len(rows) != side or any(len(row) != side for row in rows):
            raise ShapeError(f"plane partition: expected a {side}x{side} array")
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                if not 0 <= entry <= side:
                    raise EntryError(
                        f"plane partition: entry {entry} at ({r + 1},{c + 1}) outside 0..{side}",
                        row=r + 1,
                        col=c + 1,
                    )
                if c + 1 < side and row[c + 1] > entry:
                    raise MonotonicityError(
                        f"plane partition: row {r + 1} increases at column {c + 2}",
                        row=r + 1,
                        col=c + 2,
                    )
                if r + 1 < side and rows[r + 1][c] > entry:
                    raise MonotonicityError(
                        f"plane partition: column {c + 1} increases at row {r + 2}",
                        row=r + 2,
                        col=c + 1,
                    )

    @property
    def side(self):
        return 2 * self.n

    def cube(self):
        """Membership grid M[i,j,k] (0-based) of the lattice-point set."""
        side = self.side
        t = np.array(self.rows, dtype=np.int64)
        k = np.arange(1, side + 1)
        return k[None, None, :] <= t[:, :, None]


@dataclass(frozen=True)
class FundamentalDomain:
    """Triangular corner of a TSSCPP array: entries t[i][j] for
    n+1 <= i <= j <= 2n, stored as rows[i'][c] = t[n+1+i'][n+1+i'+c]
    (0-based ``i'``).  Construction checks weak decrease and nonnegativity;
    full consistency is certified by :func:`expand_fundamental`
    (:func:`domains_to_tsscpps` on entry arrays).
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_order(self.n, "fundamental domain")
        rows = _as_rows(self.rows, "fundamental domain")
        object.__setattr__(self, "rows", rows)
        n = self.n
        if len(rows) != n or any(len(row) != n - i for i, row in enumerate(rows)):
            raise ShapeError(f"fundamental domain: expected rows of lengths {n}..1")
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                if entry < 0:
                    raise EntryError(
                        f"fundamental domain: negative entry at ({r + 1},{c + 1})",
                        row=r + 1,
                        col=c + 1,
                    )
                if c + 1 < len(row) and row[c + 1] > entry:
                    raise MonotonicityError(
                        f"fundamental domain: row {r + 1} increases at position {c + 2}",
                        row=r + 1,
                        col=c + 2,
                    )
                # Same absolute column in the next row sits one slot left.
                if r + 1 < n and c >= 1 and rows[r + 1][c - 1] > entry:
                    raise MonotonicityError(
                        f"fundamental domain: column under ({r + 1},{c + 1}) increases",
                        row=r + 2,
                        col=c,
                    )


@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    cyclically_symmetric: bool
    self_complementary: bool

    @property
    def all_true(self):
        return self.symmetric and self.cyclically_symmetric and self.self_complementary


# -- batch validation --------------------------------------------------------
#
# A batch is an int array with one row per object: its entries flattened in
# row-major order.  Each ``_..._ok(a, n)`` below makes every check of one
# family's constructor on all rows at once.


@lru_cache(maxsize=None)
def _triangle_cells(rows):
    """Row and column of each entry of a dense triangle, row-major."""
    r = np.repeat(np.arange(rows), np.arange(1, rows + 1))
    return r, np.arange(len(r)) - r * (r + 1) // 2


@lru_cache(maxsize=None)
def _triangle_neighbours(n):
    """Flat positions with a right neighbour, positions with a row below,
    and the below-left neighbours of the latter."""
    r, c = _triangle_cells(n)
    p = np.arange(len(r))
    above = p[r < n - 1]
    return p[c < r], above, above + r[above] + 1


def _interlacing_ok(a, n, magog):
    right, above, below_left = _triangle_neighbours(n)
    entry, left, right_below = a[:, above], a[:, below_left], a[:, below_left + 1]
    return bool(
        ((a >= 1) & (a <= n)).all()
        and (a[:, a.shape[1] - n :] == np.arange(1, n + 1)).all()
        and (a[:, right] < a[:, right + 1]).all()
        and (left <= entry).all()
        and ((right_below <= entry + 1) if magog else (entry <= right_below)).all()
    )


def _boolean_ok(a, n):
    """0/1 entries and the diagonal partial sums: with ``sums[r, q]`` the sum
    of diagonal q over rows 1..r+1, ``sums[r, q] <= 1 + sums[r, q - 1]`` for
    q >= 2 (trivially so above the top of diagonal q, where it is zero)."""
    if not ((a == 0) | (a == 1)).all():
        return False
    r, c = _triangle_cells(n - 1)
    sums = np.zeros((len(a), n - 1, n), dtype=a.dtype)
    sums[:, r, n - 1 - r + c] = a
    sums = sums.cumsum(axis=1, dtype=a.dtype)
    return bool((sums[:, :, 2:] <= sums[:, :, 1:-1] + 1).all())


def _asm_ok(a, n):
    """Entries -1/0/1, row and column prefix sums 0/1, line sums 1."""
    if not ((a >= -1) & (a <= 1)).all():
        return False
    a = a.reshape(len(a), n, n)
    rows, cols = a.cumsum(axis=2, dtype=a.dtype), a.cumsum(axis=1, dtype=a.dtype)
    return bool(
        ((rows == 0) | (rows == 1)).all()
        and ((cols == 0) | (cols == 1)).all()
        and (rows[:, :, -1] == 1).all()
        and (cols[:, -1, :] == 1).all()
    )


def _permutation_ok(a, n):
    return bool((np.sort(a, axis=1) == np.arange(1, n + 1)).all())


@lru_cache(maxsize=None)
def _nest_steps(n):
    """For each step of a nest, row-major over the paths: its path i, where
    the path's steps start, and the y-coordinate after the step."""
    r, c = _triangle_cells(n - 1)
    return r + 1, r * (r + 1) // 2, r - c


def _nest_ok(a, n):
    """``a`` is 1 for a "D" step and 0 for a "V" step.  Every lattice point
    of a nest gets the code x * n + y; no code may repeat."""
    if not ((a == 0) | (a == 1)).all():
        return False
    path, start, y = _nest_steps(n)
    moved = np.zeros((len(a), a.shape[1] + 1), dtype=np.int64)
    np.cumsum(a, axis=1, out=moved[:, 1:])
    x = path + moved[:, 1:] - moved[:, start]
    starts = np.arange(1, n) * (n + 1)
    codes = np.concatenate((np.broadcast_to(starts, (len(a), n - 1)), x * n + y), axis=1)
    codes.sort(axis=1)
    return bool((codes[:, 1:] != codes[:, :-1]).all())


def _plane_partition_ok(a, n):
    side = 2 * n
    a = a.reshape(len(a), side, side)
    return bool(
        ((a >= 0) & (a <= side)).all()
        and (a[:, :, 1:] <= a[:, :, :-1]).all()
        and (a[:, 1:, :] <= a[:, :-1, :]).all()
    )


@lru_cache(maxsize=None)
def _domain_cells(n):
    """Row and column of each entry of a fundamental domain, row-major (row i
    has n - i entries)."""
    i = np.repeat(np.arange(n), np.arange(n, 0, -1))
    return i, np.arange(len(i)) - i * (2 * n + 1 - i) // 2


def _domain_ok(a, n):
    """Nonnegative entries, and no entry below the next one in its row or
    the one under it, (i + 1, c - 1), n - i - 1 entries further on."""
    i, c = _domain_cells(n)
    p = np.arange(len(i))
    right, under = p[c < n - 1 - i], p[c >= 1]
    below = under + n - 1 - i[under]
    return bool((a >= 0).all() and (a[:, right + 1] <= a[:, right]).all() and (a[:, below] <= a[:, under]).all())


# class -> (row lengths at order n, or None for a flat value of n entries;
# entry type; array check).  Every value is a tuple, and so is every row.
_BATCH = {
    MonotoneTriangle: (lambda n: range(1, n + 1), int, partial(_interlacing_ok, magog=False)),
    MagogTriangle: (lambda n: range(1, n + 1), int, partial(_interlacing_ok, magog=True)),
    BooleanTriangle: (lambda n: range(1, n), int, _boolean_ok),
    Asm: (lambda n: [n] * n, int, _asm_ok),
    Permutation: (None, int, _permutation_ok),
    NilpNest: (lambda n: range(1, n), str, _nest_ok),
    PlanePartition: (lambda n: [2 * n] * (2 * n), int, _plane_partition_ok),
    FundamentalDomain: (lambda n: range(n, 0, -1), int, _domain_ok),
}


# A nest step in an entry array: 1 is a "D" step, 0 a "V" step.
_STEP = {0: "V", 1: "D"}
_STEP_TEXT = ('"V"', '"D"')


def _width(row_lengths, n):
    return n if row_lengths is None else sum(row_lengths(n))


def _flat_entries(chunk, n, row_lengths):
    """Entries of the chunk, row-major, or None when its shape is off."""
    if not set(map(type, chunk)) <= {tuple}:
        return None
    if row_lengths is None:
        if set(map(len, chunk)) - {n}:
            return None
        return list(chain.from_iterable(chunk))
    lengths = list(row_lengths(n))
    if set(map(len, chunk)) - {len(lengths)}:
        return None
    rows = list(chain.from_iterable(chunk))
    if not set(map(type, rows)) <= {tuple} or list(map(len, rows)) != lengths * len(chunk):
        return None
    return list(chain.from_iterable(rows))


def _tuple_entries(chunk, n, row_lengths, entry_type):
    """The entries of a chunk of tuples as an int64 array, or None."""
    entries = _flat_entries(chunk, n, row_lengths)
    if entries is None or not set(map(type, entries)) <= {entry_type}:
        return None
    if entry_type is str:
        if not set(entries) <= {"V", "D"}:
            return None
        entries = list(map("D".__eq__, entries))
    try:
        a = np.array(entries, dtype=np.int64)
    except OverflowError:
        return None
    return a.reshape(len(chunk), len(entries) // len(chunk) if chunk else 0)


def _array_values(cls, n, a):
    """The values of an entry array, one row per value, as nested tuples:
    tuples of row tuples (``Permutation``: flat tuples) of Python scalars.
    Equal rows within the chunk are one tuple object.  An array that is not
    one row of the value's width per value raises ShapeError."""
    row_lengths = _BATCH[cls][0]
    width = _width(row_lengths, n)
    if a.shape[1:] != (width,):
        raise ShapeError(f"{cls.__name__}: expected values of {width} entries, got shape {a.shape}")
    if row_lengths is None:
        return list(map(tuple, a.tolist()))
    bounds = np.cumsum([0, *row_lengths(n)])
    columns = []
    for start, stop in zip(bounds, bounds[1:]):
        rows = list(map(tuple, a[:, start:stop].tolist()))
        shared = dict(zip(rows, rows))
        if cls is NilpNest:  # steps "V"/"D"; other entries are the constructor's to refuse
            shared = {row: tuple(_STEP.get(e, e) for e in row) for row in shared}
        columns.append(list(map(shared.__getitem__, rows)))
    # A value with no rows (a boolean triangle of order 1) is ().
    return list(zip(*columns)) or [()] * len(a)


def validate_batch(cls, n, chunk):
    """Check a chunk of raw values for ``cls`` of order ``n`` all at once.

    ``chunk`` is a list of values for the constructor's second argument, in
    the form the constructor takes them: tuples of ``int`` tuples
    (``Permutation``: ``int`` tuples; ``NilpNest``: tuples of ``"V"``/``"D"``
    tuples), or an integer array with one row per value holding its entries
    row-major (``NilpNest``: 1 for a "D" step, 0 for a "V" step).  Returns
    the entries as an int64 array, one row per value, when every value
    passes every check ``cls(n, value)`` makes; otherwise None, and the
    constructor must decide.  Other forms the constructor accepts, such as
    lists or numpy integers in tuples, are refused here too, and so are
    arrays of another dtype or width.
    """
    row_lengths, entry_type, ok = _BATCH[cls]
    if n < 1:
        return None
    if not isinstance(chunk, np.ndarray):
        a = _tuple_entries(chunk, n, row_lengths, entry_type)
    elif (
        chunk.dtype.kind in "iu"
        and np.can_cast(chunk.dtype, np.int64)
        and chunk.shape[1:] == (_width(row_lengths, n),)
    ):
        a = chunk.astype(np.int64)
    else:
        a = None
    return a if a is not None and ok(a, n) else None


def build_batch(cls, n, chunk):
    """``[cls(n, value) for value in chunk]``, without checking each object
    again when :func:`validate_batch` passes the whole chunk.  Otherwise the
    constructor runs on every value and raises the first violation.  The
    values of an array chunk are given to ``cls`` as nested tuples."""
    valid = validate_batch(cls, n, chunk) is not None
    if isinstance(chunk, np.ndarray):
        chunk = _array_values(cls, n, chunk)
    if not valid:
        return [cls(n, value) for value in chunk]
    name = fields(cls)[1].name
    new = object.__new__
    objects = []
    for value in chunk:
        obj = new(cls)
        attributes = obj.__dict__
        attributes["n"] = n
        attributes[name] = value
        objects.append(obj)
    return objects


def _row_texts(cls, block):
    """The JSON array of each row of ``block`` (one slice of an entry array,
    all rows of the same length), as a list of strings.  Each distinct row is
    formatted once: rows are keyed by the bytes of a contiguous narrow copy,
    which is exact for any entries."""
    fits = ((block >= -128) & (block <= 127)).all()
    narrow = np.ascontiguousarray(block, dtype=np.int8 if fits else np.int64)
    keys = narrow.view(np.dtype((np.void, narrow.itemsize * narrow.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    word = _STEP_TEXT.__getitem__ if cls is NilpNest else str
    return ["[" + ",".join(map(word, row)) + "]" for row in block[first].tolist()], inverse


def format_batch(cls, n, a):
    """``"".join(to_json(obj) + "\\n" for obj in build_batch(cls, n, a))`` for
    an entry array ``a`` that :func:`validate_batch` passes (``NilpNest``: 1
    for a "D" step, 0 for a "V" step), built from the entries alone: no
    object, no dict and no ``json.dumps``."""
    kind, field = SCHEMA[cls]
    row_lengths = _BATCH[cls][0]
    head = f'{{"kind":"{kind}","n":{n},"{field}":'
    if row_lengths is None:  # a flat value: one row, no outer brackets
        bounds, head, tail = [0, n], head, "}\n"
    else:
        bounds, head, tail = np.cumsum([0, *row_lengths(n)]), head + "[", "]}\n"
    if len(bounds) == 1:  # no rows (a boolean triangle of order 1)
        return (head + tail) * len(a)
    columns = []
    last = len(bounds) - 2
    for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        texts, inverse = _row_texts(cls, a[:, start:stop])
        texts = [(head if i == 0 else "") + text + (tail if i == last else ",") for text in texts]
        columns.append(map(texts.__getitem__, inverse.tolist()))
    return "".join(chain.from_iterable(zip(*columns)))


def validate_monotone(raw):
    rows = _as_rows(raw, "monotone triangle")
    return MonotoneTriangle(len(rows), rows)


def validate_magog(raw):
    rows = _as_rows(raw, "magog triangle")
    return MagogTriangle(len(rows), rows)


def validate_boolean(raw, n=None):
    rows = _as_rows(raw, "boolean triangle")
    return BooleanTriangle(len(rows) + 1 if n is None else n, rows)


def validate_nilp(paths, n=None):
    paths = tuple(tuple(p) for p in paths)
    return NilpNest(len(paths) + 1 if n is None else n, paths)


def validate_asm(raw):
    rows = _as_rows(raw, "asm")
    return Asm(len(rows), rows)


def is_permutation_matrix(a: Asm):
    return all(entry >= 0 for row in a.rows for entry in row)


def validate_tsscpp(p: PlanePartition):
    """Report the three symmetry predicates of the lattice-point set."""
    m = p.cube()
    symmetric = bool((m == m.transpose(1, 0, 2)).all())
    cyclic = bool((m == m.transpose(2, 0, 1)).all())
    self_comp = bool((m == ~m[::-1, ::-1, ::-1]).all())
    return SymmetryReport(symmetric, cyclic, self_comp)


@lru_cache(maxsize=None)
def _closure_cells(n):
    """For every cell of the (2n)^3 cube, row-major: the flat index into the
    padded (2n+1)^2 domain array of the height that decides the cell, the
    threshold it is compared with, and whether the cell decides itself (its
    middle coordinate exceeds n) or through its complement cell.  Built on
    first use and shared by every domain of order n."""
    side = 2 * n
    idx = np.arange(1, side + 1)
    grid = np.stack(np.meshgrid(idx, idx, idx, indexing="ij")).reshape(3, -1)
    low, mid, high = np.sort(grid, axis=0)
    inside = mid >= n + 1
    flat = np.where(inside, mid * (side + 1) + high, (side + 1 - mid) * (side + 1) + side + 1 - low)
    threshold = np.where(inside, low, side + 1 - high).astype(np.int16)
    return flat, threshold, inside


def _closure(n, dom):
    """Membership cubes, shape (m, 2n, 2n, 2n), of the closures of the padded
    domain arrays ``dom`` of shape (m, 2n+1, 2n+1).

    The lattice-point set is closed under the six coordinate permutations and
    the complementation involution: a cell sorted to (a >= b >= c) lies in the
    set iff c <= t[b][a] when b > n, and otherwise iff its complement cell is
    absent.
    """
    side = 2 * n
    flat, threshold, inside = _closure_cells(n)
    member = (dom.reshape(len(dom), -1)[:, flat] >= threshold) == inside
    return member.reshape(len(dom), side, side, side)


def expand_domains(n, dom):
    """The TSSCPPs of a batch of fundamental domains, every closure checked.

    ``dom`` holds fundamental domains of order ``n`` as padded arrays of
    shape (m, 2n+1, 2n+1): ``dom[:, n+1+i, n+1+i+c]`` is entry ``(i, c)``
    (0-based) of a domain, every other entry is zero.  Returns the heights
    arrays, shape (m, 2n, 2n), of their TSSCPPs when every closure is column
    contiguous, a plane partition, totally symmetric and self-complementary,
    and reproduces its domain; otherwise None.
    """
    side = 2 * n
    m = _closure(n, dom)
    # Column contiguity: down the third axis every column is a run of
    # members followed by a run of non-members.
    if not (m[..., 1:] <= m[..., :-1]).all():
        return None
    heights = m.sum(axis=3, dtype=np.int16)
    if not _plane_partition_ok(heights.reshape(len(dom), -1), n):
        return None
    # The cube of a contiguous closure is the cube of its heights.
    if not (
        (m == m.transpose(0, 2, 1, 3)).all()
        and (m == m.transpose(0, 3, 1, 2)).all()
        and (m == ~m[:, ::-1, ::-1, ::-1]).all()
    ):
        return None
    corner = np.triu(np.ones((n, n), dtype=bool))
    if not (heights[:, n:, n:] == dom[:, n + 1 :, n + 1 :]).all(where=corner):
        return None
    return heights


def _inconsistent(n):
    return InconsistentDomain(f"fundamental domain: a domain of order {n} is the corner of no TSSCPP")


def _padded_domains(n, a):
    """The arrays :func:`expand_domains` takes, of domain entry arrays."""
    i, c = _domain_cells(n)
    dom = np.zeros((len(a), 2 * n + 1, 2 * n + 1), dtype=np.int64)
    dom[:, n + 1 + i, n + 1 + i + c] = a
    return dom


def domains_to_tsscpps(n, a):
    """The heights arrays, shape (m, 2n, 2n), of the TSSCPPs whose
    fundamental domains are the rows of a domain entry array; a row that is
    no TSSCPP's domain raises InconsistentDomain."""
    heights = expand_domains(n, _padded_domains(n, a))
    if heights is None:
        raise _inconsistent(n)
    return heights


def tsscpps_to_domains(n, a):
    """The corners t[i][j], n+1 <= i <= j <= 2n, of the plane partitions in
    the rows of an entry array, as domain entry arrays.  A plane partition
    is a TSSCPP iff its corner expands back to it; the first that is not
    raises NotTsscpp with its symmetry report."""
    i, c = _domain_cells(n)
    t = a.reshape(len(a), 2 * n, 2 * n)
    corners = t[:, n + i, n + i + c]
    heights = expand_domains(n, _padded_domains(n, corners))
    if heights is None or (heights != t).any():
        for rows in t.tolist():
            report = validate_tsscpp(PlanePartition(n, rows))
            if not report.all_true:
                raise NotTsscpp(f"array is not a TSSCPP: {report}")
    return corners


def entry_row(obj):
    """The entries of a valid object as a one-row int64 entry array; only a
    domain can hold entries beyond int64, and it is no TSSCPP's."""
    a = validate_batch(type(obj), obj.n, [getattr(obj, fields(obj)[1].name)])
    if a is None:
        raise _inconsistent(obj.n)
    return a


def fundamental_domain(p: PlanePartition):
    """The triangular corner t[i][j], n+1 <= i <= j <= 2n, of a TSSCPP."""
    return build_batch(FundamentalDomain, p.n, tsscpps_to_domains(p.n, entry_row(p)))[0]


def expand_fundamental(d: FundamentalDomain):
    """The unique TSSCPP with fundamental domain ``d``."""
    return build_batch(PlanePartition, d.n, domains_to_tsscpps(d.n, entry_row(d)).reshape(1, -1))[0]


# kind -> (class, the JSON field holding the constructor's second argument)
_KINDS = {
    "monotone_triangle": (MonotoneTriangle, "rows"),
    "magog_triangle": (MagogTriangle, "rows"),
    "boolean_triangle": (BooleanTriangle, "rows"),
    "asm": (Asm, "rows"),
    "permutation": (Permutation, "sigma"),
    "nilp_nest": (NilpNest, "paths"),
    "plane_partition": (PlanePartition, "rows"),
    "fundamental_domain": (FundamentalDomain, "rows"),
}
# class -> (kind, JSON field)
SCHEMA = {cls: (kind, field) for kind, (cls, field) in _KINDS.items()}


def to_json_dict(obj):
    """The JSON object of a value: its kind, its order and its ``SCHEMA``
    field; a permutation's ``sigma`` is flat, every other field is a list
    of rows."""
    kind, field = SCHEMA[type(obj)]
    value = getattr(obj, field)
    entries = list(value) if field == "sigma" else [list(row) for row in value]
    return {"kind": kind, "n": obj.n, field: entries}


def from_json_dict(data):
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ShapeError("object JSON must carry a 'kind' field")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ShapeError(f"unknown object kind {kind!r}")
    cls, field = _KINDS[kind]
    for name in ("n", field):
        if name not in data:
            raise ShapeError(f"{kind} JSON is missing the field {name!r}")
    return cls(data["n"], data[field])


def to_json(obj):
    return json.dumps(to_json_dict(obj), separators=(",", ":"))


def from_json(text):
    return from_json_dict(json.loads(text))
