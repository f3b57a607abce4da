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

All types are frozen dataclasses.  A family's defining inequalities are one
rule table per order (``_BATCH``).  :func:`validate_batch` asks whether any
value of a chunk breaks a rule, a constructor normalises its input and
raises the rule broken first in row-major scan order, :func:`build_batch`
builds a chunk that passes without checking each object again, and
:func:`format_batch` writes the JSON lines of such a chunk without building
any object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import chain
from types import SimpleNamespace

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
        _check(MonotoneTriangle, self.n, chain.from_iterable(rows))


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
        _check(MagogTriangle, self.n, chain.from_iterable(rows))


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
        _check(BooleanTriangle, self.n, chain.from_iterable(rows))

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
        _check(NilpNest, self.n, (int(step == "D") for step in chain.from_iterable(paths)))

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
        _check(Asm, n, chain.from_iterable(rows))


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
        if len(sigma) != self.n:
            raise ValidationError(f"permutation: {sigma} is not a bijection on 1..{self.n}")
        _check(Permutation, self.n, sigma)

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
        _check(PlanePartition, self.n, chain.from_iterable(rows))

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
        _check(FundamentalDomain, n, chain.from_iterable(rows))


@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    cyclically_symmetric: bool
    self_complementary: bool

    @property
    def all_true(self):
        return self.symmetric and self.cyclically_symmetric and self.self_complementary


# -- the rule tables ---------------------------------------------------------
#
# A batch is an int array with one row per value: its entries, row-major.  A
# family's defining inequalities at order n are one table, built once: each
# constraint holds when x[a] - x[b] <= bound on the nodes x of a value (its
# entries, the sums its family adds, then a zero, so that a constraint with
# the zero node bounds one node), sorted by the key (stage, row, column,
# check) of the constructor's scan, with its error class, message template
# and reported position.  ``violated`` tells whether values of a batch
# violate a constraint, and ``first`` gives the error of one value's violated
# constraint with the smallest key: what the constructor raises.
# Permutations (a sort) and nests (a repeated lattice-point code) have one
# vectorised predicate each, with the same two methods.

_ZERO = -1  # the zero node, the last of a value's nodes


def _rule(error, template, key, a, b=_ZERO, *, low=None, high=None, shown=(), **fields):
    """``low <= x[a] - x[b] <= high`` at every place of the arrays, as one
    rule per given side: the error, template and key, the constraint, the
    nodes whose values the template shows as {0}, {1}, ..., and its other
    fields, the reported ``row`` and ``col`` among them."""
    sides = ([] if high is None else [(a, b, high)]) + ([] if low is None else [(b, a, -np.asarray(low))])
    return [(error, template, key, i, j, bound, shown, fields) for i, j, bound in sides]


class _Table:
    """One family's rules at order n, sorted by key into the constraint
    arrays ``a``, ``b`` and ``bound``."""

    def __init__(self, what, n, nodes, derive, rules):
        self.what, self.n, self.derive, self._rules, columns = what, n, derive, [], []
        for error, template, key, a, b, bound, shown, fields in rules:
            a, b, bound, *rest = np.broadcast_arrays(a, b, bound, *key, *shown, *fields.values())
            self._rules.append((error, template, rest[4 : 4 + len(shown)], dict(zip(fields, rest[4 + len(shown) :]))))
            columns.append((a, b, bound, np.full(len(a), len(columns)), np.arange(len(a)), *rest[:4]))
        a, b, bound, rule, place, *key = map(np.concatenate, zip(*columns))
        order = np.lexsort(key[::-1])
        self.a, self.b, self.bound, self._rule, self._place = (v[order] for v in (a, b, bound, rule, place))
        # The batch check reads the bounds as one interval per node, then the
        # constraints between two nodes.
        upper, lower = self.b == _ZERO, self.a == _ZERO
        self._low, self._high = np.full(nodes, np.iinfo(np.int64).min), np.full(nodes, np.iinfo(np.int64).max)
        np.minimum.at(self._high, self.a[upper], self.bound[upper])
        np.maximum.at(self._low, self.b[lower], -self.bound[lower])
        self._pairs = self.a[~upper & ~lower], self.b[~upper & ~lower], self.bound[~upper & ~lower]

    def _nodes(self, a, width):
        """The nodes of the values in the rows of ``a``, ``width`` columns:
        the entries, the sums ``derive`` writes after them, then zeros;
        signed and at least 16 bits wide."""
        x = np.empty((len(a), width), dtype=np.promote_types(a.dtype, np.int16))
        x[:, : a.shape[1]], x[:, len(self._low) :] = a, 0
        self.derive(self.n, a, x[:, a.shape[1] : len(self._low)])
        return x

    def violated(self, a, axis=None):
        """Whether the values in the rows of an integer entry array violate a
        constraint: any of them, or each (``axis=1``).  A value within the
        bounds of its entries has sums and differences far from the limits
        of its nodes' dtype, so nothing computed for it overflows."""
        wide = np.promote_types(a.dtype, np.int16)
        x = a.astype(wide, copy=False) if self.derive is None else self._nodes(a, len(self._low))
        i, j, bound = self._pairs
        return ((x < self._low) | (x > self._high)).any(axis=axis) | (x[:, i] - x[:, j] > bound).any(axis=axis)

    def first(self, entries):
        """The error of the first constraint, by key, that one value's
        entries violate, or None.  Entries beyond 2**31 are compared as
        Python integers, so the answer is exact for entries of any size."""
        dtype = object if entries and not -(2**31) < min(entries) <= max(entries) < 2**31 else np.int64
        if self.derive is None:
            x = np.array(entries + [0], dtype=dtype)
        else:
            x = self._nodes(np.array([entries], dtype=dtype), len(self._low) + 1)[0]
        violated = np.flatnonzero(x[self.a] - x[self.b] > self.bound)
        if not len(violated):
            return None
        error, template, shown, fields = self._rules[self._rule[violated[0]]]
        place = self._place[violated[0]]
        fields = {name: int(field[place]) for name, field in fields.items()}
        message = template.format(*(x[node[place]] for node in shown), what=self.what, n=self.n, **fields)
        return error(message, **{name: fields[name] for name in ("row", "col", "j", "i_prime") if name in fields})


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


@lru_cache(maxsize=None)
def _domain_cells(n):
    """Row and column of each entry of a fundamental domain, row-major (row i
    has n - i entries)."""
    i = np.repeat(np.arange(n), np.arange(n, 0, -1))
    return i, np.arange(len(i)) - i * (2 * n + 1 - i) // 2


def _at(r, c, check, stage=0, down=0, across=0):
    """The key of a rule checked at the 0-based cells (r, c), and the
    1-based position it reports, ``down`` rows and ``across`` columns on."""
    return dict(key=(stage, r, c, check), row=r + 1 + down, col=c + 1 + across)


@lru_cache(maxsize=None)
def _interlacing_table(magog, n):
    """The bottom row 1..n; then entry by entry, row-major: in 1..n, below
    the next entry of its row, and the diagonal conditions with the entries
    below-left (``left``) and below-right of it."""
    r, c = _triangle_cells(n)
    p = np.arange(len(r))
    bottom, (right, above, left) = p[r == n - 1], _triangle_neighbours(n)
    entry, under = "{what}: entry {0} at ({row},{col})", _at(r[above], c[above], 2, stage=1)
    if magog:
        diagonals = [
            *_rule(InterlaceError, entry + " smaller than {1} below-left", a=left, b=above, high=0,
                   shown=(above, left), **under),
            *_rule(InterlaceError, entry + " more than one below {1} below-right", a=left + 1, b=above, high=1,
                   shown=(above, left + 1), **_at(r[above], c[above], 3, stage=1)),
        ]
    else:
        between, shown = entry + " does not interlace {1}, {2} below", (above, left, left + 1)
        diagonals = [
            *_rule(InterlaceError, between, a=above, b=left, low=0, shown=shown, **under),
            *_rule(InterlaceError, between, a=left + 1, b=above, low=0, shown=shown, **under),
        ]
    return _Table("magog triangle" if magog else "monotone triangle", n, len(p), None, [
        *_rule(BottomRowError, "{what}: bottom row must be 1..{n}", (0, 0, 0, 0), bottom,
               low=c[bottom] + 1, high=c[bottom] + 1, row=n),
        *_rule(EntryError, entry + " outside 1..{n}", a=p, low=1, high=n, shown=(p,), **_at(r, c, 0, stage=1)),
        *_rule(RowStrictError, "{what}: row {row} not strictly increasing at position {col}", a=right, b=right + 1,
               high=-1, **_at(r[right], c[right], 1, stage=1)),
        *diagonals,
    ])


def _diagonal_sums(n, a, out):
    """Write the sum of each diagonal q of boolean triangles down to each
    row r, row-major over (r, q)."""
    r, c = _triangle_cells(n - 1)
    sums = np.zeros((len(a), n - 1, n), dtype=a.dtype)
    sums[:, r, n - 1 - r + c] = a
    np.cumsum(sums, axis=1, out=out.reshape(len(a), n - 1, n))


@lru_cache(maxsize=None)
def _boolean_table(n):
    """Every entry 0/1 first; then row by row, entry by entry, the partial
    sums: S[r, q] <= 1 + S[r, q - 1] for diagonal q >= 2 of the entry."""
    r, c = _triangle_cells(n - 1)
    p, q = np.arange(len(r)), n - 1 - r + c
    s = p[q >= 2]
    sums = len(p) + r[s] * n + q[s]  # the node of S[r, q]
    return _Table("boolean triangle", n, len(p) + (n - 1) * n, _diagonal_sums, [
        *_rule(EntryError, "{what}: entry {0} at ({row},{col}) not 0/1", a=p, low=0, high=1, shown=(p,),
               **_at(r, c, 0)),
        *_rule(PartialSumError, "{what}: partial sums of diagonals {left},{right} cross at depth {row}", a=sums,
               b=sums - 1, high=1, left=q[s] - 1, right=q[s], j=n - q[s], i_prime=r[s] + 1,
               **_at(r[s], c[s], 0, stage=1)),
    ])


def _prefix_sums(n, a, out):
    """Write the prefix sums of ASMs along each row, then down each column,
    row-major."""
    m = a.reshape(len(a), n, n)
    np.cumsum(m, axis=2, out=out[:, : n * n].reshape(len(a), n, n))
    np.cumsum(m, axis=1, out=out[:, n * n :].reshape(len(a), n, n))


@lru_cache(maxsize=None)
def _asm_table(n):
    """Entry by entry, row-major: -1/0/1, then the prefix sums along its row
    and down its column 0/1; each row sums to 1 after its last entry, and
    each column after the last row."""
    p, line = np.arange(n * n), np.arange(n)
    r, c = p // n, p % n
    rows, cols = n * n + p, 2 * n * n + p  # the nodes of the prefix sums
    last_row, last_col = rows[c == n - 1], cols[r == n - 1]
    return _Table("asm", n, 3 * n * n, _prefix_sums, [
        *_rule(EntryError, "{what}: entry {0} at ({row},{col}) not in -1/0/1", a=p, low=-1, high=1, shown=(p,),
               **_at(r, c, 0)),
        *_rule(AlternationError, "{what}: row {row} prefix sum {0} at column {col}", a=rows, low=0, high=1,
               shown=(rows,), **_at(r, c, 1)),
        *_rule(AlternationError, "{what}: column {col} prefix sum {0} at row {row}", a=cols, low=0, high=1,
               shown=(cols,), **_at(r, c, 2)),
        *_rule(RowSumError, "{what}: row {row} sums to {0}, expected 1", (0, line, n, 0), last_row, low=1, high=1,
               shown=(last_row,), row=line + 1),
        *_rule(ColumnSumError, "{what}: column {col} sums to {0}, expected 1", (1, 0, line, 0), last_col, low=1,
               high=1, shown=(last_col,), col=line + 1),
    ])


@lru_cache(maxsize=None)
def _plane_partition_table(n):
    """Entry by entry, row-major: in 0..2n, and no smaller than the entries
    right of it and under it."""
    side, p = 2 * n, np.arange(4 * n * n)
    r, c = p // side, p % side
    right, down = p[c < side - 1], p[r < side - 1]
    return _Table("plane partition", n, side * side, None, [
        *_rule(EntryError, "{what}: entry {0} at ({row},{col}) outside 0..{side}", a=p, low=0, high=side, shown=(p,),
               side=side, **_at(r, c, 0)),
        *_rule(MonotonicityError, "{what}: row {row} increases at column {col}", a=right + 1, b=right, high=0,
               **_at(r[right], c[right], 1, across=1)),
        *_rule(MonotonicityError, "{what}: column {col} increases at row {row}", a=down + side, b=down, high=0,
               **_at(r[down], c[down], 2, down=1)),
    ])


@lru_cache(maxsize=None)
def _domain_table(n):
    """Entry by entry, row-major: nonnegative, and no smaller than the next
    entry of its row or the one under it, (i + 1, c - 1), n - i - 1 entries
    further on."""
    i, c = _domain_cells(n)
    p = np.arange(len(i))
    right, under = p[c < n - 1 - i], p[c >= 1]
    return _Table("fundamental domain", n, len(p), None, [
        *_rule(EntryError, "{what}: negative entry at ({row},{col})", a=p, low=0, **_at(i, c, 0)),
        *_rule(MonotonicityError, "{what}: row {row} increases at position {col}", a=right + 1, b=right, high=0,
               **_at(i[right], c[right], 1, across=1)),
        *_rule(MonotonicityError, "{what}: column under ({i},{c}) increases", a=under + n - 1 - i[under], b=under,
               high=0, i=i[under] + 1, c=c[under] + 1, **_at(i[under], c[under], 2, down=1, across=-1)),
    ])


@lru_cache(maxsize=None)
def _permutation_table(n):
    """A permutation's one check: sorted, its values are 1..n."""
    values = np.arange(1, n + 1)

    def violated(a, axis=None):
        return (np.sort(a, axis=1) != values).any(axis=axis)

    def first(entries):
        bad = not -(2**31) < min(entries) <= max(entries) < 2**31 or violated(np.array([entries]))
        return ValidationError(f"permutation: {tuple(entries)} is not a bijection on 1..{n}") if bad else None

    return SimpleNamespace(violated=violated, first=first)


@lru_cache(maxsize=None)
def _nest_points(n):
    """Each lattice point of a nest in visiting order, path i from (i, i)
    then after each of its i steps: its path, its code x * n + y if every
    step were "V", and the number of entries before its step and before its
    path's first step."""
    points = np.arange(2, n + 1)
    path = np.repeat(np.arange(1, n), points)
    steps = np.arange(len(path)) - np.repeat(np.cumsum(points) - points, points)
    start = path * (path - 1) // 2
    return path, path * n + path - steps, start + steps, start


def _nest_codes(n, a):
    """The code x * n + y of every lattice point of the nests in the rows
    of ``a`` (1 for a "D" step), in visiting order."""
    _, codes, after, start = _nest_points(n)
    moved = np.zeros((len(a), a.shape[1] + 1), dtype=np.int64)
    np.cumsum(a, axis=1, out=moved[:, 1:])
    return codes + n * (moved[:, after] - moved[:, start])


@lru_cache(maxsize=None)
def _nest_table(n):
    """A nest's one check: its entries are 0/1 and no two of its lattice
    points have the same code.  The first point whose code repeats is
    reported with the path that visited it first."""

    def violated(a, axis=None):
        codes = np.sort(_nest_codes(n, a), axis=1)
        return ((a < 0) | (a > 1)).any(axis=axis) | (codes[:, 1:] == codes[:, :-1]).any(axis=axis)

    def first(entries):
        codes = _nest_codes(n, np.array([entries]))[0]
        ordered = np.sort(codes)
        if not (ordered[1:] == ordered[:-1]).any():
            return None
        _, seen, inverse = np.unique(codes, return_index=True, return_inverse=True)
        k = (seen[inverse] != np.arange(len(codes))).argmax()
        path = _nest_points(n)[0]
        point = divmod(int(codes[k]), n)
        return IntersectionError(f"nest: paths {path[seen[inverse[k]]]} and {path[k]} share the point {point}")

    return SimpleNamespace(violated=violated, first=first)


# class -> (row lengths at order n, or None for a flat value of n entries;
# entry type; the rules at order n).  Every value is a tuple, and so is every
# row.
_BATCH = {
    MonotoneTriangle: (lambda n: range(1, n + 1), int, partial(_interlacing_table, False)),
    MagogTriangle: (lambda n: range(1, n + 1), int, partial(_interlacing_table, True)),
    BooleanTriangle: (lambda n: range(1, n), int, _boolean_table),
    Asm: (lambda n: [n] * n, int, _asm_table),
    Permutation: (None, int, _permutation_table),
    NilpNest: (lambda n: range(1, n), str, _nest_table),
    PlanePartition: (lambda n: [2 * n] * (2 * n), int, _plane_partition_table),
    FundamentalDomain: (lambda n: range(n, 0, -1), int, _domain_table),
}


def _check(cls, n, entries):
    """Raise what the first violated rule of ``cls`` at order ``n`` reports
    on one value's entries, row-major (nests: 1 for a "D" step)."""
    error = _BATCH[cls][2](n).first(list(entries))
    if error is not None:
        raise error


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


def _entry_array(cls, n, chunk):
    """The entries of a chunk in a form :func:`validate_batch` takes, as an
    integer array (an array chunk itself), or None."""
    row_lengths, entry_type, _ = _BATCH[cls]
    if n < 1:
        return None
    if isinstance(chunk, np.ndarray):
        fits = chunk.dtype.kind in "iu" and np.can_cast(chunk.dtype, np.int64)
        return chunk if fits and chunk.shape[1:] == (_width(row_lengths, n),) else None
    entries = _flat_entries(chunk, n, row_lengths)
    if entries is None or not set(map(type, entries)) <= {entry_type}:
        return None
    if entry_type is str:
        if not set(entries) <= {"V", "D"}:
            return None
        entries = list(map("D".__eq__, entries))
    try:
        return np.array(entries, dtype=np.int64).reshape(len(chunk), len(entries) // len(chunk) if chunk else 0)
    except OverflowError:
        return None


def validate_batch(cls, n, chunk):
    """Check a chunk of raw values for ``cls`` of order ``n`` all at once.

    ``chunk`` is a list of values for the constructor's second argument, in
    the form the constructor takes them: tuples of ``int`` tuples
    (``Permutation``: ``int`` tuples; ``NilpNest``: tuples of ``"V"``/``"D"``
    tuples), or an integer array with one row per value holding its entries
    row-major (``NilpNest``: 1 for a "D" step, 0 for a "V" step).  Returns
    the entries as an int64 array, one row per value, when no value breaks
    a rule of the family's table; otherwise None, and the constructor must
    decide.  Other forms the constructor accepts, such as lists or numpy
    integers in tuples, are refused too, and so are arrays of another dtype
    or width.
    """
    a = _entry_array(cls, n, chunk)
    return a.astype(np.int64) if a is not None and not _BATCH[cls][2](n).violated(a) else None


def build_batch(cls, n, chunk):
    """``[cls(n, value) for value in chunk]``.  A chunk in a form
    :func:`validate_batch` takes is checked at once: if every value passes,
    the objects are built without checking each one again; otherwise the
    first bad value goes to the constructor, which raises its first
    violation.  Values in another form go through the constructor, which
    normalises them.  The values of an array chunk are given to ``cls`` as
    nested tuples."""
    a = _entry_array(cls, n, chunk)
    if isinstance(chunk, np.ndarray):
        chunk = _array_values(cls, n, chunk)
    if a is None:
        return [cls(n, value) for value in chunk]
    if _BATCH[cls][2](n).violated(a):
        cls(n, chunk[_BATCH[cls][2](n).violated(a, axis=1).argmax()])
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
    idx = np.arange(1, side + 1, dtype=np.int16)
    low, mid, high = np.sort(np.stack(np.meshgrid(idx, idx, idx, indexing="ij")).reshape(3, -1), axis=0)
    inside = mid >= n + 1
    threshold = np.where(inside, low, side + 1 - high)
    flat = np.where(inside, mid, side + 1 - mid) * np.int64(side + 1) + np.where(inside, high, side + 1 - low)
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
    if _plane_partition_table(n).violated(heights.reshape(len(dom), -1)):
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
