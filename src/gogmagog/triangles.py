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

Values are immutable and hashable, and equal only to values of their own
class.  Each family is one row of one table (``_FAMILIES``): its name in
messages, JSON kind and field, row lengths, entry type, shape messages, and
its defining inequalities as one rule table per order.  The one shared
constructor (:class:`_Value`) reads that row for its field, normalises
its input and raises the defect found first: shape and entry defects, then
the rule broken first in row-major scan order.  On entry arrays (one row
per value), :func:`validate_batch` asks whether any value breaks a rule,
:func:`build_batch` builds values that pass without checking each object
again, and :func:`format_batch` writes their JSON lines without building
any object.
"""

from __future__ import annotations

import json
from functools import lru_cache, partial
from itertools import chain
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
    "SCHEMA",
    "KIND_CLASSES",
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


class _Value:
    """A value of one family: its order ``n`` and the value itself, held
    under the field name of its class's row of ``_FAMILIES`` as tuples, its
    integer entries as ``int``.  Values are immutable and hashable, and two
    are equal when they are of one class with equal fields.

    The constructor checks, in this order: the order, that the value is a
    sequence (of rows), the type of every entry, the row count, each row's
    length, then the rules (:func:`_check`)."""

    def __init_subclass__(cls):
        # Each class holds the constructor itself, so that perfbench's trace
        # times the constructor of each class on its own.
        cls.__init__ = _Value.__init__

    def __init__(self, n, value):
        family = _FAMILIES[type(self)]
        flat = family.count is None
        if not _is_int(n) or n < 1:
            raise ShapeError(f"{family.what}: order must be an integer >= 1, got {n!r}")
        try:
            rows = tuple(value) if flat else tuple(map(tuple, value))
        except TypeError:
            noun = "values" if flat else "rows" if family.entry is int else "step sequences"
            raise ShapeError(f"{family.what}: expected a sequence of {noun}") from None
        entries = list(rows) if flat else list(chain.from_iterable(rows))
        types = {*map(type, entries)}  # plain ints, or step letters: the fast path
        if not (types <= {int} if family.entry is int else types <= {str} and {*entries} <= {*family.entry}):
            rows, entries = _normalised(family, rows)
        vars(self).update({"n": n, family.field: rows})
        if not flat:
            _check_shape(type(self), n, rows)
        _check(type(self), n, entries if family.entry is int else list(map(family.entry.index, entries)))

    def _key(self):
        return self.n, getattr(self, _FAMILIES[type(self)].field)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        field = _FAMILIES[type(self)].field
        return f"{type(self).__qualname__}(n={self.n!r}, {field}={getattr(self, field)!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MonotoneTriangle(_Value):
    """Strictly increasing rows, bottom row 1..n, interlacing diagonals:

        rows[r+1][c] <= rows[r][c] <= rows[r+1][c+1]
    """


class MagogTriangle(_Value):
    """Strictly increasing rows, bottom row 1..n, diagonal conditions:

        rows[r+1][c] <= rows[r][c]      (below-left no larger)
        rows[r+1][c+1] <= rows[r][c] + 1  (below-right exceeds by at most one)
    """


class BooleanTriangle(_Value):
    """0/1 triangle of order n (n-1 rows) with the diagonal partial-sum
    condition: for every adjacent diagonal pair and every depth, the running
    sum down a diagonal may exceed the running sum down its left neighbour by
    at most one.  Equivalently, the diagonals read as lattice paths are
    non-intersecting.
    """

    def diagonal(self, q):
        """Entries of diagonal ``q`` (1-based), top to bottom."""
        if not 1 <= q <= self.n - 1:
            raise IndexError(f"diagonal {q} out of range 1..{self.n - 1}")
        return tuple(self.rows[r][r - (self.n - 1 - q)] for r in range(self.n - 1 - q, self.n - 1))


class NilpNest(_Value):
    """Nest of non-intersecting lattice paths.

    Path ``i`` (1-based, ``i = 1 .. n-1``) starts at ``(i, i)`` and takes
    exactly ``i`` steps, each ``"V"`` = (0,-1) or ``"D"`` = (1,-1), ending on
    the x-axis.  No two paths share a lattice point.
    """

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


class Asm(_Value):
    """Alternating sign matrix: entries in {-1,0,1}, every row and column sums
    to one, and the nonzero entries of each row and column alternate in sign.
    Equivalently every row and column prefix sum lies in {0, 1}.
    """


def _one_line_text(values):
    """One-line string of integers: bare digits up to 9 of them,
    comma-separated beyond."""
    return ("" if len(values) <= 9 else ",").join(map(str, values))


class Permutation(_Value):
    """A permutation of 1..n in one-line notation."""

    def __call__(self, i):
        return self.sigma[i - 1]

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.sigma, start=1):
            inv[v - 1] = i
        return Permutation(self.n, tuple(inv))

    def one_line(self):
        return _one_line_text(self.sigma)

    @classmethod
    def from_one_line(cls, text):
        text = text.strip()
        parts = text.split(",") if "," in text else text
        if not all(part.isascii() and part.strip().isdecimal() for part in parts):
            raise EntryError(f"permutation: {text!r} is not one-line notation")
        values = tuple(int(part) for part in parts)
        return cls(len(values), values)


class PlanePartition(_Value):
    """A plane partition completed to a square array with zeros.

    For TSSCPP use the side is ``2n`` and entries are at most ``2n``; the
    derived lattice-point set is {(i,j,k) : 1 <= k <= rows[i-1][j-1]}.
    """

    @property
    def side(self):
        return 2 * self.n

    def cube(self):
        """Membership grid M[i,j,k] (0-based) of the lattice-point set."""
        side = self.side
        t = np.array(self.rows, dtype=np.int64)
        k = np.arange(1, side + 1)
        return k[None, None, :] <= t[:, :, None]


class FundamentalDomain(_Value):
    """Triangular corner of a TSSCPP array: entries t[i][j] for
    n+1 <= i <= j <= 2n, stored as rows[i'][c] = t[n+1+i'][n+1+i'+c]
    (0-based ``i'``).  Construction checks weak decrease and nonnegativity;
    full consistency is certified by :func:`expand_fundamental`
    (:func:`domains_to_tsscpps` on entry arrays).
    """


class SymmetryReport(NamedTuple):
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
#
# Both read one layout, ``_nodes``: node-major, one row per node and one
# column per value, so that every node of a block of values is a contiguous
# slab.  A family's sums are running adds of whole slabs.  For a verdict on
# a whole block each slab is reduced to its minimum and maximum, and each
# constraint between two nodes, the difference of two gathered rows, to its
# largest value; for a verdict on each value a bound on one node is one
# unsigned compare per slab.  ``violated`` works on column blocks of at most
# ``_NODE_BYTES``.
# Every family but permutations is one table: a nest's sums are the columns
# of its paths, which neighbouring paths must keep apart as neighbouring
# diagonals of a boolean triangle keep their sums.  Permutations (a sort)
# have one vectorised predicate, with the same two methods.

_ZERO = -1  # the zero node, the last of a value's nodes

# The most bytes ``_Table.violated`` holds in the largest array of one block
# of values: its nodes, or its gathered constraint pairs.  Blocks this small
# reuse the allocator's memory, and a whole 2,048-row chunk of the searches
# fits in one: the 148 int8 nodes of an ASM of order 7 take 303 KB, and
# counting the 218,348 ASMs of order 7 took 23 ms with one block per chunk
# against 29 ms with two (in one process on a 2-CPU Xeon).
_NODE_BYTES = 1 << 19


def _rule(error, template, key, a, b=_ZERO, *, low=None, high=None, shown=(), **fields):
    """``low <= x[a] - x[b] <= high`` at every place of the arrays, as one
    rule per given side: the error, template and key, the constraint, the
    nodes whose values the template shows as {0}, {1}, ..., and its other
    fields, the reported ``row`` and ``col`` among them."""
    sides = ([] if high is None else [(a, b, high)]) + ([] if low is None else [(b, a, -np.asarray(low))])
    return [(error, template, key, i, j, bound, shown, fields) for i, j, bound in sides]


class _Table:
    """One family's rules at order n over ``nodes`` nodes (the zero node
    not counted), sorted by key into the constraint arrays ``a``, ``b`` and
    ``bound``; ``derive(n, x)`` writes the family's sums into the node rows
    after the entries of a node-major array ``x``."""

    def __init__(self, n, nodes, derive, rules):
        self.n, self.derive, self._rules, columns = n, derive, [], []
        for error, template, key, a, b, bound, shown, fields in rules:
            a, b, bound, *rest = np.broadcast_arrays(a, b, bound, *key, *shown, *fields.values())
            self._rules.append((error, template, rest[4 : 4 + len(shown)], dict(zip(fields, rest[4 + len(shown) :]))))
            columns.append((a, b, bound, np.full(len(a), len(columns)), np.arange(len(a)), *rest[:4]))
        a, b, bound, rule, place, *key = map(np.concatenate, zip(*columns))
        order = np.lexsort(key[::-1])
        self.a, self.b, self.bound, self._rule, self._place = (v[order] for v in (a, b, bound, rule, place))
        # The batch check reads the bounds as one interval per node, the
        # zero node's [0, 0] among them, then the constraints between two
        # nodes.
        upper, lower = self.b == _ZERO, self.a == _ZERO
        self._low, self._high = np.full(nodes + 1, np.iinfo(np.int64).min), np.full(nodes + 1, np.iinfo(np.int64).max)
        self._low[_ZERO] = self._high[_ZERO] = 0
        np.minimum.at(self._high, self.a[upper], self.bound[upper])
        np.maximum.at(self._low, self.b[lower], -self.bound[lower])
        self._pairs = self.a[~upper & ~lower], self.b[~upper & ~lower], self.bound[~upper & ~lower]
        # Nodes are signed and hold twice every bound and every node of a
        # value whose entries are within their bounds, so that clipping the
        # limits to their dtype changes only the unbounded sides, and two
        # such nodes differ by a number the dtype holds.  The sums ``derive``
        # writes are sums of entries and a constant, so they lie between
        # those of the entries' lower limits and of their upper limits.
        widest = max(map(abs, self.bound.tolist()), default=0)
        if derive is not None:  # every entry of a table with sums is bounded
            reach = np.stack([self._low, self._high], axis=1)
            derive(n, reach)
            widest = max(widest, int(np.abs(reach).max()))
        self._dtype = np.min_scalar_type(-2 * widest - 1)
        self._clipped = {}

    def _nodes(self, a):
        """The nodes of the values in the rows of ``a``, node-major: one row
        per node (the entries, the sums ``derive`` writes after them, then
        the zero) and one column per value, in the table's node dtype or the
        entries' own if wider.  The entries are widened here, one block of
        values at a time, and nowhere else on the batch path."""
        x = np.empty((len(self._low), len(a)), dtype=np.promote_types(a.dtype, self._dtype))
        x[: a.shape[1]], x[_ZERO] = a.T, 0
        if self.derive is not None:
            self.derive(self.n, x)
        return x

    def _limits(self, dtype):
        """The nodes' lower and upper limits, the width of each node's
        interval (unsigned) and the pair bounds, clipped to ``dtype``; made
        once per dtype."""
        if dtype not in self._clipped:
            limits = np.iinfo(dtype)
            low, high, bound = (np.clip(v, limits.min, limits.max).astype(dtype)
                                for v in (self._low, self._high, self._pairs[2]))
            self._clipped[dtype] = low, high, (high - low).view(f"u{dtype.itemsize}"), bound
        return self._clipped[dtype]

    def violated(self, a, axis=None):
        """Whether the values in the rows of an integer entry array violate a
        constraint: any of them, or each (``axis=1``), a block of values at
        a time, as many as keep its largest array within ``_NODE_BYTES`` (at
        least one).  The limits are clipped to the nodes' dtype, which
        changes only an unbounded side.  For the whole batch each node row
        is reduced to its minimum and maximum over the block, and each
        constrained pair to its largest difference, and those are compared
        with the limits.  For each value a node is within [low, high] iff
        ``x - low``, read unsigned, is at most ``high - low``.  A value within
        the bounds of its entries has sums and differences far from the
        limits of that dtype, so nothing computed for it overflows, and the
        wrapped results of other values never decide a verdict alone: their
        entries are out of bounds."""
        dtype = np.promote_types(a.dtype, self._dtype)
        low, high, span, bound = self._limits(dtype)
        i, j, _ = self._pairs
        step = max(1, _NODE_BYTES // (max(len(low), len(i)) * dtype.itemsize))
        verdicts = np.zeros(len(a), dtype=bool)
        for start in range(0, len(a), step):
            x = self._nodes(a[start : start + step])
            if axis is None:
                if (x.min(axis=1) < low).any() or (x.max(axis=1) > high).any():
                    return True
                differences = x[i]
                if (np.subtract(differences, x[j], out=differences).max(axis=1) > bound).any():
                    return True
            else:
                np.logical_or(((x - low[:, None]).view(span.dtype) > span[:, None]).any(axis=0),
                              (x[i] - x[j] > bound[:, None]).any(axis=0), out=verdicts[start : start + step])
        return False if axis is None else verdicts

    def first(self, entries, what):
        """The error of the first constraint, by key, that one value's
        entries violate, or None; ``what`` names the family in its message.
        Entries beyond 2**31 are compared as Python integers, so the answer
        is exact for entries of any size."""
        dtype = object if entries and not -(2**31) < min(entries) <= max(entries) < 2**31 else np.int64
        x = self._nodes(np.array([entries], dtype=dtype))[:, 0]
        violated = np.flatnonzero(x[self.a] - x[self.b] > self.bound)
        if not len(violated):
            return None
        error, template, shown, fields = self._rules[self._rule[violated[0]]]
        place = self._place[violated[0]]
        fields = {name: int(field[place]) for name, field in fields.items()}
        message = template.format(*(x[node[place]] for node in shown), what=what, n=self.n, **fields)
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
    return _Table(n, len(p), None, [
        *_rule(BottomRowError, "{what}: bottom row must be 1..{n}", (0, 0, 0, 0), bottom,
               low=c[bottom] + 1, high=c[bottom] + 1, row=n),
        *_rule(EntryError, entry + " outside 1..{n}", a=p, low=1, high=n, shown=(p,), **_at(r, c, 0, stage=1)),
        *_rule(RowStrictError, "{what}: row {row} not strictly increasing at position {col}", a=right, b=right + 1,
               high=-1, **_at(r[right], c[right], 1, stage=1)),
        *diagonals,
    ])


def _diagonal_sums(n, x):
    """Write the sum down its diagonal to each entry of boolean triangles,
    row-major, after the entries in the node rows of ``x``: a row's first
    entry starts its diagonal, and entry (r, c) adds to the sum at
    (r - 1, c - 1), so each row is one running add of the row above."""
    size = n * (n - 1) // 2
    entries, sums = x[:size], x[size : 2 * size]
    for r in range(n - 1):
        start, stop = r * (r + 1) // 2, (r + 1) * (r + 2) // 2
        sums[start] = entries[start]
        np.add(sums[start - r : start], entries[start + 1 : stop], out=sums[start + 1 : stop])


@lru_cache(maxsize=None)
def _boolean_table(n):
    """Every entry 0/1 first; then row by row, entry by entry, the partial
    sums: S[r, q] <= 1 + S[r, q - 1] for diagonal q >= 2 of the entry,
    where S[r, q - 1] is the sum at the entry's left neighbour, or zero at
    the first entry of its row (diagonal q - 1 starts below)."""
    r, c = _triangle_cells(n - 1)
    p, q = np.arange(len(r)), n - 1 - r + c
    s = p[q >= 2]
    sums, left = len(p) + s, np.where(c[s] >= 1, len(p) + s - 1, _ZERO)  # the nodes of S[r, q] and S[r, q - 1]
    return _Table(n, 2 * len(p), _diagonal_sums, [
        *_rule(EntryError, "{what}: entry {0} at ({row},{col}) not 0/1", a=p, low=0, high=1, shown=(p,),
               **_at(r, c, 0)),
        *_rule(PartialSumError, "{what}: partial sums of diagonals {left},{right} cross at depth {row}", a=sums,
               b=left, high=1, left=q[s] - 1, right=q[s], j=n - q[s], i_prime=r[s] + 1,
               **_at(r[s], c[s], 0, stage=1)),
    ])


def _prefix_sums(n, x):
    """Write the prefix sums of ASMs along each row, then down each column,
    row-major, after the entries in the node rows of ``x``: one running add
    per column and one per row."""
    entries, rows, columns = x[: 3 * n * n].reshape(3, n, n, x.shape[1])
    rows[:, 0], columns[0] = entries[:, 0], entries[0]
    for k in range(1, n):
        np.add(rows[:, k - 1], entries[:, k], out=rows[:, k])
        np.add(columns[k - 1], entries[k], out=columns[k])


@lru_cache(maxsize=None)
def _asm_table(n):
    """Entry by entry, row-major: -1/0/1, then the prefix sums along its row
    and down its column 0/1; each row sums to 1 after its last entry, and
    each column after the last row."""
    p, line = np.arange(n * n), np.arange(n)
    r, c = p // n, p % n
    rows, cols = n * n + p, 2 * n * n + p  # the nodes of the prefix sums
    last_row, last_col = rows[c == n - 1], cols[r == n - 1]
    return _Table(n, 3 * n * n, _prefix_sums, [
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
    return _Table(n, side * side, None, [
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
    return _Table(n, len(p), None, [
        *_rule(EntryError, "{what}: negative entry at ({row},{col})", a=p, low=0, **_at(i, c, 0)),
        *_rule(MonotonicityError, "{what}: row {row} increases at position {col}", a=right + 1, b=right, high=0,
               **_at(i[right], c[right], 1, across=1)),
        *_rule(MonotonicityError, "{what}: column under ({i},{c}) increases", a=under + n - 1 - i[under], b=under,
               high=0, i=i[under] + 1, c=c[under] + 1, **_at(i[under], c[under], 2, down=1, across=-1)),
    ])


@lru_cache(maxsize=None)
def _permutation_table(n):
    """A permutation's one check: sorted, its values are 1..n."""

    def violated(a, axis=None):
        return (np.sort(a, axis=1) != np.arange(1, n + 1)).any(axis=axis)

    def first(entries, what):
        bad = len(entries) != n or sorted(entries) != list(range(1, n + 1))
        return ValidationError(f"{what}: {tuple(entries)} is not a bijection on 1..{n}") if bad else None

    return SimpleNamespace(violated=violated, first=first)


def _nest_columns(n, x):
    """Write the column of each path of nests after each step, step by step
    and path by path, after the entries in the node rows of ``x``: path i
    starts at column i, and a "D" step (entry 1) adds one, so the slab of
    step s is the slab of step s - 1, less its first path, plus the entries
    of step s."""
    first = np.arange(n - 1) * np.arange(1, n) // 2  # the entry of each path's first step
    before, start = np.arange(1, n)[:, None], n * (n - 1) // 2
    for s in range(n - 1):
        after = x[start : start + n - 1 - s]
        np.add(before, x[first[s:] + s], out=after)
        before, start = after[1:], start + n - 1 - s


@lru_cache(maxsize=None)
def _nest_table(n):
    """Every step 0/1 first; then path by path, step by step: path i after
    step s, at height i - s, is right of path i - 1 there (after its step
    s - 1).  Neighbouring paths start apart and their column difference
    changes by at most one per row, so they first break this where they
    share a point, and paths further apart meet only after neighbours do:
    the first rule broken is the first shared point in visiting order."""
    path = np.repeat(np.arange(1, n), np.arange(1, n))
    p = np.arange(len(path))
    step = p - path * (path - 1) // 2 + 1
    # The node of path i after step s; that of path i - 1 after step s - 1
    # is n - s + 1 before it, in the slab of the step before.
    column = len(p) + (step - 1) * (2 * n - step) // 2 + path - step
    i, s, here = path[step >= 2], step[step >= 2], column[step >= 2]
    return _Table(n, 2 * len(p), _nest_columns, [
        *_rule(EntryError, "{what}: path {path} has step {0}, expected 'V'/'D'", (0, path, step, 0), p, low=0,
               high=1, shown=(p,), path=path),
        *_rule(IntersectionError, "{what}: paths {left} and {right} share the point ({0}, {y})", (1, i, s, 0),
               here - (n - s + 1), here, high=-1, shown=(here,), left=i - 1, right=i, y=i - s),
    ])


# -- the families ------------------------------------------------------------


class _Family(NamedTuple):
    """Everything one value class declares.  A value is a tuple of rows,
    each a tuple of entries, or (``count`` None) one flat tuple of n
    entries, whose length is one of its rules."""

    what: str  # the name in messages
    kind: str  # the JSON kind
    field: str  # the attribute, and JSON field, holding the value
    count: Callable | None  # n -> the row count
    length: Callable | None  # (n, r) -> the length of row r (0-based)
    entry: type | tuple  # int, or the step letters (letter i is entry i in an entry array)
    rules: Callable  # n -> the rule table
    shape: tuple | None  # the templates of a wrong row count and of a wrong row length


_ROWS = ("{what}: expected {rows} rows, got {got}", "{what}: row {row} has {got} entries, expected {expected}")
_PATHS = ("{what}: expected {rows} paths, got {got}", "{what}: path {path} has {got} steps, expected {expected}")


_FAMILIES = {
    MonotoneTriangle: _Family("monotone triangle", "monotone_triangle", "rows", lambda n: n, lambda n, r: r + 1, int,
                              partial(_interlacing_table, False), _ROWS),
    MagogTriangle: _Family("magog triangle", "magog_triangle", "rows", lambda n: n, lambda n, r: r + 1, int,
                           partial(_interlacing_table, True), _ROWS),
    BooleanTriangle: _Family("boolean triangle", "boolean_triangle", "rows", lambda n: n - 1, lambda n, r: r + 1, int,
                             _boolean_table, _ROWS),
    Asm: _Family("asm", "asm", "rows", lambda n: n, lambda n, r: n, int, _asm_table,
                 ("{what}: expected a {rows}x{rows} matrix",) * 2),
    Permutation: _Family("permutation", "permutation", "sigma", None, None, int, _permutation_table, None),
    NilpNest: _Family("nest", "nilp_nest", "paths", lambda n: n - 1, lambda n, r: r + 1, ("V", "D"), _nest_table,
                      _PATHS),
    PlanePartition: _Family("plane partition", "plane_partition", "rows", lambda n: 2 * n, lambda n, r: 2 * n, int,
                            _plane_partition_table, ("{what}: expected a {rows}x{rows} array",) * 2),
    FundamentalDomain: _Family("fundamental domain", "fundamental_domain", "rows", lambda n: n, lambda n, r: n - r,
                               int, _domain_table, ("{what}: expected rows of lengths {n}..1",) * 2),
}
# class -> (JSON kind, JSON field), and kind -> class
SCHEMA = {cls: (family.kind, family.field) for cls, family in _FAMILIES.items()}
KIND_CLASSES = {family.kind: cls for cls, family in _FAMILIES.items()}


def _normalised(family, rows):
    """``rows`` with every integer entry an ``int``, and its entries; the
    first entry of the wrong type, row-major, raises EntryError."""
    flat, what = family.count is None, family.what
    for r, row in enumerate([rows] if flat else rows):
        for c, entry in enumerate(row):
            if family.entry is not int and entry not in family.entry:
                raise EntryError(f"{what}: path {r + 1} has step {entry!r}, expected {'/'.join(map(repr, family.entry))}")
            if family.entry is int and not _is_int(entry):
                at, place = (f"value at position {c + 1}", None) if flat else (f"entry at ({r + 1},{c + 1})", r + 1)
                raise EntryError(f"{what}: {at} is not an integer", row=place, col=c + 1)
    if family.entry is int:
        rows = tuple(map(int, rows)) if flat else tuple(tuple(map(int, row)) for row in rows)
    return rows, list(rows) if flat else list(chain.from_iterable(rows))


@lru_cache(maxsize=None)
def _row_lengths(cls, n):
    """The row lengths of a value of order n; a flat value is one row."""
    family = _FAMILIES[cls]
    return (n,) if family.count is None else tuple(family.length(n, r) for r in range(family.count(n)))


def _check_shape(cls, n, rows):
    """Raise ShapeError on a wrong row count or row length; the error
    reports ``row`` when its message names one."""
    family = _FAMILIES[cls]
    count = family.count(n)
    if len(rows) == count and tuple(map(len, rows)) == _row_lengths(cls, n):
        return
    if len(rows) != count:
        template, values = family.shape[0], dict(got=len(rows))
    else:
        r = next(r for r, (row, length) in enumerate(zip(rows, _row_lengths(cls, n))) if len(row) != length)
        template, values = family.shape[1], dict(row=r + 1, path=r + 1, got=len(rows[r]), expected=family.length(n, r))
    message = template.format(what=family.what, n=n, rows=count, **values)
    raise ShapeError(message, row=values["row"] if "{row}" in template else None)


def _check(cls, n, entries):
    """Raise what the first violated rule of ``cls`` at order ``n`` reports
    on one value's entries, row-major (nests: 1 for a "D" step)."""
    family = _FAMILIES[cls]
    error = family.rules(n).first(entries, family.what)
    if error is not None:
        raise error


def _array_values(cls, n, a):
    """The values of an entry array, one row per value, as nested tuples:
    tuples of row tuples (a flat value: one tuple) of Python scalars, step
    letters for the entries that name one.  Equal rows within the chunk are
    one tuple object.  An array that is not one row of the value's width per
    value raises ShapeError."""
    family = _FAMILIES[cls]
    width = sum(_row_lengths(cls, n))
    if a.shape[1:] != (width,):
        raise ShapeError(f"{cls.__name__}: expected values of {width} entries, got shape {a.shape}")
    if family.count is None:
        return list(map(tuple, a.tolist()))
    bounds = np.cumsum([0, *_row_lengths(cls, n)])
    columns = []
    for start, stop in zip(bounds, bounds[1:]):
        rows = list(map(tuple, a[:, start:stop].tolist()))
        shared = dict(zip(rows, rows))
        if family.entry is not int:  # other entries are the constructor's to refuse
            letter = dict(enumerate(family.entry))
            shared = {row: tuple(letter.get(e, e) for e in row) for row in shared}
        columns.append(list(map(shared.__getitem__, rows)))
    # A value with no rows (a boolean triangle of order 1) is ().
    return list(zip(*columns)) or [()] * len(a)


def _entry_array(cls, n, a):
    """``a`` when the rule tables can read it: an integer dtype that
    converts to int64 exactly, one row of the value's width per value, and
    an order of at least 1; otherwise None.  Anything but an array raises
    TypeError."""
    if not isinstance(a, np.ndarray):
        raise TypeError(f"expected an entry array, got {type(a).__name__}")
    fits = a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)
    return a if n >= 1 and fits and a.shape[1:] == (sum(_row_lengths(cls, n)),) else None


def _passed(cls, n, a):
    """``a`` itself, in its own dtype, when it is an entry array the rule
    tables read (:func:`_entry_array`) and no value in it breaks a rule of
    the family's table; otherwise None."""
    a = _entry_array(cls, n, a)
    return a if a is not None and not _FAMILIES[cls].rules(n).violated(a) else None


def validate_batch(cls, n, a):
    """Check an entry array of values for ``cls`` of order ``n`` all at once.

    ``a`` holds one row per value, its entries row-major (``NilpNest``: 1
    for a "D" step, 0 for a "V" step).  Returns the entries widened to an
    int64 copy when no value breaks a rule of the family's table; otherwise
    None, and the constructor must decide.  An array of another dtype or
    width is refused too.  The check itself is :func:`_passed`, which the
    enumeration and the batched maps call to keep their arrays in the dtype
    they come in; only this copy is widened to int64.
    """
    a = _passed(cls, n, a)
    return None if a is None else a.astype(np.int64)


def build_batch(cls, n, a):
    """``[cls(n, value) for value in a]`` for an entry array ``a``, the
    values given to ``cls`` as nested tuples.  An array :func:`validate_batch`
    reads is checked at once: if every value passes, the objects are built
    without checking each one again; otherwise the first bad value goes to
    the constructor, which raises its first violation.  Any other array goes
    through the constructor value by value."""
    ok = _entry_array(cls, n, a)
    values = _array_values(cls, n, a)
    if ok is None:
        return [cls(n, value) for value in values]
    table = _FAMILIES[cls].rules(n)
    if table.violated(a):
        cls(n, values[table.violated(a, axis=1).argmax()])
    field = _FAMILIES[cls].field
    new = object.__new__
    objects = []
    for value in values:
        obj = new(cls)
        attributes = obj.__dict__
        attributes["n"] = n
        attributes[field] = value
        objects.append(obj)
    return objects


# The most bytes of lines format_batch fills at a time.
_FORMAT_BYTES = 1 << 16


def format_batch(cls, n, a):
    """``"".join(to_json(obj) + "\\n" for obj in build_batch(cls, n, a))`` for
    an entry array ``a`` that :func:`validate_batch` passes, built from the
    entries alone: no object, no dict and no ``json.dumps`` per value.

    Every line of ``cls`` at order n has one shape, so it is written once as
    a byte template with a slot of W NUL bytes per entry, W the widest JSON
    word of the values lo..hi in ``a``.  Those words sit left-aligned and
    NUL-padded in one table, and one ``np.take`` by ``a - lo`` fills every
    slot of a block of lines; the padding is dropped when the words differ
    in width."""
    family = _FAMILIES[cls]
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, -1)
    word = str if family.entry is int else lambda v: json.dumps(family.entry[v])
    words = [word(v).encode() for v in range(lo, hi + 1)]
    width = max(map(len, words), default=0)
    slot = "\0" * width
    rows = ",".join("[" + ",".join([slot] * length) + "]" for length in _row_lengths(cls, n))
    value = rows if family.count is None else "[" + rows + "]"
    template = f'{{"kind":"{family.kind}","n":{n},"{family.field}":{value}}}\n'
    if not words:  # no entries: an empty batch, or values without rows
        return template * len(a)
    line = np.frombuffer(template.encode(), dtype=np.uint8)
    slots = np.flatnonzero(line == 0)
    table = np.array(words, dtype=f"S{width}")
    mixed = len(set(map(len, words))) > 1
    step = max(1, _FORMAT_BYTES // len(line))
    block = np.tile(line, (min(step, len(a)), 1))
    parts = []
    for start in range(0, len(a), step):
        lines = block[: min(step, len(a) - start)]
        index = np.subtract(a[start : start + step], lo, dtype=np.intp)
        lines[:, slots] = np.take(table, index).view(np.uint8).reshape(len(lines), -1)
        text = lines.tobytes()
        parts.append((text.translate(None, b"\0") if mixed else text).decode())
    return "".join(parts)


def _counting(cls, extra=0):
    """``cls`` of the order its rows give, their count plus ``extra``, or
    (boolean, nest) of a given order ``n``.  The constructor checks the rest,
    and refuses a value that is no sequence (counted as one row)."""

    def validate(raw, n=None):
        try:
            raw = tuple(raw)
        except TypeError:
            return cls(1 if n is None else n, raw)
        return cls(len(raw) + extra if n is None else n, raw)

    return validate if extra else lambda raw: validate(raw)


validate_monotone = _counting(MonotoneTriangle)
validate_magog = _counting(MagogTriangle)
validate_boolean = _counting(BooleanTriangle, 1)
validate_nilp = _counting(NilpNest, 1)
validate_asm = _counting(Asm)


def validate_tsscpp(p: PlanePartition):
    """Report the three symmetry predicates of the lattice-point set."""
    m = p.cube()
    symmetric = bool((m == m.transpose(1, 0, 2)).all())
    cyclic = bool((m == m.transpose(2, 0, 1)).all())
    self_comp = bool((m == ~m[::-1, ::-1, ::-1]).all())
    return SymmetryReport(symmetric, cyclic, self_comp)


@lru_cache(maxsize=None)
def _closure_cells(n):
    """The cells (a >= b >= c) of the (2n)^3 cube with sorted coordinates,
    each once: the flat index into the padded (2n+1)^2 domain array of the
    height that decides it, the threshold it is compared with, and whether
    it decides itself (b exceeds n) or through its complement cell; then,
    for every cell of the cube, row-major, the index of its sorted cell.
    Built on first use and shared by every domain of order n."""
    side = 2 * n
    idx = np.arange(1, side + 1, dtype=np.int16)
    cells = np.sort(np.stack(np.meshgrid(idx, idx, idx, indexing="ij")).reshape(3, -1), axis=0)
    codes = (cells[0] * np.int64(side + 1) + cells[1]) * (side + 1) + cells[2]
    _, first, cube = np.unique(codes, return_index=True, return_inverse=True)
    low, mid, high = cells[:, first]
    inside = mid >= n + 1
    threshold = np.where(inside, low, side + 1 - high)
    flat = np.where(inside, mid, side + 1 - mid) * np.int64(side + 1) + np.where(inside, high, side + 1 - low)
    return flat, threshold, inside, cube


def _closure(n, dom):
    """Membership cubes, shape (m, 2n, 2n, 2n), of the closures of the padded
    domain arrays ``dom`` of shape (m, 2n+1, 2n+1).

    The lattice-point set is closed under the six coordinate permutations and
    the complementation involution: a cell sorted to (a >= b >= c) lies in the
    set iff c <= t[b][a] when b > n, and otherwise iff its complement cell is
    absent.  So every cube is totally symmetric and self-complementary
    whatever ``dom`` holds: membership is decided once per sorted cell, and
    a cell with b <= n is decided by its complement, whose middle coordinate
    2n + 1 - b exceeds n.
    """
    side = 2 * n
    flat, threshold, inside, cube = _closure_cells(n)
    member = (dom.reshape(len(dom), -1)[:, flat] >= threshold) == inside
    return member[:, cube].reshape(len(dom), side, side, side)


def expand_domains(n, dom):
    """The TSSCPPs of a batch of fundamental domains, every closure checked.

    ``dom`` holds fundamental domains of order ``n`` as padded arrays of
    shape (m, 2n+1, 2n+1): ``dom[:, n+1+i, n+1+i+c]`` is entry ``(i, c)``
    (0-based) of a domain, every other entry is zero.  Returns the heights
    arrays, shape (m, 2n, 2n), of their TSSCPPs when every closure (totally
    symmetric and self-complementary by construction) is column contiguous,
    a plane partition, and reproduces its domain; otherwise None.
    """
    m = _closure(n, dom)
    # Column contiguity: down the third axis every column is a run of
    # members followed by a run of non-members.
    if not (m[..., 1:] <= m[..., :-1]).all():
        return None
    heights = m.sum(axis=3, dtype=np.int16)
    if _plane_partition_table(n).violated(heights.reshape(len(dom), -1)):
        return None
    # The cube of a contiguous closure is the cube of its heights, and every
    # closure is totally symmetric and self-complementary (see _closure).
    i, c = _domain_cells(n)
    if not (heights[:, n + i, n + i + c] == dom[:, n + 1 + i, n + 1 + i + c]).all():
        return None
    return heights


def _inconsistent(n):
    return InconsistentDomain(f"fundamental domain: a domain of order {n} is the corner of no TSSCPP")


def _padded_domains(n, a):
    """The arrays :func:`expand_domains` takes, of domain entry arrays, in
    their dtype widened to at least the int16 of the closure thresholds."""
    i, c = _domain_cells(n)
    dom = np.zeros((len(a), 2 * n + 1, 2 * n + 1), dtype=np.promote_types(a.dtype, np.int16))
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
    """The entries of a valid object as a one-row int64 entry array (nests:
    1 for a "D" step); only a domain can hold entries beyond int64, and it
    is no TSSCPP's."""
    family = _FAMILIES[type(obj)]
    value = getattr(obj, family.field)
    entries = value if family.count is None else list(chain.from_iterable(value))
    if family.entry is not int:
        entries = list(map(family.entry.index, entries))
    try:
        return np.array(entries, dtype=np.int64).reshape(1, -1)
    except OverflowError:
        raise _inconsistent(obj.n) from None


def fundamental_domain(p: PlanePartition):
    """The triangular corner t[i][j], n+1 <= i <= j <= 2n, of a TSSCPP."""
    return build_batch(FundamentalDomain, p.n, tsscpps_to_domains(p.n, entry_row(p)))[0]


def expand_fundamental(d: FundamentalDomain):
    """The unique TSSCPP with fundamental domain ``d``."""
    return build_batch(PlanePartition, d.n, domains_to_tsscpps(d.n, entry_row(d)).reshape(1, -1))[0]


def to_json_dict(obj):
    """The JSON object of a value: its kind, its order and its ``SCHEMA``
    field; a permutation's ``sigma`` is flat, every other field is a list
    of rows."""
    kind, field = SCHEMA[type(obj)]
    value = getattr(obj, field)
    entries = list(value) if _FAMILIES[type(obj)].count is None else [list(row) for row in value]
    return {"kind": kind, "n": obj.n, field: entries}


def from_json_dict(data):
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ShapeError("object JSON must carry a 'kind' field")
    if not isinstance(kind, str) or kind not in KIND_CLASSES:
        raise ShapeError(f"unknown object kind {kind!r}")
    cls, field = KIND_CLASSES[kind], SCHEMA[KIND_CLASSES[kind]][1]
    for name in ("n", field):
        if name not in data:
            raise ShapeError(f"{kind} JSON is missing the field {name!r}")
    return cls(data["n"], data[field])


def to_json(obj):
    return json.dumps(to_json_dict(obj), separators=(",", ":"))


def from_json(text):
    return from_json_dict(json.loads(text))
