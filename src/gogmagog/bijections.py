"""Conversion maps between the object families, each total on its stated
domain and invertible.

Every map is one batched algorithm on validated entry arrays of order n
(one row per value, see ``triangles.validate_batch``) and checks what it
returns the same way.  An object map runs it on the object's entries as a
batch of one, as :func:`convert` does along the conversion graph
``_EDGES``.  The scalar algorithms these maps replaced are the test oracle
(``tests/reference_maps.py``).

The matrix side (ASMs, monotone triangles, permutations) and the
plane-partition side meet only on permutation objects: a boolean triangle
with weakly decreasing rows maps to a monotone triangle by copying, in each
row, the below-left neighbour over a one and the below-right one over a
zero.  That map sends zeros to inversions and is the statistic-preserving
permutation bijection.  Its domain is :func:`permutation_booleans` (no row
increases), and that of the maps out of matrices :func:`permutation_asms`
(no -1); ``statistics`` lists both with the statistics.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .triangles import (
    KIND_CLASSES,
    SCHEMA,
    Asm,
    BooleanTriangle,
    FundamentalDomain,
    MagogTriangle,
    MonotoneTriangle,
    NilpNest,
    Permutation,
    ValidationError,
    _domain_cells,
    _passed,
    _triangle_cells,
    _triangle_neighbours,
    build_batch,
    domains_to_tsscpps,
    entry_row,
    tsscpps_to_domains,
)

__all__ = [
    "NotPermutationBoolean",
    "NotPermutationMonotone",
    "NotPermutationMatrix",
    "convert",
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
    "permutations_to_asms",
    "asms_to_permutations",
    "permutations_to_monotones",
    "monotones_to_permutations",
    "monotones_to_booleans",
    "permutations_to_booleans",
    "perm_booleans_to_monotones",
    "booleans_to_permutations",
    "asms_to_monotones",
    "monotones_to_asms",
    "booleans_to_nests",
    "nests_to_booleans",
    "booleans_to_domains",
    "domains_to_booleans",
    "domains_to_magogs",
    "magogs_to_domains",
    "magogs_to_booleans",
    "booleans_to_magogs",
    "booleans_to_brackets",
    "brackets_to_booleans",
    "boolean_to_monotone_perm",
    "monotone_perm_to_boolean",
    "permutation_to_boolean",
    "boolean_to_permutation",
    "bracket_vector",
    "bracket_vector_to_boolean",
    "permutation_asms",
    "permutation_booleans",
]


class NotPermutationBoolean(ValidationError):
    pass


class NotPermutationMonotone(ValidationError):
    pass


class NotPermutationMatrix(ValidationError):
    pass


def _domain_dtype(n):
    """A dtype that holds every count up to n: int8 up to n = 64."""
    return np.min_scalar_type(-2 * n)


def _domains_from_booleans(n, a):
    """The domain entry arrays (row-major, in :func:`_domain_dtype`) of the
    boolean triangles in the rows of ``a``.  In domain row i the cells of
    height at least n - q are the first n - 1 - r, r the triangle row of the
    (i + 1)-th zero of diagonal q (none without one).  So domain entry
    (i, j) counts the diagonals with more than i zeros above triangle row
    n - 1 - j: counted node-major, one triangle row at a time."""
    dtype = _domain_dtype(n)
    zeros = np.ascontiguousarray(a.T) == 0
    domains = np.empty((n * (n + 1) // 2, len(a)), dtype=dtype)
    counts = np.zeros((n, len(a)), dtype=dtype)  # the zeros of diagonal q above row r
    for r in range(n):
        i = np.arange(r + 1)
        more = counts > i.astype(dtype)[:, None, None]
        domains[i * (2 * n + 1 - i) // 2 + n - 1 - r] = more.sum(axis=1, dtype=dtype)
        if r < n - 1:
            counts[n - 1 - r :] += zeros[r * (r + 1) // 2 : (r + 1) * (r + 2) // 2]
    return domains.T


# The batched maps below take validated entry arrays of order n (one row per
# value, see ``triangles.validate_batch``) and check the values they return
# in blocks of ``_CHECK_ROWS``, the ``enumeration.CHUNK`` of the searches: the
# rule tables of ASMs, nests and monotone, magog and boolean triangles of
# order 7 check 2,048 values 3.4 to 5.3 times faster than 256 at a time.
# Some maps also map a block at a time.  Only
# :func:`booleans_to_tsscpp` expands in blocks of ``_CUBE_ROWS``, because
# ``triangles.expand_domains`` holds (rows, 2n, 2n, 2n) closure cubes per
# block: with blocks of 2,048 rows counting the TSSCPPs of order 7 peaks at
# 51 MiB against 36 MiB (in one process on a 2-CPU Xeon).
_CHECK_ROWS = 2048
_CUBE_ROWS = 256


def _checked(cls, n, a):
    """``a``, once its values pass the batch check of ``cls``."""
    for block in np.split(a, range(_CHECK_ROWS, len(a), _CHECK_ROWS)):
        if _passed(cls, n, block) is None:
            raise ValidationError(f"a batched map gave a value that is no {cls.__name__} of order {n}")
    return a


def booleans_to_domains(n, a):
    """The domain entries, row-major, of validated boolean entry arrays of
    order n (:func:`_domains_from_booleans`), checked with the
    FundamentalDomain rule table."""
    domains = np.empty((len(a), n * (n + 1) // 2), dtype=_domain_dtype(n))
    for start in range(0, len(a), _CHECK_ROWS):
        block = slice(start, start + _CHECK_ROWS)
        domains[block] = _checked(FundamentalDomain, n, _domains_from_booleans(n, a[block]))
    return domains


def booleans_to_tsscpp(n, a):
    """Batch form of :func:`boolean_to_tsscpp` on validated boolean entry
    arrays of order n: the heights arrays, shape (len(a), 2n, 2n), of
    ``triangles.domains_to_tsscpps`` of :func:`_domains_from_booleans` (a
    domain that round-trips is the corner of a valid plane partition)."""
    domains = _domains_from_booleans(n, a)
    heights = np.empty((len(a), 2 * n, 2 * n), dtype=np.int16)
    for start in range(0, len(a), _CUBE_ROWS):
        block = slice(start, start + _CUBE_ROWS)
        heights[block] = domains_to_tsscpps(n, domains[block])
    return heights


def permutations_to_asms(n, a):
    """The permutation matrices: the one of row r in column sigma(r)."""
    return _checked(Asm, n, (a[:, :, None] == np.arange(1, n + 1)).astype(np.int8).reshape(len(a), n * n))


def permutation_asms(n, a):
    """Which rows are permutation matrices: those with no -1."""
    return (a >= 0).all(axis=1)


def asms_to_permutations(n, a):
    """The column of the one in each row, defined on permutation matrices."""
    if not permutation_asms(n, a).all():
        raise NotPermutationMatrix("matrix has a -1 entry")
    return _checked(Permutation, n, a.reshape(len(a), n, n).argmax(axis=2) + 1)


def permutations_to_monotones(n, a):
    """Row r is the sorted prefix sigma(1..r)."""
    rows = [np.sort(a[:, : r + 1], axis=1) for r in range(n)]
    return _checked(MonotoneTriangle, n, np.concatenate(rows, axis=1))


def _agreement(n, a):
    """Whether each monotone entry above the bottom row equals its below-left
    neighbour, and whether it equals either one below (if neither: a -1)."""
    _, above, below_left = _triangle_neighbours(n)
    left = a[:, above] == a[:, below_left]
    return left, left | (a[:, above] == a[:, below_left + 1])


def monotones_to_permutations(n, a):
    """sigma(r) is the new value in row r, its sum less that of row r - 1;
    defined exactly on the triangles of permutation matrices, whose rows nest."""
    if not _agreement(n, a)[1].all():
        raise NotPermutationMonotone("monotone triangle rows are not nested prefixes")
    r = np.arange(n)
    sums = np.add.reduceat(a, r * (r + 1) // 2, axis=1, dtype=np.int64)
    return _checked(Permutation, n, np.diff(sums, axis=1, prepend=0))


def monotones_to_booleans(n, a):
    """The inverse of :func:`perm_booleans_to_monotones`: entry (r, c) is 1
    where monotone entry (r, c) equals its below-left neighbour and 0 where
    it equals its below-right one."""
    left, either = _agreement(n, a)
    if not either.all():
        entry = _triangle_neighbours(n)[1][np.argwhere(~either)[0, 1]]
        r, c = (int(cells[entry]) + 1 for cells in _triangle_cells(n))
        raise NotPermutationMonotone(f"entry at ({r},{c}) matches neither neighbour below")
    return _checked(BooleanTriangle, n, left.astype(np.int8))


def permutations_to_booleans(n, a):
    """Row r holds k ones, then zeros, k the number of sigma(1..r+1) below
    sigma(r + 2): where sigma(r + 2) enters the sorted prefix.  This is
    :func:`monotones_to_booleans` of :func:`permutations_to_monotones`,
    without the monotone triangle, counted node-major, one row at a time."""
    dtype = _domain_dtype(n)
    values = np.ascontiguousarray(a.T)
    rows = np.empty((n * (n - 1) // 2, len(a)), dtype=np.int8)
    for r in range(n - 1):
        below = (values[: r + 1] < values[r + 1]).sum(axis=0, dtype=dtype)
        rows[r * (r + 1) // 2 : (r + 1) * (r + 2) // 2] = np.arange(r + 1, dtype=dtype)[:, None] < below
    return _checked(BooleanTriangle, n, rows.T)


def permutation_booleans(n, a):
    """Which boolean triangles are those of permutations, the domain of the
    permutation bijection: the ones with no increasing row."""
    right, _, _ = _triangle_neighbours(n - 1)
    return ~(a[:, right] < a[:, right + 1]).any(axis=1)


def _check_permutation_booleans(n, a):
    """Refuse boolean triangles with a row that increases."""
    if not permutation_booleans(n, a).all():
        raise NotPermutationBoolean("a row of the boolean triangle increases")


def perm_booleans_to_monotones(n, a):
    """The statistic-preserving permutation bijection, boolean side to matrix
    side: bottom row 1..n, then every entry copies its below-left neighbour
    over a one and its below-right neighbour over a zero."""
    _check_permutation_booleans(n, a)
    rows = [np.broadcast_to(np.arange(1, n + 1, dtype=np.int64), (len(a), n))]
    for r in range(n - 2, -1, -1):
        ones = a[:, r * (r + 1) // 2 : (r + 1) * (r + 2) // 2] == 1
        rows.insert(0, np.where(ones, rows[0][:, :-1], rows[0][:, 1:]))
    return _checked(MonotoneTriangle, n, np.concatenate(rows, axis=1))


def booleans_to_permutations(n, a):
    return monotones_to_permutations(n, perm_booleans_to_monotones(n, a))


def asms_to_monotones(n, a):
    """Row k lists the columns whose prefix sum through row k is 1, in
    increasing order.  An ASM has k + 1 of them in row k, so the columns of
    those prefix sums, read row-major, are the monotone entries."""
    monotones = np.empty((len(a), n * (n + 1) // 2), dtype=np.min_scalar_type(-2 * n))  # int8 up to n = 64
    for start in range(0, len(a), _CHECK_ROWS):
        block = slice(start, start + _CHECK_ROWS)
        ones = a[block].reshape(-1, n, n).cumsum(axis=1, dtype=np.int8) == 1
        monotones[block] = (np.flatnonzero(ones) % n + 1).reshape(-1, monotones.shape[1])
    return _checked(MonotoneTriangle, n, monotones)


def monotones_to_asms(n, a):
    """The indicator of each monotone row less that of the row above."""
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
    """Diagonal q, top to bottom, is path q: one = vertical step, zero =
    southeast diagonal step (1 for a "D" step in the nest's entries)."""
    return _checked(NilpNest, n, 1 - a[:, _nest_cells(n)])


def nests_to_booleans(n, a):
    """The inverse of :func:`booleans_to_nests`."""
    return _checked(BooleanTriangle, n, 1 - a[:, np.argsort(_nest_cells(n))])


@lru_cache(maxsize=None)
def _magog_cells(n):
    """The position in a fundamental domain's entries of magog entry (r, c),
    row-major: domain cell (r - c, c)."""
    r, c = _triangle_cells(n)
    return (r - c) * (2 * n + 1 - r + c) // 2 + c


def domains_to_booleans(n, a):
    """The inverse of :func:`booleans_to_domains`: a domain row with l >= 1
    cells of height at least L puts the zero at depth n - L - l of diagonal
    n - L, in row n - 1 - l.  Node-major, ``_CHECK_ROWS`` domains at a time."""
    i, c = _domain_cells(n)
    out = np.empty((len(a), n * (n - 1) // 2), dtype=np.int8)
    for start in range(0, len(a), _CHECK_ROWS):
        block = a[start : start + _CHECK_ROWS]
        domain = np.zeros((n, n, len(block)), dtype=a.dtype)
        domain[i, c] = block.T
        zeros = np.empty((out.shape[1], len(block)), dtype=bool)
        for level in range(1, n):
            lengths = (domain >= level).sum(axis=1, dtype=_domain_dtype(n))
            length = np.arange(1, n - level + 1)
            row = n - 1 - length
            zeros[row * (row + 1) // 2 + n - level - length] = (lengths == length[:, None, None]).any(axis=1)
        out[start : start + _CHECK_ROWS] = ~zeros.T
    return _checked(BooleanTriangle, n, out)


def domains_to_magogs(n, a):
    """Rotate the domain and add 1, 2, ..., n along the diagonals: magog
    entry (r, c) is domain cell (r - c, c) plus c + 1."""
    _, c = _triangle_cells(n)
    return _checked(MagogTriangle, n, a[:, _magog_cells(n)] + (c + 1).astype(a.dtype))


def magogs_to_domains(n, a):
    """The inverse of :func:`domains_to_magogs`."""
    _, c = _triangle_cells(n)
    domains = a - (c + 1).astype(a.dtype)
    return _checked(FundamentalDomain, n, domains[:, np.argsort(_magog_cells(n))])


def magogs_to_booleans(n, a):
    return domains_to_booleans(n, magogs_to_domains(n, a))


def booleans_to_magogs(n, a):
    return domains_to_magogs(n, booleans_to_domains(n, a))


def booleans_to_brackets(n, a):
    """x_i = i + (sum of row n - i), the empty row counting as zero; a
    bijection from permutation boolean triangles onto sequences with
    i <= x_i <= n."""
    _check_permutation_booleans(n, a)
    sums = a @ np.eye(n - 1, dtype=np.int64)[_triangle_cells(n - 1)[0]]
    return np.arange(1, n + 1) + np.pad(sums[:, ::-1], ((0, 0), (0, 1)))


def brackets_to_booleans(n, x):
    """The inverse of :func:`booleans_to_brackets`: row r holds
    x_{n-r} - (n - r) ones, then zeros."""
    i = np.arange(1, n + 1)
    outside = (x < i) | (x > n)
    if outside.any():
        t, p = np.argwhere(outside)[0]
        raise ValidationError(f"entry {x[t, p]} at position {p + 1} outside {p + 1}..{n}")
    r, c = _triangle_cells(n - 1)
    return _checked(BooleanTriangle, n, (c < x[:, n - 2 - r] - (n - 1 - r)).astype(np.int8))


# Conversion graph: (kind, kind, batched maps applied in turn).  The maps
# between the two sides are total only on permutation objects.
_EDGES = (
    ("asm", "monotone_triangle", asms_to_monotones),
    ("asm", "permutation", asms_to_permutations),
    ("monotone_triangle", "asm", monotones_to_asms),
    ("monotone_triangle", "permutation", monotones_to_permutations),
    ("permutation", "asm", permutations_to_asms),
    ("permutation", "monotone_triangle", permutations_to_monotones),
    ("permutation", "boolean_triangle", permutations_to_booleans),
    ("boolean_triangle", "permutation", booleans_to_permutations),
    ("boolean_triangle", "fundamental_domain", booleans_to_domains),
    ("boolean_triangle", "nilp_nest", booleans_to_nests),
    ("boolean_triangle", "magog_triangle", booleans_to_magogs),
    ("boolean_triangle", "plane_partition", booleans_to_tsscpp),
    ("magog_triangle", "fundamental_domain", magogs_to_domains),
    ("magog_triangle", "boolean_triangle", magogs_to_booleans),
    ("fundamental_domain", "magog_triangle", domains_to_magogs),
    ("fundamental_domain", "boolean_triangle", domains_to_booleans),
    ("fundamental_domain", "nilp_nest", domains_to_booleans, booleans_to_nests),
    ("fundamental_domain", "plane_partition", domains_to_tsscpps),
    ("nilp_nest", "boolean_triangle", nests_to_booleans),
    ("nilp_nest", "fundamental_domain", nests_to_booleans, booleans_to_domains),
    ("plane_partition", "fundamental_domain", tsscpps_to_domains),
    ("plane_partition", "boolean_triangle", tsscpps_to_domains, domains_to_booleans),
)


def _conversion_path(source, target):
    """The maps of the shortest kind path, BFS in fixed edge order (the loop
    also visits what it appends to ``queue``)."""
    queue, seen = [(source, ())], {source}
    for kind, path in queue:
        if kind == target:
            return path
        for start, other, *maps in _EDGES:
            if start == kind and other not in seen:
                seen.add(other)
                queue.append((other, path + tuple(maps)))
    raise ValidationError(f"no conversion from {source} to {target}")


def convert(obj, kind):
    """``obj`` as an object of ``kind`` (a JSON kind, see
    ``triangles.SCHEMA``): the batched maps of the shortest path on its
    entries.  A fundamental domain must be some TSSCPP's."""
    n, a = obj.n, entry_row(obj)
    if isinstance(obj, FundamentalDomain):
        domains_to_tsscpps(n, a)
    for step in _conversion_path(SCHEMA[type(obj)][0], kind):
        a = step(n, a)
    return build_batch(KIND_CLASSES[kind], n, a.reshape(1, -1))[0]


def _object_map(kind):
    """The map of objects into ``kind`` by :func:`convert`."""
    return lambda obj: convert(obj, kind)


asm_to_monotone = _object_map("monotone_triangle")
monotone_to_asm = _object_map("asm")
permutation_matrix = _object_map("asm")
asm_to_permutation = _object_map("permutation")
permutation_to_monotone = _object_map("monotone_triangle")
monotone_to_permutation = _object_map("permutation")
magog_from_fundamental = _object_map("magog_triangle")
fundamental_from_magog = _object_map("fundamental_domain")
boolean_from_fundamental = _object_map("boolean_triangle")
fundamental_from_boolean = _object_map("fundamental_domain")
boolean_to_nilp = _object_map("nilp_nest")
nilp_to_boolean = _object_map("boolean_triangle")
nilp_from_fundamental = _object_map("nilp_nest")
fundamental_from_nilp = _object_map("fundamental_domain")
magog_to_boolean = _object_map("boolean_triangle")
boolean_to_magog = _object_map("magog_triangle")
tsscpp_to_boolean = _object_map("boolean_triangle")
boolean_to_tsscpp = _object_map("plane_partition")
permutation_to_boolean = _object_map("boolean_triangle")
boolean_to_permutation = _object_map("permutation")


def boolean_to_monotone_perm(b: BooleanTriangle) -> MonotoneTriangle:
    return build_batch(MonotoneTriangle, b.n, perm_booleans_to_monotones(b.n, entry_row(b)))[0]


def monotone_perm_to_boolean(m: MonotoneTriangle) -> BooleanTriangle:
    return build_batch(BooleanTriangle, m.n, monotones_to_booleans(m.n, entry_row(m)))[0]


def bracket_vector(b: BooleanTriangle) -> tuple[int, ...]:
    return tuple(booleans_to_brackets(b.n, entry_row(b))[0].tolist())


def bracket_vector_to_boolean(x) -> BooleanTriangle:
    x = np.array([tuple(x)], dtype=np.int64)
    return build_batch(BooleanTriangle, x.shape[1], brackets_to_booleans(x.shape[1], x))[0]
