"""Exhaustive generators and counters for every family.

Each family yields its objects exactly once, in lexicographic order on the
row-major representation.  Boolean triangles and ASMs are searched row by row
over a numpy frontier: every frontier state (the diagonal partial sums of a
boolean triangle, the column-prefix 0/1 mask of an ASM) is extended by all
admissible next rows at once, blocks of ``CHUNK`` states at a time, depth
first, and the search yields int8 entry arrays.  The other families are
backtracking searches yielding row tuples: monotone and magog triangles grow
from the fixed bottom row (any partial tower extends, so no dead ends), and
nests add one path at a time pruning on intersection with the previous path.
TSSCPPs are the expansions of the boolean triangles, put in order by one
``np.lexsort`` of their heights arrays.

The search output is validated in chunks of at most ``CHUNK`` values by
``triangles.validate_batch`` (TSSCPPs by ``bijections.booleans_to_tsscpp``),
with every check the constructors make.  :func:`count` adds up the sizes of
the validated chunks and :func:`jsonl` writes their JSON lines straight from
the entry arrays (``triangles.format_batch``); neither builds an object.
:func:`generate` builds the objects of a validated chunk without checking
each one again, and keeps them in a cache.  A chunk that fails a check goes
through the validating constructors, which raise the first violation.

Orders are capped (``DEFAULT_CAPS``, overridable per call or via the
``TSSCPP_MAX_N`` environment variable) because the families grow too fast for
anything beyond desk scale.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import lru_cache, partial
from itertools import chain, islice, permutations, product

import numpy as np

from . import bijections
from .triangles import (
    Asm,
    BooleanTriangle,
    MagogTriangle,
    MonotoneTriangle,
    NilpNest,
    Permutation,
    PlanePartition,
    build_batch,
    format_batch,
    validate_batch,
)

__all__ = ["FamilyId", "CapExceeded", "DEFAULT_CAPS", "generate", "count", "jsonl", "entries"]

ENV_CAP = "TSSCPP_MAX_N"
# Values validated, and frontier states expanded, at a time: large enough
# that the per-chunk numpy calls cost little, small enough that a chunk's
# arrays stay a few MB.
CHUNK = 2048


class FamilyId(str, Enum):
    ASM = "asm"
    MONOTONE = "monotone"
    MAGOG = "magog"
    BOOLEAN = "boolean"
    NILP = "nilp"
    TSSCPP = "tsscpp"
    PERMUTATION = "permutation"
    PERMUTATION_BOOLEAN = "permutation-boolean"


DEFAULT_CAPS = {
    FamilyId.ASM: 7,
    FamilyId.MONOTONE: 7,
    FamilyId.MAGOG: 7,
    FamilyId.BOOLEAN: 7,
    FamilyId.NILP: 7,
    FamilyId.TSSCPP: 7,
    FamilyId.PERMUTATION: 8,
    FamilyId.PERMUTATION_BOOLEAN: 8,
}


class CapExceeded(ValueError):
    pass


def _cap(family, max_n):
    """The order cap: ``max_n`` if given, else ``TSSCPP_MAX_N`` if set, else
    the family default.  A malformed ``TSSCPP_MAX_N`` raises CapExceeded."""
    if max_n is not None:
        return max_n
    env = os.environ.get(ENV_CAP)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CapExceeded(f"{ENV_CAP} must be an integer, got {env!r}") from None
    return DEFAULT_CAPS[family]


def _blocked(step, depth, state, entries, level=0):
    """Leaves of a row-by-row search, ``depth`` rows deep, as blocks of at
    most ``CHUNK`` rows of entries.

    ``step(level, state, entries)`` extends a block of frontier states, with
    the entries chosen so far (one row per state), by every admissible next
    row, state-major and candidate-minor, so a block in lexicographic order
    stays in it.  The children are expanded depth first, ``CHUNK`` at a time,
    so each level holds the children of one block at a time, never the whole
    frontier."""
    if level == depth:
        yield entries
        return
    state, entries = step(level, state, entries)
    for start in range(0, len(entries), CHUNK):
        block = slice(start, start + CHUNK)
        yield from _blocked(step, depth, state[block], entries[block], level + 1)


@lru_cache(maxsize=None)
def _boolean_candidates(n, r):
    """All 0/1 rows of length r + 1 in lexicographic order, and the same rows
    placed on their diagonals: row r of an order-n boolean triangle covers
    diagonals n - 1 - r .. n - 1."""
    rows = np.array(list(product((0, 1), repeat=r + 1)), dtype=np.int8)
    placed = np.zeros((len(rows), n), dtype=np.int8)
    placed[:, n - 1 - r :] = rows
    return rows, placed


def _boolean_step(n, r, sums, entries):
    """The state is the diagonal partial sums, ``sums[:, q]`` for diagonal q;
    a row is admissible when ``sums[q] <= 1 + sums[q - 1]`` for q >= 2."""
    rows, placed = _boolean_candidates(n, r)
    new = sums[:, None, :] + placed
    state, cand = np.nonzero((new[:, :, 2:] <= new[:, :, 1:-1] + 1).all(axis=2))
    return new[state, cand], np.concatenate((entries[state], rows[cand]), axis=1)


def _boolean_chunks(n):
    """Entry arrays (int8, row-major) of all boolean triangles of order n,
    lexicographic order."""
    start = np.zeros((1, n), dtype=np.int8), np.zeros((1, 0), dtype=np.int8)
    return _blocked(partial(_boolean_step, n), n - 1, *start)


def _iter_perm_boolean_rows(n):
    choices = [
        [(1,) * ones + (0,) * (r + 1 - ones) for ones in range(r + 2)]
        for r in range(n - 1)
    ]
    for row in choices:
        row.sort()
    for rows in product(*choices):
        yield rows


def _monotone_towers(n, rows_above):
    """All triangles grown upward from the fixed bottom row."""
    stack = [(tuple(range(1, n + 1)),)]
    out = []
    while stack:
        tower = stack.pop()
        if len(tower) == n:
            out.append(tower)
            continue
        for row in rows_above(tower[0]):
            stack.append((row,) + tower)
    return out


def _monotone_rows_above(row):
    k = len(row) - 1

    def rec(c, prev):
        if c == k:
            yield ()
            return
        for v in range(max(row[c], prev + 1), row[c + 1] + 1):
            for rest in rec(c + 1, v):
                yield (v,) + rest

    return rec(0, 0)


def _magog_rows_above(row, n):
    k = len(row) - 1

    def rec(c, prev):
        if c == k:
            yield ()
            return
        low = max(row[c], row[c + 1] - 1, prev + 1)
        # leave room for a strict tail within 1..n
        for v in range(low, n - (k - 1 - c) + 1):
            for rest in rec(c + 1, v):
                yield (v,) + rest

    return rec(0, 0)


@lru_cache(maxsize=None)
def _asm_table(n):
    """The rows an ASM of order n can have, in lexicographic order, and for
    each column-prefix mask (bit c set when column c sums to 1 so far) the
    rows that keep every column prefix in {0, 1}, with the mask each leads
    to: CSR offsets by mask, row indices and successor masks."""
    rows = np.array(list(product((-1, 0, 1), repeat=n)), dtype=np.int8)
    prefix = rows.cumsum(axis=1)
    rows = rows[((prefix == 0) | (prefix == 1)).all(axis=1) & (prefix[:, -1] == 1)]
    columns = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    after = columns[:, None, :] + rows
    mask, row = np.nonzero(((after == 0) | (after == 1)).all(axis=2))
    successor = (after[mask, row].astype(np.int64) << np.arange(n)).sum(axis=1)
    offsets = np.searchsorted(mask, np.arange((1 << n) + 1))
    return rows, offsets, row, successor


def _asm_step(n, r, masks, entries):
    """The state is the column-prefix mask.  The last row needs no check of
    its own: n rows summing to 1 with every column prefix in {0, 1} leave
    every column summing to 1."""
    rows, offsets, row, successor = _asm_table(n)
    first, sizes = offsets[masks], offsets[masks + 1] - offsets[masks]
    state = np.repeat(np.arange(len(masks)), sizes)
    pos = np.arange(len(state)) + np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
    return successor[pos], np.concatenate((entries[state], rows[row[pos]]), axis=1)


def _asm_chunks(n):
    """Entry arrays (int8, row-major) of all ASMs of order n, lexicographic
    order."""
    start = np.zeros(1, dtype=np.int64), np.zeros((1, 0), dtype=np.int8)
    return _blocked(partial(_asm_step, n), n, *start)


def _iter_nilp_paths(n):
    """Step tuples for all nests, path by path, pruning on intersection with
    the previous path (sufficient: adjacent non-crossing orders all paths)."""
    paths = []

    def rec(q, prev_points):
        if q == n:
            yield tuple(paths)
            return
        path = []

        def step(s, x, y, points):
            if s == q:
                paths.append(tuple(path))
                yield from rec(q + 1, frozenset(points))
                paths.pop()
                return
            for move in ("D", "V"):
                nx = x + 1 if move == "D" else x
                ny = y - 1
                if (nx, ny) in prev_points:
                    continue
                path.append(move)
                points.append((nx, ny))
                yield from step(s + 1, nx, ny, points)
                points.pop()
                path.pop()

        if (q, q) in prev_points:
            return
        yield from step(0, q, q, [(q, q)])

    yield from rec(1, frozenset())


def _chunks(search):
    """A search yielding raw values, turned into one yielding lists of
    ``CHUNK`` values."""

    def chunks(n):
        values = iter(search(n))
        while chunk := list(islice(values, CHUNK)):
            yield chunk

    return chunks


def _sorted(search):
    return lambda n: sorted(search(n))


# family -> (class, search yielding the raw values of order n in order, in
# chunks: int8 entry arrays or lists of row tuples)
_SEARCH = {
    FamilyId.BOOLEAN: (BooleanTriangle, _boolean_chunks),
    FamilyId.PERMUTATION_BOOLEAN: (BooleanTriangle, _chunks(_iter_perm_boolean_rows)),
    FamilyId.PERMUTATION: (Permutation, _chunks(lambda n: permutations(range(1, n + 1)))),
    FamilyId.MONOTONE: (
        MonotoneTriangle,
        _chunks(_sorted(lambda n: _monotone_towers(n, _monotone_rows_above))),
    ),
    FamilyId.MAGOG: (
        MagogTriangle,
        _chunks(_sorted(lambda n: _monotone_towers(n, lambda row: _magog_rows_above(row, n)))),
    ),
    FamilyId.ASM: (Asm, _asm_chunks),
    FamilyId.NILP: (NilpNest, _chunks(_sorted(_iter_nilp_paths))),
}


def _validated(family, n):
    """The search chunks of the family at order n as validated entry arrays
    (see ``triangles.validate_batch``; TSSCPPs: flat heights arrays), in
    search order.  A chunk that fails a check goes through the constructors,
    which raise the first violation."""
    if family is FamilyId.TSSCPP:
        for chunk in _boolean_chunks(n):
            yield bijections.booleans_to_tsscpp(n, chunk).reshape(len(chunk), -1)
        return
    cls, search = _SEARCH[family]
    for chunk in search(n):
        a = validate_batch(cls, n, chunk)
        if a is None:
            build_batch(cls, n, chunk)  # the constructors raise the first violation
            raise AssertionError(f"{cls.__name__}: constructors accept a chunk the batch refused")
        yield a


def _tsscpp_heights(n):
    """The flat heights arrays of the TSSCPPs of order n in lexicographic
    order, in the narrowest dtype (heights are at most 2n)."""
    dtype = np.min_scalar_type(2 * n)
    heights = np.concatenate([chunk.astype(dtype) for chunk in _validated(FamilyId.TSSCPP, n)])
    return heights[np.lexsort(heights.T[::-1])]


def _arrays(family, n):
    """The class of the family, and its validated entry arrays of at most
    ``CHUNK`` values each, in the order of :func:`generate`."""
    if family is not FamilyId.TSSCPP:
        return _SEARCH[family][0], _validated(family, n)
    heights = _tsscpp_heights(n)
    chunks = (heights[start : start + CHUNK] for start in range(0, len(heights), CHUNK))
    return PlanePartition, chunks


@lru_cache(maxsize=32)
def _elements(family, n):
    if family is FamilyId.TSSCPP:
        cls, chunks = _arrays(family, n)
    else:
        cls, search = _SEARCH[family]
        chunks = search(n)
    return tuple(chain.from_iterable(build_batch(cls, n, chunk) for chunk in chunks))


def _checked(family, n, max_n):
    family = FamilyId(family)
    if n < 1:
        raise CapExceeded(f"order must be >= 1, got {n}")
    cap = _cap(family, max_n)
    if n > cap:
        raise CapExceeded(
            f"order {n} exceeds the cap {cap} for {family.value} "
            f"(raise it with max_n or {ENV_CAP})"
        )
    return family


def generate(family, n, *, max_n=None):
    """Yield the family at order n, each object once, deterministic order."""
    family = _checked(family, n, max_n)
    yield from _elements(family, n)


def count(family, n, *, max_n=None) -> int:
    """Size of the family at order n; every value is validated, none built."""
    family = _checked(family, n, max_n)
    return sum(len(a) for a in _validated(family, n))


def entries(family, n):
    """The entries of the objects of :func:`generate`, in its order, as one
    array with a row per object (the rows of :func:`jsonl`'s entry arrays,
    in the narrowest dtype that holds -1..2n).  Every value is validated,
    none is built."""
    family = _checked(family, n, None)
    dtype = np.min_scalar_type(-2 * n)
    return np.concatenate([a.astype(dtype) for a in _arrays(family, n)[1]])


def jsonl(family, n, *, max_n=None):
    """Yield the JSON lines of :func:`generate` (``triangles.to_json`` of each
    object, newline-terminated) as one text block per chunk of at most
    ``CHUNK`` values.  Every value is validated, none is built, and nothing
    enters the cache of :func:`generate`."""
    family = _checked(family, n, max_n)
    cls, arrays = _arrays(family, n)
    for a in arrays:
        yield format_batch(cls, n, a)
