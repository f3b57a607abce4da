"""Exhaustive generators and counters for every family.

Each family yields its objects exactly once, in lexicographic order on the
row-major representation.  Three searches yield int8 entry arrays.  Boolean
triangles are searched row by row over a numpy frontier: every state, the
diagonal partial sums so far, is extended by all admissible next rows at
once, blocks of ``CHUNK`` states at a time, depth first.  ASMs are joined
from two halves: the same row search, over column-prefix 0/1 masks, gives
the first ceil(n/2) rows, and each such prefix is followed by every
completion of its mask, a block built once per order; the joined rows are
cut into chunks of ``CHUNK``.  Permutations are joined the same way: each
prefix of all but the last five positions is followed by the block of the
permutations of five, relabelled by its missing values.  Every other family
is the image of one of them under a batched bijection (``_DERIVED``):
monotone triangles of ASMs, magog triangles, nests and TSSCPPs of boolean
triangles, permutation boolean triangles of permutations.  An image is put
in order by one ``np.lexsort``; equal neighbours after the sort would mean
the map is not injective, and raise.

The search output is validated in chunks of at most ``CHUNK`` values by
the check of ``triangles.validate_batch``, with every check the
constructors make, and passed on in its int8 dtype; each batched map checks
its own output the same way.  :func:`count` adds up
the sizes of the validated chunks, unsorted, and :func:`jsonl` writes their
JSON lines straight from the entry arrays (``triangles.format_batch``);
neither builds an object.  :func:`generate` builds the objects of a
validated chunk without checking each one again, and keeps them in a cache.
A search chunk that fails a check goes to ``triangles.build_batch``, which
raises the first violation of its first bad value.

Orders are capped (``DEFAULT_CAPS``; the ``TSSCPP_MAX_N`` environment
variable, read by :func:`_cap`, replaces every default) because the families
grow too fast for anything beyond desk scale.  :func:`_check_order` is the
one order guard, shared by this module, the ``orders`` builders and
``claims.verify_all``.
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
    ValidationError,
    _passed,
    build_batch,
    format_batch,
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


def _cap(family=None):
    """The order cap of the family: ``TSSCPP_MAX_N`` if set, else the family
    default (None without a family).  A malformed ``TSSCPP_MAX_N`` raises
    CapExceeded."""
    env = os.environ.get(ENV_CAP)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CapExceeded(f"{ENV_CAP} must be an integer, got {env!r}") from None
    return DEFAULT_CAPS.get(family)


def _check_order(n, family=None):
    """Refuse an order below 1 and, given a family, an order above its cap;
    return the family as a FamilyId.  The cap is read first, so a malformed
    ``TSSCPP_MAX_N`` is refused by every command that takes an order,
    whatever the order."""
    family = None if family is None else FamilyId(family)
    cap = _cap(family)
    if n < 1:
        raise CapExceeded(f"order must be >= 1, got {n}")
    if family is not None and n > cap:
        raise CapExceeded(f"order {n} exceeds the cap {cap} for {family.value} (raise it with {ENV_CAP})")
    return family


def _joined(*parts):
    """``np.concatenate([a[i] for a, i in parts], axis=1)`` for int8 arrays
    ``a`` and row indices ``i`` of one length: each gathered row is copied
    as one item of raw bytes, two to three times faster than numpy's gather
    and copy of int8 entries one by one."""
    parts = [(np.ascontiguousarray(a), i) for a, i in parts]
    out = np.empty(len(parts[0][1]), dtype=[(f"f{k}", np.void, a.shape[1]) for k, (a, _) in enumerate(parts)])
    for k, (a, i) in enumerate(parts):
        if a.shape[1]:
            out[f"f{k}"] = a.view(np.dtype((np.void, a.shape[1])))[:, 0][i]
    return out.view(np.int8).reshape(len(out), out.dtype.itemsize)


def _blocked(step, depth, state, entries, level=0):
    """Leaves of a row-by-row search, ``depth`` rows deep, as blocks of at
    most ``CHUNK`` states and their rows of entries.

    ``step(level, state, entries)`` extends a block of frontier states, with
    the entries chosen so far (one row per state), by every admissible next
    row, state-major and candidate-minor, so a block in lexicographic order
    stays in it.  The children are expanded depth first, ``CHUNK`` at a time,
    so each level holds the children of one block at a time, never the whole
    frontier."""
    if level == depth:
        yield state, entries
        return
    state, entries = step(level, state, entries)
    for start in range(0, len(entries), CHUNK):
        block = slice(start, start + CHUNK)
        yield from _blocked(step, depth, state[block], entries[block], level + 1)


@lru_cache(maxsize=None)
def _boolean_candidates(n, r):
    """All 0/1 rows of length r + 1 in lexicographic order, the same rows
    placed on their diagonals (row r of an order-n boolean triangle covers
    diagonals n - 1 - r .. n - 1), and the rising steps of each placed row
    (:func:`_rises`)."""
    rows = np.array(list(product((0, 1), repeat=r + 1)), dtype=np.int8)
    placed = np.zeros((len(rows), n), dtype=np.int8)
    placed[:, n - 1 - r :] = rows
    return rows, placed, _rises(placed, r)


def _rises(x, r):
    """Bit j of entry t is set where ``x[t, q] - x[t, q - 1] == 1`` at the
    diagonal q = n - 1 - r + j >= 2 of row r: one int64 per row of ``x``,
    as row r has r + 1 < 63 entries wherever its 2^(r + 1) candidates fit
    in memory."""
    first, low = x.shape[1] - 1 - r, max(2, x.shape[1] - 1 - r)
    return (np.diff(x[:, low - 1 :], axis=1) == 1) @ (1 << np.arange(low - first, r + 1, dtype=np.int64))


def _boolean_step(n, r, sums, entries):
    """The state is the diagonal partial sums, ``sums[:, q]`` for diagonal q;
    a row is admissible when ``sums[q] <= 1 + sums[q - 1]`` for q >= 2 after
    it.  Every state keeps each such difference at most 1, so a row is
    admissible exactly when it rises on no diagonal where the difference is
    1 already: one test of two bitmasks.  No step reads the sums after the
    last row, so there the state is only each child's parent."""
    rows, placed, rises = _boolean_candidates(n, r)
    state, cand = np.nonzero((_rises(sums, r)[:, None] & rises) == 0)
    entries = _joined((entries, state), (rows, cand))
    return (state if r == n - 2 else sums[state] + placed[cand]), entries


def _boolean_chunks(n):
    """Entry arrays (int8, row-major) of all boolean triangles of order n,
    lexicographic order."""
    start = np.zeros((1, n), dtype=np.int8), np.zeros((1, 0), dtype=np.int8)
    return (entries for _, entries in _blocked(partial(_boolean_step, n), n - 1, *start))


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
    return successor[pos], _joined((entries, state), (rows, row[pos]))


@lru_cache(maxsize=None)
def _asm_suffixes(n):
    """The last n - h rows of the ASMs of order n, h = ceil(n / 2): for each
    column-prefix mask after h rows (h bits set), every completion, in
    lexicographic order, as CSR offsets by mask into one int8 array of
    row-major entries.  One search from all these masks, in increasing
    order, keeps each mask's completions together; a completion's mask is
    the columns it leaves at zero, as every column of an ASM sums to 1."""
    h = (n + 1) // 2
    masks = np.array([m for m in range(1 << n) if m.bit_count() == h], dtype=np.int64)
    state, tails = masks, np.zeros((len(masks), 0), dtype=np.int8)
    for r in range(h, n):
        state, tails = _asm_step(n, r, state, tails)
    empty = tails.reshape(len(tails), n - h, n).sum(axis=1) == 0
    origin = (empty << np.arange(n)).sum(axis=1)
    return tails, np.searchsorted(origin, np.arange((1 << n) + 1))


def _asm_chunks(n):
    """Entry arrays (int8, row-major) of all ASMs of order n, lexicographic
    order: each block of the first h rows from the row search, every prefix
    followed by the completions of its mask (:func:`_asm_suffixes`), in
    slices of ``CHUNK`` rows of that join, each one :func:`_joined`."""
    tails, offsets = _asm_suffixes(n)
    h = (n + 1) // 2
    start = np.zeros(1, dtype=np.int64), np.zeros((1, 0), dtype=np.int8)
    for masks, heads in _blocked(partial(_asm_step, n), h, *start):
        sizes = offsets[masks + 1] - offsets[masks]
        ends = np.cumsum(sizes)
        shift = offsets[masks] - (ends - sizes)  # joined row -> its completion, per prefix
        for first in range(0, ends[-1], CHUNK):
            rows = np.arange(first, min(first + CHUNK, ends[-1]))
            head = np.searchsorted(ends, rows, side="right")
            yield _joined((heads, head), (tails, shift[head] + rows))


# The permutations of the last five positions are one block of 5! = 120 rows,
# so a chunk of CHUNK // 120 = 17 prefixes holds 2,040 permutations.
_TAIL = 5


def _permutation_chunks(n):
    """Entry arrays of all permutations of order n, lexicographic order: the
    prefixes of the first n - k values in lexicographic order, and after
    each the block of the permutations of the last k positions relabelled
    by its missing values, in increasing order."""
    k = min(n, _TAIL)
    block = np.array(list(permutations(range(k))), dtype=np.int8)
    dtype = np.min_scalar_type(-n)
    prefixes = permutations(range(1, n + 1), n - k)
    while heads := list(islice(prefixes, CHUNK // len(block))):
        heads = np.array(heads, dtype=dtype)
        free = np.ones((len(heads), n + 1), dtype=bool)
        free[np.arange(len(heads))[:, None], heads] = False
        missing = np.nonzero(free[:, 1:])[1].reshape(len(heads), k).astype(dtype) + 1
        out = np.empty((len(heads), len(block), n), dtype=dtype)
        out[:, :, : n - k] = heads[:, None]
        out[:, :, n - k :] = missing[:, block]
        yield out.reshape(-1, n)


# family -> (class, search yielding the entry arrays of order n in order, in
# chunks of at most CHUNK values)
_SEARCH = {
    FamilyId.BOOLEAN: (BooleanTriangle, _boolean_chunks),
    FamilyId.ASM: (Asm, _asm_chunks),
    FamilyId.PERMUTATION: (Permutation, _permutation_chunks),
}

# family -> (class, source family, batched map from the source's validated
# entry arrays to the family's): every other family is the image of a
# searched one.
_DERIVED = {
    FamilyId.MONOTONE: (MonotoneTriangle, FamilyId.ASM, bijections.asms_to_monotones),
    FamilyId.MAGOG: (MagogTriangle, FamilyId.BOOLEAN, bijections.booleans_to_magogs),
    FamilyId.NILP: (NilpNest, FamilyId.BOOLEAN, bijections.booleans_to_nests),
    FamilyId.PERMUTATION_BOOLEAN: (BooleanTriangle, FamilyId.PERMUTATION, bijections.permutations_to_booleans),
    FamilyId.TSSCPP: (PlanePartition, FamilyId.BOOLEAN, bijections.booleans_to_tsscpp),
}
# family -> the class of its objects
FAMILY_CLASSES = {family: cls for family, (cls, *_) in {**_SEARCH, **_DERIVED}.items()}


def _validated(family, n):
    """The validated entry arrays of the family at order n, a chunk at a
    time: in search order, or for a derived family in the order of its
    source.  A search chunk is yielded in its own int8 dtype once the rule
    table passes it (``triangles._passed``, the check of
    ``triangles.validate_batch`` without its int64 copy), so a consumer
    widens only where a sum can pass 127; a derived chunk comes in the dtype
    its batched map returns (TSSCPPs: flat int16 heights arrays).  A search
    chunk that fails a check goes to ``build_batch``, which raises the first
    violation; the batched maps check their own output."""
    if family in _DERIVED:
        _, source, image = _DERIVED[family]
        for a in _validated(source, n):
            yield image(n, a).reshape(len(a), -1)
        return
    cls, search = _SEARCH[family]
    for chunk in search(n):
        if _passed(cls, n, chunk) is None:
            build_batch(cls, n, chunk)  # raises the first violation of the first bad value
            raise AssertionError(f"{cls.__name__}: build_batch accepts a chunk the batch check refused")
        yield chunk


def _sorted_image(family, n):
    """The entry arrays of a derived family at order n in lexicographic
    order, in the narrowest dtype that holds -1..2n, as one array.  Nests
    sort by the negated entries, as "D" (stored as 1) sorts before "V".
    Two equal values mean the map is not injective, and raise."""
    dtype = np.min_scalar_type(-2 * n)
    a = np.concatenate([chunk.astype(dtype) for chunk in _validated(family, n)])
    key = -a if _DERIVED[family][0] is NilpNest else a
    if a.shape[1]:  # a value with no entries is alone in its family
        a = a[np.lexsort(key.T[::-1])]
        rows = a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()
        if (rows[1:] == rows[:-1]).any():
            raise ValidationError(f"{family.value}: the batched map gave one value twice at order {n}")
    return a


def _arrays(family, n):
    """The class of the family, and its validated entry arrays of at most
    ``CHUNK`` values each, in the order of :func:`generate`."""
    if family in _SEARCH:
        return _SEARCH[family][0], _validated(family, n)
    a = _sorted_image(family, n)
    return _DERIVED[family][0], (a[start : start + CHUNK] for start in range(0, len(a), CHUNK))


@lru_cache(maxsize=32)
def _elements(family, n):
    cls, chunks = _arrays(family, n)
    return tuple(chain.from_iterable(build_batch(cls, n, chunk) for chunk in chunks))


def generate(family, n):
    """Yield the family at order n, each object once, deterministic order."""
    family = _check_order(n, family)
    yield from _elements(family, n)


def count(family, n) -> int:
    """Size of the family at order n; every value is validated, none built."""
    family = _check_order(n, family)
    return sum(len(a) for a in _validated(family, n))


def entries(family, n):
    """The entries of the objects of :func:`generate`, in its order, as one
    array with a row per object (the rows of :func:`jsonl`'s entry arrays,
    in the narrowest dtype that holds -1..2n).  Every value is validated,
    none is built."""
    family = _check_order(n, family)
    dtype = np.min_scalar_type(-2 * n)
    return np.concatenate([a.astype(dtype) for a in _arrays(family, n)[1]])


def jsonl(family, n):
    """Yield the JSON lines of :func:`generate` (``triangles.to_json`` of each
    object, newline-terminated) as one text block per chunk of at most
    ``CHUNK`` values.  Every value is validated, none is built, and nothing
    enters the cache of :func:`generate`."""
    family = _check_order(n, family)
    cls, arrays = _arrays(family, n)
    for a in arrays:
        yield format_batch(cls, n, a)
