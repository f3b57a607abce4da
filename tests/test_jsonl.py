"""The JSON-lines path: ``enumeration.jsonl`` and ``triangles.format_batch``.

``jsonl`` writes the lines of ``generate`` straight from the validated entry
arrays of the search, without building objects.  The oracle is ``to_json``
of the objects ``generate`` builds.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from gogmagog import enumeration, triangles
from gogmagog.enumeration import FAMILY_CLASSES, FamilyId, generate, jsonl
from gogmagog.triangles import (
    Asm,
    BooleanTriangle,
    NilpNest,
    Permutation,
    PlanePartition,
    ValidationError,
    build_batch,
    format_batch,
    to_json,
    validate_batch,
)


def _expected(family, n):
    return "".join(to_json(obj) + "\n" for obj in generate(family, n))


@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
def test_jsonl_equals_to_json_of_generate(family):
    """Chunk by chunk, and as one ``format_batch`` of the family's whole
    entry array in its narrow dtype."""
    for n in range(1, 7):
        blocks = list(jsonl(family, n))
        assert all(0 < block.count("\n") <= enumeration.CHUNK for block in blocks)
        expected = _expected(family, n)
        assert "".join(blocks) == expected, n
        assert format_batch(FAMILY_CLASSES[family], n, enumeration.entries(family, n)) == expected, n
    enumeration._elements.cache_clear()


@pytest.mark.parametrize("family", ["asm", "boolean"])
def test_jsonl_equals_to_json_of_generate_at_order_seven(family):
    try:
        assert "".join(jsonl(family, 7)) == _expected(family, 7)
    finally:
        enumeration._elements.cache_clear()


def _invalid_boolean_chunk(n):
    """The first search chunk of order n with one value replaced by the
    lexicographically first 0/1 triangle that is not a boolean triangle."""
    chunk = next(enumeration._boolean_chunks(n)).copy()
    valid = set(map(tuple, chunk.tolist()))
    width = chunk.shape[1]
    bad = next(e for e in product((0, 1), repeat=width) if e not in valid)
    chunk[len(chunk) // 2] = bad
    return chunk


def _constructor_error(cls, n, chunk):
    with pytest.raises(ValidationError) as caught:
        build_batch(cls, n, chunk)
    return caught.value


def _assert_raises_like(expected, family, n):
    with pytest.raises(type(expected)) as caught:
        list(jsonl(family, n))
    assert str(caught.value) == str(expected)


@pytest.mark.parametrize("entry", [None, 2, -1])
def test_an_invalid_search_value_raises_the_constructor_error(entry, monkeypatch):
    n = 5
    chunk = _invalid_boolean_chunk(n)
    if entry is not None:
        chunk[3, 4] = entry
    expected = _constructor_error(BooleanTriangle, n, chunk)
    monkeypatch.setitem(enumeration._SEARCH, FamilyId.BOOLEAN, (BooleanTriangle, lambda n: iter([chunk])))
    _assert_raises_like(expected, "boolean", n)
    # TSSCPPs come from the same search, through the batched expansion.
    _assert_raises_like(expected, "tsscpp", n)


def test_an_invalid_asm_search_value_raises_the_constructor_error(monkeypatch):
    """Monotone triangles are the images of the ASM search: an invalid ASM
    stops them with the ASM constructor's error."""
    n = 4
    chunk = next(enumeration._asm_chunks(n)).copy()
    chunk[5, :n] = (0, 1, -1, 1)  # a -1 in the first row, with no 1 above it
    expected = _constructor_error(Asm, n, chunk)
    monkeypatch.setitem(enumeration._SEARCH, FamilyId.ASM, (Asm, lambda n: iter([chunk])))
    _assert_raises_like(expected, "monotone", n)


def _plane_partitions(rng, count, n, top):
    """Random plane partitions of side 2n with entries 0..top: sorting the
    rows and then the columns of any array keeps both weakly decreasing."""
    a = rng.integers(0, top + 1, size=(count, 2 * n, 2 * n))
    a = -np.sort(-a, axis=2)
    return -np.sort(-a, axis=1)


def test_format_batch_is_exact_on_wide_rows_with_large_entries():
    """Order 8: rows of 16 entries up to 16, where a positional code in base
    17 overflows int64."""
    n, side = 8, 16
    a = _plane_partitions(np.random.default_rng(8), 400, n, side)
    # Values that differ in a single entry of a single row.
    twins = a[:200].copy()
    twins[:, side - 1, side - 1] = 0
    twins[:, 0, 0] = side
    a = np.concatenate((a, twins)).reshape(600, -1)
    assert a.max() == side and a.min() == 0
    assert validate_batch(PlanePartition, n, a) is not None
    expected = "".join(to_json(PlanePartition(n, value.reshape(side, side).tolist())) + "\n" for value in a)
    assert format_batch(PlanePartition, n, a) == expected


def test_format_batch_keeps_apart_rows_equal_in_their_low_bytes():
    """Entries 1 and 257 share their low byte, so int8 keys would merge the
    two permutations."""
    n = 300
    identity = np.arange(1, n + 1)
    swapped = identity.copy()
    swapped[[0, 256]] = swapped[[256, 0]]
    a = np.stack((identity, swapped))
    assert validate_batch(Permutation, n, a) is not None
    expected = "".join(to_json(Permutation(n, value)) + "\n" for value in a.tolist())
    assert format_batch(Permutation, n, a) == expected


def _to_json_lines(cls, n, a):
    return "".join(to_json(obj) + "\n" for obj in build_batch(cls, n, a))


@pytest.mark.parametrize("cls", list(FAMILY_CLASSES.values()), ids=lambda c: c.__name__)
def test_format_batch_of_an_empty_batch_is_empty(cls):
    width = sum(triangles._row_lengths(cls, 3))
    assert format_batch(cls, 3, np.zeros((0, width), dtype=np.int64)) == ""


@pytest.mark.parametrize("cls", [BooleanTriangle, NilpNest])
def test_format_batch_of_values_without_rows(cls):
    a = np.zeros((3, 0), dtype=np.int64)
    text = format_batch(cls, 1, a)
    assert text == _to_json_lines(cls, 1, a)
    assert text.splitlines() == [f'{{"kind":"{triangles.SCHEMA[cls][0]}","n":1,"{triangles.SCHEMA[cls][1]}":[]}}'] * 3


@pytest.mark.parametrize("family, n", [("asm", 4), ("boolean", 5), ("tsscpp", 4), ("permutation", 5)])
def test_format_batch_fills_blocks_that_do_not_divide_the_rows(family, n, monkeypatch):
    """41 values, a prime count, in blocks of one line and of 2 to 40 lines
    each: a line of the template is longer than any line of text and, with
    words of at most two bytes, at most twice as long."""
    cls = FAMILY_CLASSES[family]
    a = enumeration.entries(family, n)[:41]
    expected = _to_json_lines(cls, n, a)
    line = max(map(len, expected.splitlines()))
    for limit in (1, 5 * line, 40 * line):
        monkeypatch.setattr(triangles, "_FORMAT_BYTES", limit)
        assert format_batch(cls, n, a) == expected, limit


@pytest.mark.parametrize("dtype", [np.int16, np.uint8, np.int32, np.int64])
def test_format_batch_reads_entries_above_127_in_any_dtype(dtype):
    n = 200
    rng = np.random.default_rng(200)
    a = np.stack([rng.permutation(n) + 1 for _ in range(5)])
    assert a.max() == 200
    expected = "".join(to_json(Permutation(n, value)) + "\n" for value in a.tolist())
    assert format_batch(Permutation, n, a.astype(dtype)) == expected


def test_format_batch_of_one_word_width_and_of_mixed_widths():
    """Permutations of order 9 have one-digit words only, of order 10 also
    a two-digit one; ASMs that are permutation matrices have the words 0
    and 1, the others also -1."""
    for n in (9, 10):
        a = np.stack((np.arange(1, n + 1), np.arange(n, 0, -1)))
        assert format_batch(Permutation, n, a) == _to_json_lines(Permutation, n, a)
    a = enumeration.entries("asm", 4)
    permutations = a[(a >= 0).all(axis=1)]
    assert len(permutations) == 24 and (a < 0).any()
    for block in (permutations, a):
        assert format_batch(Asm, 4, block) == _to_json_lines(Asm, 4, block)


# A search chunk of 2,048 TSSCPPs of order 6 is about 0.8 MB of text.
# Filled a bounded block at a time, format_batch peaks at about twice
# that; filled all at once (whole template block, index and word arrays)
# at about 7.5 times.
def test_format_batch_of_a_tsscpp_chunk_fills_bounded_blocks():
    cls, arrays = enumeration._arrays("tsscpp", 6)
    a = next(iter(arrays))
    assert len(a) == enumeration.CHUNK
    tracemalloc.start()
    try:
        text = format_batch(cls, 6, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == _to_json_lines(cls, 6, a)
    assert peak < 3 * len(text)


# Held whole, the 218,348 boolean triangles of order 7 as objects take about
# 57 MB of traced allocations; a chunk of text and arrays at a time peaks
# at about 7 MB.
PEAK_BYTES = 12_000_000


def test_jsonl_streams_without_objects_or_the_cache():
    enumeration._elements.cache_clear()
    enumeration._boolean_candidates.cache_clear()
    lines = 0
    tracemalloc.start()
    try:
        for block in jsonl("boolean", 7):
            lines += block.count("\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lines == 218348
    assert peak < PEAK_BYTES
    assert enumeration._elements.cache_info().currsize == 0
