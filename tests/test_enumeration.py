"""Generators: counts, validity, determinism, caps, and cross-images."""

import tracemalloc

import numpy as np
import pytest

import golden_data as gold
import reference_maps as ref
import reference_search
import reference_stats
from gogmagog import bijections as bij
from gogmagog import enumeration
from gogmagog.statistics import KINDS, object_statistics
from gogmagog.enumeration import CapExceeded, DEFAULT_CAPS, FamilyId, count, generate
from gogmagog.triangles import SCHEMA, ValidationError, build_batch, entry_row, validate_tsscpp

ASM_COUNTS = [1, 2, 7, 42, 429]  # continues 7436 at order six


def test_order_three_counts_are_seven():
    for family in (FamilyId.ASM, FamilyId.MONOTONE, FamilyId.MAGOG, FamilyId.BOOLEAN, FamilyId.NILP, FamilyId.TSSCPP):
        assert count(family, 3) == 7
    assert count(FamilyId.PERMUTATION, 3) == 6
    assert count(FamilyId.PERMUTATION_BOOLEAN, 3) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_asm_sequence(n):
    assert count(FamilyId.ASM, n) == ASM_COUNTS[n - 1]
    assert count(FamilyId.BOOLEAN, n) == ASM_COUNTS[n - 1]


def test_four_generators_agree_at_order_six():
    """The ASM and boolean searches are independent algorithms, and the
    monotone and magog triangles their images; all four must land on the
    same count."""
    counts = {
        family: count(family, 6)
        for family in (FamilyId.ASM, FamilyId.BOOLEAN, FamilyId.MONOTONE, FamilyId.MAGOG)
    }
    assert set(counts.values()) == {7436}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_factorial_counts(n):
    expected = 1
    for i in range(2, n + 1):
        expected *= i
    assert count(FamilyId.PERMUTATION_BOOLEAN, n) == expected


def test_streams_have_no_duplicates_and_only_valid_objects():
    for family in FamilyId:
        objects = list(generate(family, 4))
        assert len(set(objects)) == len(objects)
        # construction re-validates, so materializing is already a check;
        # spot-check the plane partitions fully
        if family is FamilyId.TSSCPP:
            assert all(validate_tsscpp(p).all_true for p in objects)


def test_deterministic_row_major_order():
    booleans = [b.rows for b in generate(FamilyId.BOOLEAN, 4)]
    assert booleans == sorted(booleans)
    monotones = [m.rows for m in generate(FamilyId.MONOTONE, 4)]
    assert monotones == sorted(monotones)
    magogs = [m.rows for m in generate(FamilyId.MAGOG, 4)]
    assert magogs == sorted(magogs)
    asms = [a.rows for a in generate(FamilyId.ASM, 4)]
    assert asms == sorted(asms)
    nests = [nest.paths for nest in generate(FamilyId.NILP, 4)]
    assert nests == sorted(nests)
    partitions = [p.rows for p in generate(FamilyId.TSSCPP, 4)]
    assert partitions == sorted(partitions)
    again = [b.rows for b in generate(FamilyId.BOOLEAN, 4)]
    assert booleans == again


def test_order_three_equals_golden_lists():
    assert [a.rows for a in generate(FamilyId.ASM, 3)] == sorted(gold.ASMS_3)
    assert [b.rows for b in generate(FamilyId.BOOLEAN, 3)] == sorted(gold.BOOLEAN_3)
    assert [m.rows for m in generate(FamilyId.MAGOG, 3)] == sorted(gold.MAGOG_3)
    assert [p.rows for p in generate(FamilyId.TSSCPP, 3)] == sorted(gold.TSSCPP_3)


def test_generator_counts_match_bijection_images():
    for n in (2, 3, 4):
        asms = set(generate(FamilyId.ASM, n))
        assert {ref.monotone_to_asm(m) for m in generate(FamilyId.MONOTONE, n)} == asms
        nests = set(generate(FamilyId.NILP, n))
        assert {ref.boolean_to_nilp(b) for b in generate(FamilyId.BOOLEAN, n)} == nests
        perm_booleans = set(generate(FamilyId.PERMUTATION_BOOLEAN, n))
        booleans = set(generate(FamilyId.BOOLEAN, n))
        assert perm_booleans == {b for b in booleans if object_statistics(b)["is_permutation"]}


def test_caps(monkeypatch):
    with pytest.raises(CapExceeded):
        list(generate(FamilyId.ASM, DEFAULT_CAPS[FamilyId.ASM] + 1))
    with pytest.raises(CapExceeded):
        count(FamilyId.BOOLEAN, 0)
    monkeypatch.setenv("TSSCPP_MAX_N", "3")
    with pytest.raises(CapExceeded):
        list(generate(FamilyId.BOOLEAN, 4))
    monkeypatch.setenv("TSSCPP_MAX_N", "4")
    assert count(FamilyId.BOOLEAN, 4) == 42


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("TSSCPP_MAX_N", "3")
    with pytest.raises(CapExceeded):
        list(generate(FamilyId.BOOLEAN, 4))
    assert count(FamilyId.BOOLEAN, 3) == 7
    monkeypatch.setenv("TSSCPP_MAX_N", "4")
    assert count(FamilyId.BOOLEAN, 4) == 42


def test_family_from_string():
    assert count("boolean", 3) == 7
    assert count("permutation-boolean", 3) == 6


def _flat_entries(value):
    """The entries of a raw value row-major, 1 for a "D" nest step and 0
    for a "V" step."""
    if value and not isinstance(value[0], tuple):  # a permutation
        return list(value)
    steps = {"V": 0, "D": 1}
    return [steps.get(entry, entry) for row in value for entry in row]


# The largest order at which each family is compared with its reference.
REFERENCE_TOP = {
    "boolean": 7,
    "asm": 7,
    "monotone": 7,
    "magog": 7,
    "nilp": 7,
    "permutation": 8,
    "permutation-boolean": 8,
}


@pytest.mark.parametrize("family", list(REFERENCE_TOP))
def test_frontier_search_equals_the_recursive_reference(family):
    """The searches, and the sorted images of the batched bijections, give
    the values of the backtracking searches in the same order; the searches
    in int8 chunks of at most CHUNK rows."""
    for n in range(1, REFERENCE_TOP[family] + 1):
        if FamilyId(family) in enumeration._SEARCH:
            chunks = list(enumeration._SEARCH[FamilyId(family)][1](n))
            assert all(c.dtype == np.int8 and len(c) <= enumeration.CHUNK for c in chunks)
        expected = [_flat_entries(value) for value in reference_search.values(family, n)]
        assert enumeration.entries(family, n).tolist() == expected, (family, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_each_asm_suffix_block_is_the_row_search_from_its_mask(n):
    """The completions ``_asm_chunks`` joins to a prefix of h = ceil(n / 2)
    rows are, for each column-prefix mask, the row search started from that
    mask alone, in its order; a mask without h bits set has none."""
    h = (n + 1) // 2
    tails, offsets = enumeration._asm_suffixes(n)
    assert tails.dtype == np.int8 and offsets[-1] == len(tails)
    for mask in range(1 << n):
        block = tails[offsets[mask] : offsets[mask + 1]]
        state, expected = np.array([mask]), np.zeros((1, 0), dtype=np.int8)
        for r in range(h, n):
            state, expected = enumeration._asm_step(n, r, state, expected)
        assert block.tolist() == (expected.tolist() if mask.bit_count() == h else []), mask


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_asm_chunks_split_the_joined_blocks_at_any_chunk_size(chunk, monkeypatch):
    """With chunks smaller than the suffix blocks and than the prefix
    blocks, the join still gives the reference's ASMs in order, in chunks
    of at most ``chunk`` rows."""
    monkeypatch.setattr(enumeration, "CHUNK", chunk)
    for n in range(1, 6):
        chunks = list(enumeration._asm_chunks(n))
        assert all(0 < len(c) <= chunk for c in chunks)
        expected = [_flat_entries(value) for value in reference_search.values("asm", n)]
        assert np.concatenate(chunks).tolist() == expected, n


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_boolean_chunks_split_the_last_row_at_any_chunk_size(chunk, monkeypatch):
    """With chunks smaller than the children of one state and than a block
    of states, the last row's slices still give the reference's boolean
    triangles in order, in chunks of at most ``chunk`` rows."""
    monkeypatch.setattr(enumeration, "CHUNK", chunk)
    for n in range(1, 7):
        chunks = list(enumeration._boolean_chunks(n))
        assert all(0 < len(c) <= chunk and c.dtype == np.int8 for c in chunks)
        expected = [_flat_entries(value) for value in reference_search.values("boolean", n)]
        assert np.concatenate(chunks).tolist() == expected, n


@pytest.mark.parametrize("n", range(1, 10))
def test_rise_masks_equal_the_definition(n):
    """Bit j of a row's mask is set where row r rises by one onto diagonal
    q = n - 1 - r + j >= 2, for the candidates and for random diagonal sums
    alike; the search against the reference above shows the bitmask test
    admits the same rows as the sums."""
    rng = np.random.default_rng(n)
    for r in range(n - 1):
        _, placed, rises = enumeration._boolean_candidates(n, r)
        sums = rng.integers(-2, n, (50, n)).astype(np.int8)
        for x, masks in ((placed, rises), (sums, enumeration._rises(sums, r))):
            expected = [
                sum(1 << q - (n - 1 - r) for q in range(max(2, n - 1 - r), n) if row[q] - row[q - 1] == 1)
                for row in x.tolist()
            ]
            assert masks.tolist() == expected


def test_a_derived_map_that_repeats_a_value_raises(monkeypatch):
    cls, source, image = enumeration._DERIVED[FamilyId.MONOTONE]

    def repeating(n, a):
        out = image(n, a)
        out[1] = out[0]
        return out

    monkeypatch.setitem(enumeration._DERIVED, FamilyId.MONOTONE, (cls, source, repeating))
    with pytest.raises(ValidationError, match="^monotone: the batched map gave one value twice at order 4$"):
        enumeration.entries("monotone", 4)


@pytest.mark.parametrize("stack_bytes", [1, 100, 250, 1 << 25])
def test_stacked_chunks_equal_the_chunks_joined_at_once(monkeypatch, stack_bytes):
    """Joined into blocks of one chunk, of a few (an empty one among them)
    or of all, the chunks are those joined at once, in the dtype asked for."""
    rng = np.random.default_rng(0)
    chunks = [rng.integers(-1, 15, (rows, 5)).astype(np.int16) for rows in (7, 0, 20, 3, 11)]
    monkeypatch.setattr(enumeration, "_STACK_BYTES", stack_bytes)
    got = enumeration._stacked(iter(chunks), np.int8)
    assert got.dtype == np.int8 and np.array_equal(got, np.concatenate(chunks))


# A frontier held whole at n = 7 peaks at 190 MB (boolean) and 300 MB (asm)
# of traced allocations; CHUNK-sized blocks stay below 7 MB.
PEAK_BYTES = 12_000_000


@pytest.mark.parametrize("family", ["asm", "boolean"])
def test_count_at_order_seven_expands_the_frontier_in_blocks(family):
    enumeration._asm_table.cache_clear()
    enumeration._asm_suffixes.cache_clear()
    enumeration._boolean_candidates.cache_clear()
    tracemalloc.start()
    try:
        assert count(family, 7) == 218348
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES


# The scalar map of each family derived from a searched one.
ORACLE_MAPS = {
    FamilyId.MONOTONE: ref.asm_to_monotone,
    FamilyId.MAGOG: ref.boolean_to_magog,
    FamilyId.NILP: ref.boolean_to_nilp,
    FamilyId.TSSCPP: ref.boolean_to_tsscpp,
    FamilyId.PERMUTATION_BOOLEAN: ref.permutation_to_boolean,
}


@pytest.mark.parametrize("family", list(enumeration._SEARCH), ids=lambda f: f.value)
def test_int8_search_chunks_give_the_oracle_statistics_and_maps_up_to_the_cap(family):
    """``_validated`` hands the search's int8 chunks on unwidened.  Every
    function of ``statistics.KINDS`` for the family's kind and every batched
    map out of the family equal the scalar oracles on them at every order
    up to the default cap: on every value through order 5, and on every
    61st value of each chunk beyond."""
    cls = enumeration.FAMILY_CLASSES[family]
    maps = [(derived, image) for derived, (_, source, image) in enumeration._DERIVED.items() if source is family]
    for n in range(1, DEFAULT_CAPS[family] + 1):
        stride = 1 if n <= 5 else 61
        for chunk in enumeration._validated(family, n):
            assert chunk.dtype == np.int8
            sample = np.ascontiguousarray(chunk[::stride])
            objects = build_batch(cls, n, sample)
            expected = [reference_stats.object_statistics(obj) for obj in objects]
            for name, func in KINDS[SCHEMA[cls][0]].items():
                got = func(n, chunk)[::stride].tolist()
                assert got == [stats[name] or 0 for stats in expected], (n, name)
            for derived, image in maps:
                got = image(n, sample).reshape(len(sample), -1).tolist()
                assert got == [entry_row(ORACLE_MAPS[derived](obj))[0].tolist() for obj in objects], (n, derived)
