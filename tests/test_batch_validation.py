"""Differential tests of the rule tables against the scalar scans.

The enumeration validates its search output and the images of the batched
bijections in chunks (``validate_batch``, ``booleans_to_tsscpp``) and builds
objects without re-validating them; the constructors check one value on the
same rule tables.  Here the scalar inequality scans of
``reference_checks``, on the values of the recursive reference searches
and their mutations, are the oracle: the batch path must build the same
objects in the same order and reject a value exactly when the scan raises,
and the constructors and ``build_batch`` must raise the scan's first
violation, with the same class, message and position.
"""

import random

import numpy as np
import pytest

import reference_checks
import reference_maps
import reference_search
from gogmagog import bijections, enumeration, triangles
from gogmagog.enumeration import FamilyId, count, generate
from gogmagog.triangles import (
    AlternationError,
    Asm,
    BooleanTriangle,
    EntryError,
    FundamentalDomain,
    MagogTriangle,
    MonotoneTriangle,
    NilpNest,
    Permutation,
    PlanePartition,
    ShapeError,
    ValidationError,
    build_batch,
    entry_row,
    expand_domains,
    fundamental_domain,
    to_json,
    validate_batch,
)


def scalar_objects(family, n):
    """The family built by the validating constructors from the values of
    the recursive reference searches, in the enumeration's order."""
    if family is FamilyId.TSSCPP:
        partitions = [
            reference_maps.boolean_to_tsscpp(BooleanTriangle(n, rows))
            for rows in reference_search.boolean_rows(n)
        ]
        return sorted(partitions, key=lambda p: p.rows)
    cls = reference_search.SEARCH[family][0]
    values = list(reference_search.values(family, n))
    assert not any(reference_checks.first_violation(cls, n, value) for value in values)
    return [cls(n, value) for value in values]


def _forbidden(*args, **kwargs):
    raise AssertionError("the batch path ran a scalar check")


@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
def test_batch_path_builds_what_the_constructors_build(family, monkeypatch):
    for n in range(1, 7):
        expected = scalar_objects(family, n)
        with monkeypatch.context() as m:
            # Every chunk must pass the batch checks: no first-violation
            # search may run (nor, so, any validating constructor), and no
            # scalar expansion.
            m.setattr(triangles, "_check", _forbidden)
            m.setattr(bijections, "boolean_to_tsscpp", _forbidden)
            enumeration._elements.cache_clear()
            got = list(generate(family, n))
            total = count(family, n)
        enumeration._elements.cache_clear()
        assert got == expected, (family, n)
        assert [to_json(obj) for obj in got] == [to_json(obj) for obj in expected]
        assert total == len(expected)


# -- single-entry mutations ---------------------------------------------------


def _raw(obj):
    return obj.sigma if isinstance(obj, Permutation) else obj.paths if isinstance(obj, NilpNest) else obj.rows


def _replacements(value, n):
    """Values to put in place of one entry: nearby and out-of-range integers,
    and the same number as a bool and as a float."""
    if isinstance(value, str):
        return ["D" if value == "V" else "V", "X", 1, True]
    ints = {value - 2, value - 1, value + 1, value + 2, 0, -1, n + 1, 2 * n + 1} - {value}
    return sorted(ints) + [bool(value), True, float(value)]


def _mutations(raw, n):
    """Every single-entry mutation of a raw value, as raw values."""
    if raw and not isinstance(raw[0], tuple):  # a flat permutation
        for i, value in enumerate(raw):
            for new in _replacements(value, n):
                yield raw[:i] + (new,) + raw[i + 1 :]
        return
    for r, row in enumerate(raw):
        for c, value in enumerate(row):
            for new in _replacements(value, n):
                yield raw[:r] + (row[:c] + (new,) + row[c + 1 :],) + raw[r + 1 :]


def _entry_chunk(cls, values, dtype=np.int8):
    """The values as an entry array, one row per value, row-major (nests: 1
    for a "D" step, 0 for a "V" step); None when an entry has no place in
    one (a bool, a float, or in a nest anything but a step letter).  With
    ``dtype`` None: int64, or object when an entry is beyond int64."""
    entries = [list(value) if cls is Permutation else [e for row in value for e in row] for value in values]
    if cls is NilpNest:
        if any(type(entry) is not str or entry not in ("V", "D") for row in entries for entry in row):
            return None
        entries = [[int(entry == "D") for entry in row] for row in entries]
    elif any(type(entry) is not int for row in entries for entry in row):
        return None
    if dtype is None:
        fits = all(-(2**63) <= entry < 2**63 for row in entries for entry in row)
        dtype = np.int64 if fits else object
    return np.array(entries, dtype=dtype).reshape(len(values), -1)


def _report(error):
    """What a refusal tells: class, message, position, and the diagonal pair
    and depth of a partial-sum crossing."""
    return type(error), str(error), error.row, error.col, getattr(error, "j", None), getattr(error, "i_prime", None)


def _assert_constructor_agrees(cls, n, raw, expected):
    """The constructor refuses ``raw`` with ``expected``'s report, or
    accepts it when ``expected`` is None."""
    try:
        cls(n, raw)
    except ValidationError as error:
        assert expected is not None and _report(error) == _report(expected), raw
    else:
        assert expected is None, raw


def _assert_refused_like(cls, n, chunk, expected):
    """Building the chunk raises ``expected``'s report."""
    with pytest.raises(ValidationError) as raised:
        build_batch(cls, n, chunk)
    assert _report(raised.value) == _report(expected)


SAMPLED = [
    (Asm, FamilyId.ASM, 4),
    (Asm, FamilyId.ASM, 5),
    (BooleanTriangle, FamilyId.BOOLEAN, 5),
    (BooleanTriangle, FamilyId.PERMUTATION_BOOLEAN, 5),
    (MonotoneTriangle, FamilyId.MONOTONE, 5),
    (MagogTriangle, FamilyId.MAGOG, 5),
    (NilpNest, FamilyId.NILP, 5),
    (Permutation, FamilyId.PERMUTATION, 5),
    (PlanePartition, FamilyId.TSSCPP, 3),
    (FundamentalDomain, FamilyId.TSSCPP, 4),
]


@pytest.mark.parametrize("cls,family,n", SAMPLED, ids=lambda v: getattr(v, "__name__", str(v)))
def test_batch_check_rejects_exactly_what_the_constructor_rejects(cls, family, n):
    rng = random.Random(2015)
    objects = list(generate(family, n))
    if cls is FundamentalDomain:
        objects = [fundamental_domain(p) for p in objects]
    sample = rng.sample(objects, min(12, len(objects)))
    valid = [_raw(obj) for obj in objects[:5]]
    rejected = arrays = 0
    for obj in sample:
        for raw in _mutations(_raw(obj), n):
            error = reference_checks.first_violation(cls, n, raw)
            _assert_constructor_agrees(cls, n, raw, error)
            # The same value as an int8 entry array, the search's form.
            array = _entry_chunk(cls, [raw])
            if array is None:
                continue
            arrays += 1
            assert (validate_batch(cls, n, array) is None) == (error is not None), raw
            if error is None:
                continue
            rejected += 1
            # In a chunk with valid values the whole chunk is refused, and
            # building it raises the constructor's exception.
            chunk = _entry_chunk(cls, valid + [raw])
            assert validate_batch(cls, n, chunk) is None
            _assert_refused_like(cls, n, chunk, error)
    assert rejected > 0
    assert arrays > 0


def test_asm_batch_check_on_matrices_of_valid_rows():
    """A single-entry mutation always breaks a row sum, so the column checks
    are probed with matrices stacked from valid rows instead."""
    rng = random.Random(1508)
    n = 4
    rows = sorted({row for a in generate(FamilyId.ASM, n) for row in a.rows})
    verdicts = set()
    for _ in range(3000):
        raw = tuple(rng.choice(rows) for _ in range(n))
        error = reference_checks.first_violation(Asm, n, raw)
        assert (validate_batch(Asm, n, _entry_chunk(Asm, [raw])) is None) == (error is not None), raw
        verdicts.add(type(error))
    assert verdicts >= {type(None), AlternationError}


def test_batch_expansion_rejects_exactly_the_inconsistent_domains():
    """Single-entry mutations of fundamental domains that still satisfy the
    domain constructor: the batch expansion refuses exactly those the scalar
    expansion raises on."""
    n = 4
    domains = [reference_maps.fundamental_from_boolean(b) for b in generate(FamilyId.BOOLEAN, n)]
    consistent = inconsistent = 0
    for d in domains[::3]:
        for raw in _mutations(d.rows, n):
            try:
                mutated = FundamentalDomain(n, raw)
            except ValidationError:
                continue
            try:
                expected = reference_maps.expand_fundamental(mutated).rows
            except ValidationError:
                expected = None
            heights = expand_domains(n, reference_maps._padded_domain(mutated))
            if expected is None:
                inconsistent += 1
                assert heights is None, raw
            else:
                consistent += 1
                assert tuple(map(tuple, heights[0].tolist())) == expected
    assert consistent and inconsistent


def test_batch_functions_take_entry_arrays_only():
    """Values in any other form are the constructor's to normalise or
    reject, one at a time."""
    for batch in (validate_batch, build_batch):
        with pytest.raises(TypeError, match="^expected an entry array, got list$"):
            batch(BooleanTriangle, 3, [((1,), (1, 0))])


def test_batch_check_takes_integer_arrays_of_the_expected_width_only():
    """An entry array passes only with an integer dtype that converts to
    int64 exactly and one row of the value's width per value; otherwise the
    constructors decide, on the array's values as nested tuples."""
    rows = ((1,), (1, 0))
    entries = [[1, 1, 0]]
    for dtype in (np.int8, np.int64, np.uint8):
        a = validate_batch(BooleanTriangle, 3, np.array(entries, dtype=dtype))
        assert a.dtype == np.int64 and a.tolist() == entries
    assert build_batch(BooleanTriangle, 3, np.array(entries, dtype=np.int8)) == [BooleanTriangle(3, rows)]
    refused = [
        np.array(entries, dtype=np.float64),
        np.array(entries, dtype=bool),
        np.array(entries, dtype=np.uint64),
        np.array([[1, 1]], dtype=np.int8),
        np.array([[1, 1, 0, 0]], dtype=np.int8),
        np.array([1, 1, 0], dtype=np.int8),
        np.array([entries], dtype=np.int8),
    ]
    for array in refused:
        assert validate_batch(BooleanTriangle, 3, array) is None, array
    with pytest.raises(EntryError):
        build_batch(BooleanTriangle, 3, refused[0])
    with pytest.raises(EntryError):
        build_batch(BooleanTriangle, 3, refused[1])
    # 2**64 - 1 would read as -1 in int64; the constructor sees the integer.
    with pytest.raises(EntryError):
        build_batch(Asm, 1, np.array([[2**64 - 1]], dtype=np.uint64))
    for array in refused[3:]:
        with pytest.raises(ShapeError):
            build_batch(BooleanTriangle, 3, array)
    # A nest array holds 1 for a "D" step and 0 for a "V" step.
    nest = NilpNest(3, (("V",), ("D", "V")))
    array = np.array([[0, 1, 0]], dtype=np.int8)
    assert validate_batch(NilpNest, 3, array).tolist() == entry_row(nest).tolist()
    assert build_batch(NilpNest, 3, array) == [nest]
    for array in (np.array([[0, 2, 0]], dtype=np.int8), np.array([[0, 1]], dtype=np.int8)):
        assert validate_batch(NilpNest, 3, array) is None, array
    with pytest.raises(EntryError):
        build_batch(NilpNest, 3, np.array([[0, 2, 0]], dtype=np.int8))
    with pytest.raises(ShapeError):
        build_batch(NilpNest, 3, np.array([[0, 1]], dtype=np.int8))


# -- first violations ---------------------------------------------------------

# Values that break several rules at once; the oracle's scan decides which
# one is reported first.
SEVERAL = [
    (PlanePartition, 1, ((5, 0), (1, 2))),  # an entry out of range, then an increase
    (PlanePartition, 2, ((4, 4, 3, 1), (4, 5, 2, 1), (2, 2, 2, 0), (1, 0, 0, 0))),  # an increase, then an entry out of range
    (Asm, 3, ((0, 1, 1), (1, 2, 0), (0, 0, 0))),  # an alternation, then an entry of 2
    (Asm, 3, ((1, 0, 0), (0, 0, 0), (0, 1, 1))),  # a row sum, then a column prefix sum
    (Asm, 2, ((1, 0), (1, 0))),  # a column prefix sum past 1
    (Asm, 2, ((0, 1), (0, 1))),  # a column prefix sum past 1 in the last column
    (BooleanTriangle, 4, ((1,), (0, 1), (0, 1, 2))),  # partial sums cross, then an entry of 2
    (BooleanTriangle, 5, ((1,), (1, 1), (1, 1, 1), (0, 0, 1, 1))),
    (MonotoneTriangle, 3, ((2,), (2, 5), (1, 2, 3))),
    (MonotoneTriangle, 3, ((4,), (2, 2), (1, 2, 3))),
    (MonotoneTriangle, 3, ((3,), (1, 2), (1, 3, 3))),  # the bottom row comes first
    (MagogTriangle, 3, ((3,), (1, 1), (1, 2, 3))),
    (MagogTriangle, 3, ((1,), (3, 3), (1, 2, 3))),
    (FundamentalDomain, 2, ((1, 2), (-1,))),  # an increase, then a negative entry
    (FundamentalDomain, 3, ((3, 3, 4), (4, 1), (-2,))),
    (FundamentalDomain, 2, ((10**30, 1), (3,))),  # an entry beyond int64
    (MonotoneTriangle, 3, ((2**63,), (1, 2), (1, 2, 3))),
    (PlanePartition, 1, ((2, 2), (-(2**63), 0))),  # differences that overflow int64
    (NilpNest, 4, (("D",), ("D", "D"), ("V", "V", "V"))),
    (NilpNest, 5, (("D",), ("V", "V"), ("V", "V", "D"), ("V", "V", "V", "V"))),
    (Permutation, 4, (2, 2, 5, 1)),
    (Permutation, 2, (2**70, 1)),
]


@pytest.mark.parametrize("cls,n,raw", SEVERAL, ids=lambda v: getattr(v, "__name__", None))
def test_several_violations_report_the_first_in_scan_order(cls, n, raw):
    error = reference_checks.first_violation(cls, n, raw)
    assert error is not None
    _assert_constructor_agrees(cls, n, raw, error)
    _assert_refused_like(cls, n, _entry_chunk(cls, [raw], dtype=None), error)


def _mutated(rng, raw, n, count):
    """``raw`` with ``count`` random entries replaced by random integers of
    -1..2n+1 (nests: steps flipped)."""
    flat = isinstance(raw[0], int)
    rows = [list(raw)] if flat else [list(row) for row in raw]
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    for r, c in rng.sample(cells, min(count, len(cells))):
        value = rows[r][c]
        rows[r][c] = ("D" if value == "V" else "V") if isinstance(value, str) else rng.randint(-1, 2 * n + 1)
    return tuple(rows[0]) if flat else tuple(map(tuple, rows))


@pytest.mark.parametrize("cls,family,n", SAMPLED, ids=lambda v: getattr(v, "__name__", str(v)))
def test_first_violation_of_several_mutations_and_of_a_later_bad_row(cls, family, n):
    """Values with two or three mutated entries: the constructor reports the
    scan's first violation, and so does building an int8 entry array in
    which the value is the first bad one but not the first."""
    rng = random.Random(1991)
    objects = list(generate(family, n))
    if cls is FundamentalDomain:
        objects = [fundamental_domain(p) for p in objects]
    valid = [_raw(obj) for obj in objects]
    refused = 0
    for _ in range(150):
        raw = _mutated(rng, rng.choice(valid), n, rng.randint(2, 3))
        error = reference_checks.first_violation(cls, n, raw)
        _assert_constructor_agrees(cls, n, raw, error)
        if error is None:
            continue
        refused += 1
        later = _mutated(rng, rng.choice(valid), n, 1)
        array = _entry_chunk(cls, rng.sample(valid, 3) + [raw] + rng.sample(valid, 2) + [later])
        assert validate_batch(cls, n, array) is None
        _assert_refused_like(cls, n, array, error)
    assert refused > 50
