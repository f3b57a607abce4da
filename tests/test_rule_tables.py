"""The batch check of the rule tables (``triangles._Table.violated``) in
column blocks and at the limits of every entry dtype.

``violated`` lays a batch out node-major and checks it a block of values at
a time, each block's largest array within ``triangles._NODE_BYTES``, with
limits clipped to the nodes' dtype: for the whole batch by the minimum and
maximum of each node and the largest difference of each constrained pair,
for each value by one unsigned compare per node.
The oracle for each value is the scalar scan of ``reference_checks`` (or,
on a table made here, the one-row path ``first``, exact for integers of
any size).
"""

from functools import partial

import numpy as np
import pytest

import reference_checks
from gogmagog import triangles
from gogmagog.enumeration import entries, generate
from gogmagog.triangles import (
    Asm,
    BooleanTriangle,
    EntryError,
    FundamentalDomain,
    MagogTriangle,
    MonotoneTriangle,
    NilpNest,
    Permutation,
    PlanePartition,
    ValidationError,
    build_batch,
    entry_row,
    fundamental_domain,
    validate_batch,
)

# class -> (order, the family whose objects give its valid values)
TABLES = {
    MonotoneTriangle: (4, "monotone"),
    MagogTriangle: (4, "magog"),
    BooleanTriangle: (5, "boolean"),
    NilpNest: (5, "nilp"),
    Asm: (4, "asm"),
    PlanePartition: (2, "tsscpp"),
    FundamentalDomain: (3, "tsscpp"),
}

BATCH = 41  # values in a batch; a prime, so no block size divides it


def _valid_entries(cls):
    n, family = TABLES[cls]
    objects = list(generate(family, n))
    if cls is FundamentalDomain:
        objects = [fundamental_domain(p) for p in objects]
    return n, [entry_row(obj)[0].tolist() for obj in objects]


def _raw(cls, n, entries):
    """A value's entries as the rows its constructor takes: a nest's 0 and
    1 as its step letters "V" and "D", any other entry as it is."""
    lengths = triangles._row_lengths(cls, n)
    bounds = np.cumsum([0, *lengths]).tolist()
    if cls is NilpNest:
        entries = ["VD"[e] if e in (0, 1) else e for e in entries]
    return tuple(tuple(entries[start:stop]) for start, stop in zip(bounds, bounds[1:]))


def _refused(cls, n, entries):
    return reference_checks.first_violation(cls, n, _raw(cls, n, entries)) is not None


def _bad_values(cls, n, valid):
    """Single-entry changes of valid values, each to -1, 0, 1, 2 or n + 1,
    that the scalar scan refuses."""
    bad = []
    for entries in valid[:3]:
        for place in range(len(entries)):
            for new in (-1, 0, 1, 2, n + 1):
                changed = entries[:place] + [new] + entries[place + 1 :]
                if changed not in bad and _refused(cls, n, changed):
                    bad.append(changed)
    return bad


def _bytes_per_value(cls, n):
    """The bytes of the largest array ``violated`` makes per value of an
    int8 batch: the nodes with the zero, or the gathered constraint pairs,
    in the table's node dtype."""
    table = triangles._FAMILIES[cls].rules(n)
    return max(len(table._low), len(table._pairs[0])) * table._dtype.itemsize


@pytest.mark.parametrize("cls", list(TABLES), ids=lambda c: c.__name__)
@pytest.mark.parametrize("per_block", [1, 2, 7, 20, BATCH])
def test_blocks_give_the_verdict_of_each_value(cls, per_block, monkeypatch):
    """A batch of 41 int8 values in blocks of 1, 2, 7, 20 and 41 values
    (41, 21, 6, 3 and 1 blocks): a bad value first, last, and on each side
    of the first block edge, alone and all together; every verdict is the
    scalar scan's."""
    n, valid = _valid_entries(cls)
    bad = _bad_values(cls, n, valid)
    table = triangles._FAMILIES[cls].rules(n)
    monkeypatch.setattr(triangles, "_NODE_BYTES", per_block * _bytes_per_value(cls, n))
    calls = []
    nodes = triangles._Table._nodes
    monkeypatch.setattr(triangles._Table, "_nodes", lambda self, a: calls.append(len(a)) or nodes(self, a))
    good = [valid[k % len(valid)] for k in range(BATCH)]
    a = np.array(good, dtype=np.int8)
    assert not table.violated(a)
    assert table.violated(a, axis=1).tolist() == [False] * BATCH
    blocks = -(-BATCH // per_block)
    assert calls == ([per_block] * (blocks - 1) + [BATCH - per_block * (blocks - 1)]) * 2
    edge = min(per_block, BATCH - 1)
    for places in ([0], [edge - 1], [edge], [BATCH - 1], [0, edge - 1, edge, BATCH - 1]):
        values = list(good)
        for k, place in enumerate(places):
            values[place] = bad[(place + k) % len(bad)]
        a = np.array(values, dtype=np.int8)
        expected = [_refused(cls, n, entries) for entries in values]
        assert table.violated(a), places
        assert table.violated(a, axis=1).tolist() == expected, places
        assert validate_batch(cls, n, a) is None


def _at_the_node_limits(cls, n, valid):
    """Valid values with a run of 1, 2 or 3 entries, or every entry from
    one on, set to the min or the max of the table's node dtype, so that
    the sums and the pair differences of those entries wrap in it."""
    limits = np.iinfo(triangles._FAMILIES[cls].rules(n)._dtype)
    changed = []
    for base in (valid[0], valid[len(valid) // 2]):
        for place in range(len(base)):
            for stop in (place + 1, place + 2, place + 3, len(base)):
                for extreme in (int(limits.min), int(limits.max)):
                    entries = base[:place] + [extreme] * (min(stop, len(base)) - place) + base[stop:]
                    if entries not in changed:
                        changed.append(entries)
    return changed


@pytest.mark.parametrize("cls", list(TABLES), ids=lambda c: c.__name__)
def test_entries_at_the_node_dtype_limits_and_sums_that_wrap_in_it(cls):
    """Every table here has int8 nodes.  Values whose entries reach the
    int8 limits, alone among valid values and all together: both forms of
    ``violated`` and ``validate_batch`` refuse exactly the values the
    scalar scan refuses (a domain has no largest entry, so some pass)."""
    n, valid = _valid_entries(cls)
    table = triangles._FAMILIES[cls].rules(n)
    assert table._dtype == np.int8
    changed = _at_the_node_limits(cls, n, valid)
    expected = [_refused(cls, n, entries) for entries in changed]
    assert sum(expected) > len(expected) // 2
    good = [valid[k % len(valid)] for k in range(BATCH)]
    together = np.array(good + changed + good, dtype=np.int8)
    assert table.violated(together, axis=1).tolist() == [False] * BATCH + expected + [False] * BATCH
    assert table.violated(together)
    for entries, refused in zip(changed, expected):
        a = np.array(good[:20] + [entries] + good[20:], dtype=np.int8)
        assert table.violated(a) == refused, entries
        assert table.violated(a, axis=1).tolist() == [False] * 20 + [refused] + [False] * (BATCH - 20), entries
        assert (validate_batch(cls, n, a) is None) == refused, entries


# Each table at two orders, built past the cache: the last order at which
# twice its largest node, for entries within their bounds, fits int8.
@pytest.mark.parametrize("build, last", [
    (triangles._asm_table.__wrapped__, 63),  # prefix sums within -n..n
    (triangles._boolean_table.__wrapped__, 64),  # diagonal sums within 0..n - 1
    (partial(triangles._interlacing_table.__wrapped__, True), 63),  # entries within 1..n
    (triangles._nest_table.__wrapped__, 32),  # path columns within 1..2n - 2
    (triangles._plane_partition_table.__wrapped__, 31),  # entries within 0..2n
], ids=["Asm", "BooleanTriangle", "MagogTriangle", "NilpNest", "PlanePartition"])
def test_the_node_dtype_is_the_narrowest_that_holds_twice_every_node(build, last):
    assert build(last)._dtype == np.int8
    assert build(last + 1)._dtype == np.int16


@pytest.mark.parametrize("cls", list(TABLES), ids=lambda c: c.__name__)
def test_an_empty_batch_violates_nothing(cls, monkeypatch):
    n, valid = _valid_entries(cls)
    table = triangles._FAMILIES[cls].rules(n)
    for limit in (1, triangles._NODE_BYTES):
        monkeypatch.setattr(triangles, "_NODE_BYTES", limit)
        a = np.zeros((0, len(valid[0])), dtype=np.int8)
        assert not table.violated(a)
        assert table.violated(a, axis=1).shape == (0,)
        assert validate_batch(cls, n, a).shape == (0, len(valid[0]))


def test_a_table_without_nodes_checks_in_blocks(monkeypatch):
    """A boolean triangle of order 1 has no entries and no sums: only the
    zero node."""
    table = triangles._boolean_table(1)
    for limit in (1, triangles._NODE_BYTES):
        monkeypatch.setattr(triangles, "_NODE_BYTES", limit)
        a = np.zeros((5, 0), dtype=np.int8)
        assert not table.violated(a)
        assert table.violated(a, axis=1).tolist() == [False] * 5
        assert build_batch(BooleanTriangle, 1, a) == [BooleanTriangle(1, ())] * 5
    assert table.violated(np.zeros((0, 0), dtype=np.int8), axis=1).shape == (0,)


# -- the limits of every entry dtype ----------------------------------------

DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32]

# One valid value of order 3 per class, its entries nonnegative, so that
# every dtype holds it.
ORDER_THREE = {
    MonotoneTriangle: ((2,), (1, 3), (1, 2, 3)),
    MagogTriangle: ((1,), (1, 2), (1, 2, 3)),
    BooleanTriangle: ((1,), (1, 0)),
    NilpNest: (("V",), ("D", "V")),
    Asm: ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    Permutation: (2, 3, 1),
    PlanePartition: tuple(tuple(max(0, 6 - r - c) for c in range(6)) for r in range(6)),
    FundamentalDomain: ((3, 2, 1), (2, 1), (1,)),
}


def _outcome(cls, n, raw):
    """What the constructor does with ``raw``: the class and message of its
    error, or None."""
    try:
        cls(n, raw)
    except ValidationError as error:
        return type(error), str(error)
    return None


@pytest.mark.parametrize("cls", list(ORDER_THREE), ids=lambda c: c.__name__)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_an_entry_at_a_dtype_limit_is_refused_exactly_when_the_constructor_refuses_it(cls, dtype):
    """The dtype's min or max in each place of a valid order-3 value, among
    valid values: the batch check refuses exactly the values the
    constructor refuses, and building the array raises the constructor's
    exception and message."""
    value = ORDER_THREE[cls]
    valid = entry_row(cls(3, value))[0].tolist()
    table = triangles._FAMILIES[cls].rules(3)
    limits = np.iinfo(dtype)
    refused = 0
    for place in range(len(valid)):
        for extreme in (int(limits.min), int(limits.max)):
            entries = valid[:place] + [extreme] + valid[place + 1 :]
            raw = tuple(entries) if cls is Permutation else _raw(cls, 3, entries)
            expected = _outcome(cls, 3, raw)
            if expected is not None:
                error = reference_checks.first_violation(cls, 3, raw)
                assert (type(error), str(error)) == expected, raw
            a = np.array([valid, entries, valid], dtype=dtype)
            assert table.violated(a, axis=1).tolist() == [False, expected is not None, False], raw
            assert (validate_batch(cls, 3, a[1:2]) is None) == (expected is not None), raw
            if expected is None:
                assert build_batch(cls, 3, a)[1] == cls(3, raw)
                continue
            refused += 1
            with pytest.raises(ValidationError) as caught:
                build_batch(cls, 3, a)
            assert (type(caught.value), str(caught.value)) == expected, raw
    assert refused > 0


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_one_sided_and_out_of_range_bounds_match_the_one_row_check(dtype):
    """Tables made here, of two nodes each: one bounded only above and one
    only below, and two whose bounds lie beyond every 16-bit dtype.  On
    every pair of values from a grid spanning the dtype, the batch verdict
    equals that of ``first``, which compares Python integers."""
    rule, key, nodes = triangles._rule, (0, 0, 0, 0), (np.array([0]), np.array([1]))
    tables = [
        triangles._Table(1, 2, None, [
            *rule(EntryError, "{0} above 5", key, nodes[0], high=5, shown=nodes[:1]),
            *rule(EntryError, "{0} below -5", key, nodes[1], low=-5, shown=nodes[1:]),
        ]),
        triangles._Table(1, 2, None, [
            *rule(EntryError, "{0} below 40000", key, nodes[0], low=40_000, shown=nodes[:1]),
            *rule(EntryError, "{0} above -40000", key, nodes[1], high=-40_000, shown=nodes[1:]),
        ]),
    ]
    limits = np.iinfo(dtype)
    grid = [int(limits.min), -40_001, -40_000, -6, -5, 0, 5, 6, 40_000, 40_001, int(limits.max)]
    grid = sorted({v for v in grid if limits.min <= v <= limits.max})
    rows = [[v, w] for v in grid for w in grid]
    a = np.array(rows, dtype=dtype)
    for table in tables:
        expected = [table.first(row, "t") is not None for row in rows]
        assert table.violated(a, axis=1).tolist() == expected
        assert table.violated(a) == any(expected)


# -- the nest check by neighbouring paths -----------------------------------


def _nest_points_meet(n, steps):
    """Whether two paths of a nest of order n share a lattice point: path i
    starts at (i, i), and each step goes one row down, one column right
    for a "D" step (entry 1)."""
    seen, place = set(), 0
    for i in range(1, n):
        x = y = i
        points = [(x, y)]
        for step in steps[place : place + i]:
            x, y = x + step, y - 1
            points.append((x, y))
        place += i
        if seen & set(points):
            return True
        seen |= set(points)
    return False


@pytest.mark.parametrize("n", range(3, 8))
def test_the_nest_check_refuses_shared_points_and_entries_other_than_0_1(n):
    """Every single-entry change of a sample of valid nests: a step flipped,
    which may make two paths share a point, or an entry of 2 or -1.  Both
    forms of ``violated`` and ``validate_batch`` refuse exactly the values
    that are not 0/1 or whose paths meet, and the valid values beside them
    keep their verdict."""
    table = triangles._nest_table(n)
    valid = entries("nilp", n)
    valid = valid[:: max(1, len(valid) // 40)].astype(np.int64)
    mutants, meet = [], 0
    for row in valid.tolist():
        for place in range(len(row)):
            for new in (1 - row[place], 2, -1):
                mutant = row[:place] + [new] + row[place + 1 :]
                mutants.append(mutant)
                meet += new in (0, 1) and _nest_points_meet(n, mutant)
    assert meet > 0
    values = np.array([v for mutant in mutants for v in (valid[0].tolist(), mutant)], dtype=np.int8)
    expected = [not set(v) <= {0, 1} or _nest_points_meet(n, v) for v in values.tolist()]
    assert not any(expected[::2]) and sum(expected) > meet
    for a in (values, values.astype(np.int64)):
        assert table.violated(a, axis=1).tolist() == expected
        assert table.violated(a)
        assert not table.violated(a[::2])
        assert validate_batch(NilpNest, n, a[::2]) is not None
        for i in np.flatnonzero(expected)[:: max(1, sum(expected) // 50)]:
            assert table.violated(a[i : i + 1]) and validate_batch(NilpNest, n, a[i : i + 1]) is None


def test_nest_entries_far_outside_0_1_leave_the_other_verdicts_alone():
    """An entry of +-2**40 is refused, and the nests beside it with
    intersecting or valid paths keep their verdicts."""
    valid, crossing = [1, 1, 1, 1, 1, 1], [1, 0, 0, 1, 1, 1]  # order 4; in the second, paths 1 and 2 meet at (2, 0)
    assert not _nest_points_meet(4, valid) and _nest_points_meet(4, crossing)
    a = np.array([valid, [1, 2**40, 1, 1, 1, 1], crossing, [-(2**40)] + valid[1:], valid], dtype=np.int64)
    assert triangles._nest_table(4).violated(a, axis=1).tolist() == [False, True, True, True, False]


def test_a_shared_point_of_an_order_130_nest_is_reported_where_it_is():
    """Paths 128 and 129 of a nest of order 130 first meet at (255, 1),
    whose column is beyond int8."""
    paths = [("V",) * i for i in range(1, 128)] + [("D",) * 128, ("D",) * 126 + ("V",) * 3]
    with pytest.raises(ValidationError, match=r"^nest: paths 128 and 129 share the point \(255, 1\)$"):
        NilpNest(130, tuple(paths))
