"""Validators against independent inequality-scan oracles, error reporting,
and the JSON round trip."""

import itertools
import json

import numpy as np
import pytest

import golden_data as gold
import reference_checks
import reference_maps
from gogmagog import triangles
from gogmagog.enumeration import entries
from gogmagog.statistics import object_statistics
from gogmagog.triangles import (
    AlternationError,
    Asm,
    BooleanTriangle,
    BottomRowError,
    EntryError,
    FundamentalDomain,
    InconsistentDomain,
    InterlaceError,
    IntersectionError,
    MagogTriangle,
    MonotoneTriangle,
    MonotonicityError,
    NilpNest,
    NotTsscpp,
    PartialSumError,
    Permutation,
    PlanePartition,
    RowStrictError,
    RowSumError,
    ShapeError,
    expand_fundamental,
    from_json,
    fundamental_domain,
    to_json,
    validate_tsscpp,
)


# ---------------------------------------------------------------- oracles


def monotone_ok(rows, n):
    if [len(r) for r in rows] != list(range(1, n + 1)):
        return False
    if list(rows[-1]) != list(range(1, n + 1)):
        return False
    for r in range(n):
        for c in range(r + 1):
            v = rows[r][c]
            if not 1 <= v <= n:
                return False
            if c + 1 <= r and not v < rows[r][c + 1]:
                return False
            if r + 1 < n and not rows[r + 1][c] <= v <= rows[r + 1][c + 1]:
                return False
    return True


def magog_ok(rows, n):
    if [len(r) for r in rows] != list(range(1, n + 1)):
        return False
    if list(rows[-1]) != list(range(1, n + 1)):
        return False
    for r in range(n):
        for c in range(r + 1):
            v = rows[r][c]
            if not 1 <= v <= n:
                return False
            if c + 1 <= r and not v < rows[r][c + 1]:
                return False
            if r + 1 < n and not (rows[r + 1][c] <= v and rows[r + 1][c + 1] <= v + 1):
                return False
    return True


def boolean_ok(rows, n):
    """Literal partial-sum scan: for every pair of adjacent diagonals and
    every depth, 1 + (left running sum) >= (right running sum)."""

    def diagonal(q):
        return [rows[r][r - (n - 1 - q)] for r in range(n - 1 - q, n - 1)]

    for q in range(2, n):
        left, right = diagonal(q - 1), diagonal(q)
        for depth in range(1, len(right) + 1):
            if 1 + sum(left[: max(0, depth - 1)]) < sum(right[:depth]):
                return False
    return True


def nest_intersects(paths):
    """All-pairs point-sharing scan over the walked paths."""
    all_points = []
    for i, path in enumerate(paths, start=1):
        x, y = i, i
        points = {(x, y)}
        for step in path:
            x, y = x + (step == "D"), y - 1
            points.add((x, y))
        all_points.append(points)
    for a, b in itertools.combinations(all_points, 2):
        if a & b:
            return True
    return False


# ------------------------------------------------------------- validators


def test_monotone_golden_examples():
    for rows in gold.MONOTONE_3:
        assert MonotoneTriangle(3, rows).rows == rows
    assert MonotoneTriangle(3, [[1], [1, 2], [1, 2, 3]]).n == 3


def test_monotone_interlace_violation_reports_first_position():
    with pytest.raises(InterlaceError) as err:
        MonotoneTriangle(3, [[3], [1, 2], [1, 2, 3]])
    assert (err.value.row, err.value.col) == (1, 1)


def test_monotone_error_kinds():
    with pytest.raises(BottomRowError):
        MonotoneTriangle(3, [[1], [1, 2], [1, 3, 3]])
    with pytest.raises(RowStrictError):
        MonotoneTriangle(3, [[2], [2, 2], [1, 2, 3]])
    with pytest.raises(ShapeError):
        MonotoneTriangle(2, [[1], [1, 2, 3]])
    with pytest.raises(EntryError):
        MonotoneTriangle(3, [[5], [1, 2], [1, 2, 3]])


def all_candidate_towers(n):
    """Every integer filling of the triangular shape with the fixed bottom
    row and entries in 1..n."""
    tops = itertools.product(
        *(itertools.product(range(1, n + 1), repeat=r + 1) for r in range(n - 1))
    )
    bottom = tuple(range(1, n + 1))
    for shape in tops:
        yield shape + (bottom,)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_monotone_matches_oracle_exhaustively(n):
    accepted = set()
    expected = set()
    for rows in all_candidate_towers(n):
        if monotone_ok(rows, n):
            expected.add(rows)
        try:
            MonotoneTriangle(n, rows)
            accepted.add(rows)
        except Exception:
            pass
    assert accepted == expected
    if n == 3:
        assert accepted == set(gold.MONOTONE_3)


def test_magog_golden_examples():
    assert MagogTriangle(3, [[3], [1, 3], [1, 2, 3]]).rows == ((3,), (1, 3), (1, 2, 3))
    assert MagogTriangle(3, [[1], [1, 2], [1, 2, 3]]).n == 3
    # below-right may exceed the entry by exactly one
    assert MagogTriangle(3, [[3], [1, 2], [1, 2, 3]]).rows == ((3,), (1, 2), (1, 2, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_magog_matches_oracle_exhaustively(n):
    accepted = set()
    expected = set()
    for rows in all_candidate_towers(n):
        if magog_ok(rows, n):
            expected.add(rows)
        try:
            MagogTriangle(n, rows)
            accepted.add(rows)
        except Exception:
            pass
    assert accepted == expected
    if n == 3:
        assert accepted == set(gold.MAGOG_3)


def test_boolean_golden_examples():
    assert BooleanTriangle(3, [[0], [0, 1]]).rows == ((0,), (0, 1))
    assert BooleanTriangle(4, [[0], [0, 0], [0, 0, 0]]).n == 4


def test_boolean_partial_sum_violation():
    with pytest.raises(PartialSumError) as err:
        BooleanTriangle(3, [[1], [0, 1]])
    assert (err.value.j, err.value.i_prime) == (1, 2)
    with pytest.raises(EntryError):
        BooleanTriangle(3, [[2], [0, 0]])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_boolean_matches_oracle_exhaustively(n):
    shape = [r + 1 for r in range(n - 1)]
    accepted = set()
    universe = set()
    for flat in itertools.product((0, 1), repeat=sum(shape)):
        rows = []
        pos = 0
        for width in shape:
            rows.append(flat[pos : pos + width])
            pos += width
        rows = tuple(rows)
        universe.add(rows) if boolean_ok(rows, n) else None
        try:
            BooleanTriangle(n, rows)
            accepted.add(rows)
        except PartialSumError:
            pass
    assert accepted == universe
    if n == 3:
        assert accepted == set(gold.BOOLEAN_3)


def test_asm_golden_examples():
    for rows in gold.ASMS_3:
        assert Asm(3, rows).rows == rows
    assert object_statistics(Asm(3, gold.ASMS_3[0]))["is_permutation"]
    assert not object_statistics(Asm(3, gold.ASMS_3[3]))["is_permutation"]
    assert object_statistics(Asm(6, gold.GOLDEN["matrix"]))["is_permutation"]


def test_asm_error_kinds():
    with pytest.raises(RowSumError):
        Asm(2, [[1, 0], [0, 0]])
    # a doubled column shows up as a prefix-sum (alternation) failure
    with pytest.raises(AlternationError):
        Asm(3, [[1, 0, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(AlternationError):
        Asm(3, [[1, -1, 1], [0, 1, 0], [0, 1, 0]])
    with pytest.raises(EntryError):
        Asm(2, [[2, -1], [-1, 2]])


def test_asm_matches_bruteforce_for_n3():
    found = set()
    for flat in itertools.product((-1, 0, 1), repeat=9):
        rows = (flat[0:3], flat[3:6], flat[6:9])
        try:
            Asm(3, rows)
            found.add(rows)
        except Exception:
            pass
    assert found == set(gold.ASMS_3)


def test_nilp_validation():
    nest = NilpNest(3, [("V",), ("D", "V")])
    assert nest.endpoints() == ((1, 0), (3, 0))
    with pytest.raises(IntersectionError):
        NilpNest(3, (("D",), ("V", "V")))
    with pytest.raises(ShapeError):
        NilpNest(3, (("V", "V"),))
    with pytest.raises(EntryError):
        NilpNest(2, (("X",),))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_nilp_intersection_matches_all_pairs_oracle(n):
    """Every step sequence of every path: the constructor refuses exactly
    the nests whose paths meet, with the message of the scalar scan (the
    first shared point in visiting order, and the path that reached it
    first)."""
    lengths = list(range(1, n))
    for flat in itertools.product("VD", repeat=sum(lengths)):
        paths = []
        pos = 0
        for width in lengths:
            paths.append(tuple(flat[pos : pos + width]))
            pos += width
        expected = reference_checks.first_violation(NilpNest, n, tuple(paths))
        assert (expected is None) == (not nest_intersects(paths))
        try:
            NilpNest(n, tuple(paths))
            assert expected is None
        except IntersectionError as error:
            assert str(error) == str(expected)


# --------------------------------------------------------- plane partitions


def test_symmetry_report_on_golden_arrays():
    for rows in gold.TSSCPP_3:
        report = validate_tsscpp(PlanePartition(3, rows))
        assert report.all_true
    big = PlanePartition(6, gold.GOLDEN["tsscpp"])
    assert validate_tsscpp(big).all_true


def brute_symmetries(rows, n):
    side = 2 * n
    points = {
        (i + 1, j + 1, k)
        for i in range(side)
        for j in range(side)
        for k in range(1, rows[i][j] + 1)
    }
    sym = all((j, i, k) in points for (i, j, k) in points)
    cyc = all((j, k, i) in points for (i, j, k) in points)
    box = {
        (i, j, k)
        for i in range(1, side + 1)
        for j in range(1, side + 1)
        for k in range(1, side + 1)
    }
    comp = {(side + 1 - i, side + 1 - j, side + 1 - k) for (i, j, k) in box - points}
    return sym, cyc, comp == points


@pytest.mark.parametrize(
    "rows, n",
    [
        (((0, 0), (0, 0)), 1),
        (((2, 2), (2, 2)), 1),
        (((1, 1), (1, 1)), 1),
        (((2, 1), (1, 0)), 1),
        (((4, 2, 1, 0), (2, 2, 1, 0), (1, 1, 0, 0), (0, 0, 0, 0)), 2),
    ],
)
def test_symmetry_report_matches_bruteforce(rows, n):
    report = validate_tsscpp(PlanePartition(n, rows))
    assert (report.symmetric, report.cyclically_symmetric, report.self_complementary) == brute_symmetries(rows, n)


def test_symmetry_report_edge_cases():
    # empty: symmetric and cyclic, but the complement is the full box
    empty = validate_tsscpp(PlanePartition(2, ((0,) * 4,) * 4))
    assert (empty.symmetric, empty.cyclically_symmetric, empty.self_complementary) == (True, True, False)
    # full box: complement is empty
    full = validate_tsscpp(PlanePartition(2, ((4,) * 4,) * 4))
    assert (full.symmetric, full.cyclically_symmetric, full.self_complementary) == (True, True, False)
    # half-height slab: symmetric and self-complementary but not cyclic
    slab = validate_tsscpp(PlanePartition(2, ((2,) * 4,) * 4))
    assert (slab.symmetric, slab.cyclically_symmetric, slab.self_complementary) == (True, False, True)
    assert brute_symmetries(((2,) * 4,) * 4, 2) == (True, False, True)


def test_plane_partition_monotonicity_error():
    with pytest.raises(MonotonicityError):
        PlanePartition(1, ((0, 1), (0, 0)))


def test_fundamental_domain_extraction():
    assert fundamental_domain(PlanePartition(3, gold.TSSCPP_3[0])).rows == gold.DOMAINS_3[0]
    assert fundamental_domain(PlanePartition(3, gold.TSSCPP_3[1])).rows == gold.DOMAINS_3[1]
    assert fundamental_domain(PlanePartition(3, gold.TSSCPP_3[3])).rows == gold.DOMAINS_3[3]
    with pytest.raises(NotTsscpp):
        fundamental_domain(PlanePartition(2, ((2,) * 4,) * 4))


def test_expand_fundamental_round_trip():
    for rows, domain in zip(gold.TSSCPP_3, gold.DOMAINS_3):
        p = PlanePartition(3, rows)
        d = FundamentalDomain(3, domain)
        assert fundamental_domain(p) == d
        assert expand_fundamental(d) == p


def test_expand_fundamental_checks_the_symmetries_once(monkeypatch):
    calls = []
    monkeypatch.setattr(reference_maps, "validate_tsscpp", lambda p: calls.append(p) or validate_tsscpp(p))
    for rows, domain in zip(gold.TSSCPP_3, gold.DOMAINS_3):
        calls.clear()
        assert reference_maps.expand_fundamental(FundamentalDomain(3, domain)).rows == rows
        assert len(calls) == 1


def test_expand_fundamental_rejects_inconsistent_domain():
    # the last domain column is forced to zero; a one there cannot expand
    with pytest.raises(InconsistentDomain):
        expand_fundamental(FundamentalDomain(3, ((1, 1, 1), (1, 1), (1,))))


def _random_domain_arrays():
    """Order n -> 300 random domain entry arrays of order n, every entry
    drawn from -2..2n+2 (domains or not), for n = 1..5: the domain cells of
    random (2n+1)-square arrays."""
    rng = np.random.default_rng(128)
    arrays = {}
    for n in range(1, 6):
        square = rng.integers(-2, 2 * n + 3, (300, 2 * n + 1, 2 * n + 1)).astype(np.int16)
        rows, cols = np.triu_indices(n)
        arrays[n] = square[:, n + 1 + rows, n + 1 + cols]
    return arrays


def _closures_are_symmetric_and_self_complementary(closure):
    """Whether the cubes ``closure(n, a)`` equal their transposes and their
    complement for domain entry arrays of every order 1..5: the random ones
    and those of every TSSCPP of order up to 4."""
    for n, a in _random_domain_arrays().items():
        if n <= 4:
            a = np.concatenate((a, triangles.tsscpps_to_domains(n, entries("tsscpp", n))))
        m = closure(n, a)
        if not ((m == m.transpose(0, 2, 1, 3)).all() and (m == m.transpose(0, 3, 1, 2)).all()
                and (m == ~m[:, ::-1, ::-1, ::-1]).all()):
            return False
    return True


def _closure_deciding_every_cell_itself(n, a):
    """A wrong closure: a cell sorted to (u >= v >= w) is a member iff
    w <= t[v][u], also where v <= n, outside the domain, where t reads 0."""
    side = 2 * n
    cell = np.arange(1, side + 1)
    w, v, u = np.sort(np.stack(np.meshgrid(cell, cell, cell, indexing="ij")).reshape(3, -1), axis=0)
    member = reference_maps._corner_square(n, a)[:, v, u] >= w
    return member.reshape(len(a), side, side, side)


def test_every_closure_is_totally_symmetric_and_self_complementary():
    """``expand_domains`` gathers one column per orbit of transpose and
    complement, which is exact only because the closure it decides cell by
    sorted cell is totally symmetric and self-complementary for any domain
    entry array.  The check above tells a closure that decides the cells of
    small middle coordinate itself."""
    assert _closures_are_symmetric_and_self_complementary(reference_maps._closure)
    assert not _closures_are_symmetric_and_self_complementary(_closure_deciding_every_cell_itself)


def _moved_domains(n):
    """The domain entry arrays of every TSSCPP of order n, each with one
    entry, drawn at random, moved by -2, -1, 1 or 2."""
    rng = np.random.default_rng(n)
    domains = triangles.tsscpps_to_domains(n, entries("tsscpp", n)).astype(np.int16)
    rows = np.arange(len(domains))
    domains[rows, rng.integers(0, domains.shape[1], len(rows))] += rng.choice([-2, -1, 1, 2], len(rows))
    return domains


@pytest.mark.parametrize("arrays", ["random", "moved"])
def test_orbit_columns_expand_as_the_whole_cube(arrays):
    """Array by array, ``expand_domains`` gives the heights of the
    whole-cube oracle, or None where the oracle does: on random domain
    entry arrays of orders 1..5, and on every TSSCPP domain of order up to 6
    with one entry moved."""
    inputs = _random_domain_arrays() if arrays == "random" else {n: _moved_domains(n) for n in range(1, 7)}
    expanded = refused = 0
    for n, batch in inputs.items():
        for a in batch:
            heights = triangles.expand_domains(n, a[None])
            expected = reference_maps.expand_domains(n, a[None])
            if expected is None:
                refused += 1
                assert heights is None, a
            else:
                expanded += 1
                assert heights is not None and heights.dtype == np.int8 and (heights == expected).all(), a
    assert refused and expanded


def test_fundamental_domain_shape_checks():
    with pytest.raises(MonotonicityError):
        FundamentalDomain(3, ((0, 1, 0), (0, 0), (0,)))
    with pytest.raises(ShapeError):
        FundamentalDomain(3, ((0, 0), (0,)))


# ------------------------------------------------------------------- JSON


def test_json_exact_format():
    b = BooleanTriangle(3, [[1], [1, 0]])
    assert to_json(b) == '{"kind":"boolean_triangle","n":3,"rows":[[1],[1,0]]}'
    a = Asm(3, gold.ASMS_3[3])
    assert to_json(a) == '{"kind":"asm","n":3,"rows":[[0,1,0],[1,-1,1],[0,1,0]]}'


@pytest.mark.parametrize(
    "obj",
    [
        MonotoneTriangle(3, gold.MONOTONE_3[3]),
        MagogTriangle(3, gold.MAGOG_3[3]),
        BooleanTriangle(3, gold.BOOLEAN_3[3]),
        Asm(3, gold.ASMS_3[3]),
        Permutation.from_one_line("463512"),
        NilpNest(3, (("V",), ("D", "V"))),
        PlanePartition(3, gold.TSSCPP_3[5]),
        FundamentalDomain(3, gold.DOMAINS_3[5]),
    ],
)
def test_json_round_trip(obj):
    assert from_json(to_json(obj)) == obj


def test_json_rejects_unknown_kind():
    with pytest.raises(ShapeError):
        from_json(json.dumps({"kind": "nonsense"}))


@pytest.mark.parametrize(
    "data,missing",
    [
        ({"kind": "asm"}, "n"),
        ({"kind": "asm", "n": 3}, "rows"),
        ({"kind": "permutation", "n": 2}, "sigma"),
        ({"kind": "nilp_nest", "rows": []}, "n"),
    ],
)
def test_json_missing_field_is_a_shape_error_naming_kind_and_field(data, missing):
    with pytest.raises(ShapeError) as err:
        from_json(json.dumps(data))
    assert data["kind"] in str(err.value) and repr(missing) in str(err.value)


@pytest.mark.parametrize(
    "cls,raw",
    [
        (MonotoneTriangle, ()),
        (MagogTriangle, ()),
        (BooleanTriangle, ()),
        (NilpNest, ()),
        (Asm, ()),
        (Permutation, ()),
        (PlanePartition, ()),
        (FundamentalDomain, ()),
    ],
    ids=lambda v: getattr(v, "__name__", ""),
)
def test_every_constructor_rejects_orders_below_one_and_non_integer_orders(cls, raw):
    for n in (0, -1, "1", 1.0, True):
        with pytest.raises(ShapeError):
            cls(n, raw)


# ------------------------------------------------------------ miscellany


def test_permutation_one_line():
    p = Permutation.from_one_line("463512")
    assert p.sigma == (4, 6, 3, 5, 1, 2)
    assert p.one_line() == "463512"
    big = Permutation(10, tuple(range(10, 0, -1)))
    assert Permutation.from_one_line(big.one_line()) == big
    assert p.inverse().sigma == (5, 6, 3, 1, 4, 2)


def test_permutation_one_line_rejects_non_digits():
    for text in ("abc", "12x", "1,,2"):
        with pytest.raises(EntryError):
            Permutation.from_one_line(text)


def test_permutation_rejects_non_integers_like_the_other_constructors():
    for sigma, position in (((1.7, 2.2), 1), ((True, 2), 1), ((1, 2.0), 2), ((2, False), 2)):
        with pytest.raises(EntryError) as err:
            Permutation(2, sigma)
        assert err.value.col == position
    with pytest.raises(ShapeError):
        Permutation(1, 5)
    assert Permutation(2, [2, 1]).sigma == (2, 1)


def test_values_are_immutable():
    b = BooleanTriangle(3, [[1], [1, 0]])
    with pytest.raises(AttributeError):
        b.rows = ()


def test_order_one_objects():
    assert BooleanTriangle(1, []).rows == ()
    assert NilpNest(1, []).paths == ()
    assert MonotoneTriangle(1, [[1]]).n == 1
    assert Asm(1, [[1]]).n == 1


# ------------------------------------------------------------------ fuzz


def asm_ok_by_alternation(rows):
    """Independent oracle in the alternation wording: every row and column
    sums to one and its nonzero entries alternate in sign."""
    lines = [list(row) for row in rows] + [list(col) for col in zip(*rows)]
    for line in lines:
        if sum(line) != 1:
            return False
        nonzero = [v for v in line if v]
        if any(a == b for a, b in zip(nonzero, nonzero[1:])):
            return False
        if nonzero and (nonzero[0] != 1 or nonzero[-1] != 1):
            return False
    return True


def test_fuzz_asm_validator_against_alternation_oracle():
    import random

    from gogmagog.enumeration import FamilyId, generate

    rng = random.Random(90125)
    samples = []
    for _ in range(1500):
        samples.append(tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(4)) for _ in range(4)))
    valid = [a.rows for a in generate(FamilyId.ASM, 4)]
    for _ in range(1500):
        rows = [list(r) for r in rng.choice(valid)]
        rows[rng.randrange(4)][rng.randrange(4)] += rng.choice((-1, 1))
        if all(v in (-1, 0, 1) for row in rows for v in row):
            samples.append(tuple(tuple(row) for row in rows))
    for rows in samples:
        try:
            Asm(4, rows)
            accepted = True
        except Exception:
            accepted = False
        assert accepted == asm_ok_by_alternation(rows), rows


def test_fuzz_triangle_validators_order_six():
    import random

    from gogmagog.enumeration import FamilyId, generate

    rng = random.Random(6174)
    bottom = tuple(range(1, 7))
    monos = [m.rows for m in generate(FamilyId.MONOTONE, 6)]
    mags = [m.rows for m in generate(FamilyId.MAGOG, 6)]

    def perturb(rows):
        rows = [list(r) for r in rows]
        r = rng.randrange(5)  # keep the bottom row intact
        c = rng.randrange(r + 1)
        rows[r][c] += rng.choice((-1, 1))
        return tuple(tuple(row) for row in rows)

    samples = []
    for _ in range(400):
        samples.append(
            tuple(tuple(sorted(rng.randint(1, 6) for _ in range(r + 1))) for r in range(5))
            + (bottom,)
        )
    samples += [perturb(rng.choice(monos)) for _ in range(400)]
    samples += [perturb(rng.choice(mags)) for _ in range(400)]
    for rows in samples:
        in_range = all(1 <= v <= 6 for row in rows for v in row)
        try:
            MonotoneTriangle(6, rows)
            accepted = True
        except Exception:
            accepted = False
        assert accepted == (in_range and monotone_ok(rows, 6)), rows
        try:
            MagogTriangle(6, rows)
            accepted = True
        except Exception:
            accepted = False
        assert accepted == (in_range and magog_ok(rows, 6)), rows
