"""Golden pairings, the worked permutation example, round trips, and the
three equivalent characterizations of permutation objects."""

import functools
import itertools

import numpy as np
import pytest

import golden_data as gold
import reference_maps as ref
import reference_stats as ref_stats
from gogmagog import bijections as bij
from gogmagog import enumeration
from gogmagog import statistics as stats
from gogmagog.enumeration import FamilyId, entries, generate
from gogmagog.statistics import avoids
from gogmagog.triangles import (
    Asm,
    BooleanTriangle,
    FundamentalDomain,
    InconsistentDomain,
    MagogTriangle,
    MonotoneTriangle,
    Permutation,
    PlanePartition,
    ValidationError,
    _corner_cells,
    build_batch,
    entry_row,
    validate_batch,
)


def is_permutation(obj):
    return stats.object_statistics(obj)["is_permutation"]


def test_matrix_monotone_pairing_matches_golden_lists():
    for rows_a, rows_m in zip(gold.ASMS_3, gold.MONOTONE_3):
        a, m = Asm(3, rows_a), MonotoneTriangle(3, rows_m)
        assert bij.convert(a, "monotone_triangle") == m
        assert bij.convert(m, "asm") == a


def test_identity_matrix_gives_prefix_triangle():
    n = 5
    eye = Asm(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    assert bij.convert(eye, "monotone_triangle").rows == tuple(tuple(range(1, r + 2)) for r in range(n))


def test_plane_partition_family_pairing_matches_golden_lists():
    for rows_p, dom, rows_mg, rows_b in zip(
        gold.TSSCPP_3, gold.DOMAINS_3, gold.MAGOG_3, gold.BOOLEAN_3
    ):
        d = FundamentalDomain(3, dom)
        magog, boolean = MagogTriangle(3, rows_mg), BooleanTriangle(3, rows_b)
        assert bij.convert(d, "magog_triangle") == magog
        assert bij.convert(magog, "fundamental_domain") == d
        assert bij.convert(d, "boolean_triangle") == boolean
        assert bij.convert(boolean, "fundamental_domain") == d
        assert bij.convert(PlanePartition(3, rows_p), "boolean_triangle") == boolean
        assert bij.convert(boolean, "plane_partition") == PlanePartition(3, rows_p)


def test_all_zero_domain_gives_smallest_magog():
    d = FundamentalDomain(3, ((0, 0, 0), (0, 0), (0,)))
    assert bij.convert(d, "magog_triangle").rows == ((1,), (1, 2), (1, 2, 3))


def test_domain_magog_round_trip_is_validated():
    with pytest.raises(ref.ResultNotMagog):
        # entries too large for any magog triangle of order 3
        ref.magog_from_fundamental(FundamentalDomain(3, ((4, 4, 4), (4, 4), (4,))))


def test_boolean_nilp_golden_examples():
    bold = BooleanTriangle(3, [[0], [0, 1]])
    nest = bij.convert(bold, "nilp_nest")
    assert nest.paths == (("D",), ("D", "V"))
    assert bij.convert(nest, "boolean_triangle") == bold
    all_ones = BooleanTriangle(3, [[1], [1, 1]])
    assert bij.convert(all_ones, "nilp_nest").endpoints() == ((1, 0), (2, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_boolean_nilp_mutually_inverse(n):
    nests = set()
    for b in generate(FamilyId.BOOLEAN, n):
        nest = ref.boolean_to_nilp(b)
        assert ref.nilp_to_boolean(nest) == b
        nests.add(nest)
    assert len(nests) == len(list(generate(FamilyId.BOOLEAN, n)))
    assert nests == set(generate(FamilyId.NILP, n))


def test_nilp_from_fundamental_is_the_composition():
    for dom in gold.DOMAINS_3:
        d = FundamentalDomain(3, dom)
        nest = bij.convert(d, "nilp_nest")
        assert nest == bij.convert(bij.convert(d, "boolean_triangle"), "nilp_nest")
        assert bij.convert(nest, "fundamental_domain") == d


def test_golden_example_full_chain():
    sigma = Permutation.from_one_line(gold.GOLDEN["one_line"])
    matrix = Asm(6, gold.GOLDEN["matrix"])
    monotone = MonotoneTriangle(6, gold.GOLDEN["monotone"])
    boolean = BooleanTriangle(6, gold.GOLDEN["boolean"])
    big = PlanePartition(6, gold.GOLDEN["tsscpp"])
    assert bij.convert(sigma, "asm") == matrix
    assert bij.convert(matrix, "permutation") == sigma
    assert bij.convert(matrix, "monotone_triangle") == monotone
    assert bij.convert(sigma, "monotone_triangle") == monotone
    assert bij.convert(monotone, "boolean_triangle") == boolean
    assert bij.convert(boolean, "monotone_triangle") == monotone
    assert bij.convert(sigma, "boolean_triangle") == boolean
    assert bij.convert(boolean, "permutation") == sigma
    assert bij.convert(big, "boolean_triangle") == boolean
    assert bij.convert(boolean, "plane_partition") == big


def test_all_ones_boolean_is_identity_permutation():
    b = BooleanTriangle(4, [[1], [1, 1], [1, 1, 1]])
    assert bij.convert(b, "permutation").sigma == (1, 2, 3, 4)
    assert bij.convert(b, "monotone_triangle").rows == tuple(tuple(range(1, r + 2)) for r in range(4))


def test_permutation_bijection_matches_golden_order():
    for rows_b, one_line in zip(gold.BOOLEAN_3, gold.PERMS_3):
        b = BooleanTriangle(3, rows_b)
        if one_line is None:
            assert not is_permutation(b)
            with pytest.raises(bij.NotPermutationBoolean):
                bij.convert(b, "monotone_triangle")
        else:
            assert bij.convert(b, "permutation").one_line() == one_line


def test_non_permutation_monotone_rejected():
    bold = MonotoneTriangle(3, gold.MONOTONE_3[gold.NON_PERMUTATION_INDEX])
    with pytest.raises(bij.NotPermutationMonotone):
        bij.monotones_to_booleans(3, entry_row(bold))
    with pytest.raises(bij.NotPermutationMonotone):
        bij.convert(bold, "permutation")
    with pytest.raises(bij.NotPermutationMatrix):
        bij.convert(Asm(3, gold.ASMS_3[gold.NON_PERMUTATION_INDEX]), "permutation")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_round_trips_tsscpp_side(n):
    booleans = entries(FamilyId.BOOLEAN, n)
    d = bij.booleans_to_domains(n, booleans)
    assert np.array_equal(bij.domains_to_booleans(n, d), booleans)
    m = bij.booleans_to_magogs(n, booleans)
    assert np.array_equal(bij.magogs_to_booleans(n, m), booleans)
    assert np.array_equal(bij.magogs_to_domains(n, m), d)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_round_trips_matrix_side(n):
    for a in generate(FamilyId.ASM, n):
        assert ref.monotone_to_asm(ref.asm_to_monotone(a)) == a
    for m in generate(FamilyId.MONOTONE, n):
        assert ref.asm_to_monotone(ref.monotone_to_asm(m)) == m


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_round_trips_permutation_side(n):
    for p in generate(FamilyId.PERMUTATION, n):
        b = ref.permutation_to_boolean(p)
        assert ref.boolean_to_permutation(b) == p
        assert ref.bracket_vector_to_boolean(ref.bracket_vector(b)) == b


def test_permutation_matrices_map_onto_strict_entry_free_triangles():
    for n in (2, 3, 4):
        image = {
            ref.asm_to_monotone(a)
            for a in generate(FamilyId.ASM, n)
            if is_permutation(a)
        }
        expected = {
            m for m in generate(FamilyId.MONOTONE, n) if stats.object_statistics(m)["strict_diagonal_entries"] == 0
        }
        assert image == expected


def test_bijection_images_cover_targets():
    for n in (2, 3, 4):
        asms = set(generate(FamilyId.ASM, n))
        monotones = set(generate(FamilyId.MONOTONE, n))
        assert {ref.asm_to_monotone(a) for a in asms} == monotones
        booleans = set(generate(FamilyId.BOOLEAN, n))
        magogs = set(generate(FamilyId.MAGOG, n))
        assert {ref.boolean_to_magog(b) for b in booleans} == magogs
        perm_booleans = set(generate(FamilyId.PERMUTATION_BOOLEAN, n))
        perms = set(generate(FamilyId.PERMUTATION, n))
        assert {ref.permutation_to_boolean(p) for p in perms} == perm_booleans


def test_bracket_vector_values():
    def bracket_vector(rows):
        return tuple(bij.booleans_to_brackets(3, entry_row(BooleanTriangle(3, rows)))[0].tolist())

    assert bracket_vector([[1], [1, 1]]) == (3, 3, 3)
    assert bracket_vector([[0], [0, 0]]) == (1, 2, 3)
    with pytest.raises(bij.NotPermutationBoolean):
        bracket_vector([[0], [0, 1]])


def bracket_condition(x):
    n = len(x)
    return all(
        x[j] <= x[i]
        for i in range(n)
        for j in range(i, min(x[i], n))
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bracket_vector_of_132_avoiders_satisfies_bracket_condition(n):
    for p in generate(FamilyId.PERMUTATION, n):
        x = ref.bracket_vector(ref.permutation_to_boolean(p))
        assert all(i + 1 <= x[i] <= n for i in range(n))
        if avoids(p, (1, 3, 2)):
            assert bracket_condition(x), (p, x)


def zeros_per_row_oracle(p):
    """Independent formula: row i holds the count of earlier values larger
    than sigma(i+1)."""
    s = p.sigma
    return tuple(sum(1 for k in range(i) if s[k] > s[i]) for i in range(1, p.n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_boolean_rows_count_inversions_by_position(n):
    for p in generate(FamilyId.PERMUTATION, n):
        b = ref.permutation_to_boolean(p)
        assert tuple(row.count(0) for row in b.rows) == zeros_per_row_oracle(p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_permutation_characterizations_agree(n):
    """The batched predicate on the boolean, magog and plane-partition
    encodings selects the same n! values as the paper's characterisations,
    the row and pattern scans of ``reference_stats`` on each object."""
    booleans = entries(FamilyId.BOOLEAN, n)
    magogs = bij.booleans_to_magogs(n, booleans)
    tsscpps = bij.booleans_to_tsscpp(n, booleans)
    mask = bij.permutation_booleans(n, booleans)
    assert np.array_equal(stats.KINDS["magog_triangle"]["is_permutation"](n, magogs), mask)
    assert np.array_equal(stats.KINDS["plane_partition"]["is_permutation"](n, tsscpps), mask)
    assert mask.tolist() == [ref_stats.is_permutation_boolean(b) for b in build_batch(BooleanTriangle, n, booleans)]
    assert mask.tolist() == [ref_stats.is_permutation_magog(m) for m in build_batch(MagogTriangle, n, magogs)]
    assert mask.tolist() == [ref_stats.is_permutation_tsscpp(p) for p in build_batch(PlanePartition, n, tsscpps)]
    assert mask.sum() == len(list(generate(FamilyId.PERMUTATION, n)))


def test_permutation_magog_golden_values():
    non_perm = MagogTriangle(3, gold.MAGOG_3[gold.NON_PERMUTATION_INDEX])
    assert not is_permutation(non_perm)
    for i, rows in enumerate(gold.MAGOG_3):
        if i != gold.NON_PERMUTATION_INDEX:
            assert is_permutation(MagogTriangle(3, rows))


def test_permutation_tsscpp_golden_values():
    non_perm = PlanePartition(3, gold.TSSCPP_3[gold.NON_PERMUTATION_INDEX])
    assert not is_permutation(non_perm)
    for i, rows in enumerate(gold.TSSCPP_3):
        if i != gold.NON_PERMUTATION_INDEX:
            assert is_permutation(PlanePartition(3, rows))


# ------------------------------------------------------------ batched maps


def entries_of(obj):
    """The entries of an object's rows (a nest's paths: 1 for a "D" step),
    row-major."""
    if hasattr(obj, "paths"):
        return tuple(int(step == "D") for path in obj.paths for step in path)
    return tuple(entry for row in obj.rows for entry in row)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_batched_permutation_maps_equal_the_scalar_maps(n):
    perms = entries(FamilyId.PERMUTATION, n)
    monotones = bij.permutations_to_monotones(n, perms).tolist()
    booleans = bij.permutations_to_booleans(n, perms).tolist()
    for p, m, b in zip(generate(FamilyId.PERMUTATION, n), monotones, booleans, strict=True):
        assert entries_of(ref.permutation_to_monotone(p)) == tuple(m)
        assert entries_of(ref.permutation_to_boolean(p)) == tuple(b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_batched_asm_and_boolean_maps_equal_the_scalar_maps(n):
    asms = entries(FamilyId.ASM, n)
    monotones = bij.asms_to_monotones(n, asms)
    assert (bij.monotones_to_asms(n, monotones) == asms).all()
    for a, m in zip(generate(FamilyId.ASM, n), monotones.tolist(), strict=True):
        assert entries_of(ref.asm_to_monotone(a)) == tuple(m)
    booleans = entries(FamilyId.BOOLEAN, n)
    nests, domains = bij.booleans_to_nests(n, booleans), bij.booleans_to_domains(n, booleans)
    magogs = bij.domains_to_magogs(n, domains)
    assert (bij.nests_to_booleans(n, nests) == booleans).all()
    assert (bij.domains_to_booleans(n, domains) == booleans).all()
    for b, nest, d, m in zip(
        generate(FamilyId.BOOLEAN, n), nests.tolist(), domains.tolist(), magogs.tolist(), strict=True
    ):
        assert entries_of(ref.boolean_to_nilp(b)) == tuple(nest)
        assert entries_of(ref.fundamental_from_boolean(b)) == tuple(d)
        assert entries_of(ref.boolean_to_magog(b)) == tuple(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_derived_domains_are_the_corners_of_the_tsscpps(n):
    """The domains read off the boolean triangles equal the corners of the
    TSSCPPs built from them, whose closures ``expand_domains`` checks."""
    for booleans in enumeration._validated(FamilyId.BOOLEAN, n):
        corners = bij.booleans_to_tsscpp(n, booleans)[:, _corner_cells(n)]
        assert np.array_equal(bij.booleans_to_domains(n, booleans), corners)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_direct_permutation_booleans_equal_the_monotone_path(n):
    perms = entries(FamilyId.PERMUTATION, n)
    through_monotones = bij.monotones_to_booleans(n, bij.permutations_to_monotones(n, perms))
    assert np.array_equal(bij.permutations_to_booleans(n, perms), through_monotones)


def test_direct_permutation_booleans_are_checked_once(monkeypatch):
    """The direct map checks its output once, on the boolean triangle table,
    and refuses it with one entry flipped: 123 gives rows (1), (1, 1), and
    (1), (0, 1) breaks the sum of the last diagonal."""
    checked, classes = bij._checked, []

    def flipped(cls, n, a):
        classes.append(cls)
        a = a.copy()
        a[0, 1] ^= 1
        return checked(cls, n, a)

    monkeypatch.setattr(bij, "_checked", flipped)
    with pytest.raises(ValidationError, match="no BooleanTriangle of order 3"):
        bij.permutations_to_booleans(3, np.array([[1, 2, 3]], dtype=np.int8))
    assert classes == [BooleanTriangle]


def test_batched_maps_refuse_values_that_fail_their_checks(monkeypatch):
    with pytest.raises(ValidationError, match="no MonotoneTriangle of order 3"):
        bij.permutations_to_monotones(3, np.array([[1, 1, 2]]))
    with pytest.raises(ValidationError, match="no BooleanTriangle of order 3"):
        bij.nests_to_booleans(3, np.array([[0, 2, 0]]))
    with pytest.raises(ValidationError, match="no NilpNest of order 3"):
        bij.booleans_to_nests(3, np.array([[1, 1, 3]]))
    increasing = np.array([[0, 1, 0, 0, 0, 0]], dtype=np.int8)  # domain row 1 increases
    monkeypatch.setattr(bij, "_domains_from_booleans", lambda n, a: increasing)
    with pytest.raises(ValidationError, match="no FundamentalDomain of order 3"):
        bij.booleans_to_domains(3, np.array([[1, 1, 1]]))
    monkeypatch.setattr("gogmagog.triangles.expand_domains", lambda n, dom: None)
    with pytest.raises(ValidationError, match="domain of order 3"):
        bij.booleans_to_tsscpp(3, np.array([[1, 1, 1]]))


# -------------------------------------------- differential tests, the oracle

FAMILY_OF_KIND = {
    "asm": FamilyId.ASM,
    "monotone_triangle": FamilyId.MONOTONE,
    "magog_triangle": FamilyId.MAGOG,
    "boolean_triangle": FamilyId.BOOLEAN,
    "nilp_nest": FamilyId.NILP,
    "plane_partition": FamilyId.TSSCPP,
    "permutation": FamilyId.PERMUTATION,
}


@functools.cache
def objects_of_kind(kind, n):
    """Every object of a kind at order n; the fundamental domains are the
    oracle's corners of the TSSCPPs."""
    if kind == "fundamental_domain":
        return [ref.fundamental_domain(p) for p in generate(FamilyId.TSSCPP, n)]
    return list(generate(FAMILY_OF_KIND[kind], n))


@pytest.fixture(autouse=True, scope="module")
def release_objects():
    """Drop the cached objects when the module is done: held through later
    modules, they slow every garbage collection there."""
    yield
    objects_of_kind.cache_clear()


def batched(maps, objects, n):
    """The objects through a composition of batched maps, as objects."""
    a = validate_batch(type(objects[0]), n, np.concatenate([entry_row(obj) for obj in objects]))
    for step in maps:
        a = step(n, a)
    return a


def oracle_edges():
    """(source kind, target kind, batched maps, scalar oracle map) for every
    edge of the conversion graph, in its order."""
    for source, target, *maps in bij._EDGES:
        yield source, target, maps, dict(ref._EDGES[source])[target]


EDGES = list(oracle_edges())


@pytest.mark.parametrize("source, target, maps, oracle", EDGES, ids=[f"{s}-{t}" for s, t, _, _ in EDGES])
def test_every_edge_equals_the_oracle(source, target, maps, oracle):
    """On every object the oracle maps, at n <= 6 (permutations: n <= 7)."""
    for n in range(1, 8 if source == "permutation" else 7):
        pairs = []
        for obj in objects_of_kind(source, n):
            try:
                pairs.append((obj, oracle(obj)))
            except ValidationError:
                continue
        if not pairs:
            continue
        objects, expected = zip(*pairs)
        cls = type(expected[0])
        assert build_batch(cls, n, batched(maps, objects, n)) == list(expected), (source, target, n)


def refusals():
    """(kind, batched map, oracle map) for each map that refuses the
    non-permutation objects of a kind."""
    return [
        ("asm", bij.asms_to_permutations, ref.asm_to_permutation),
        ("monotone_triangle", bij.monotones_to_permutations, ref.monotone_to_permutation),
        ("monotone_triangle", bij.monotones_to_booleans, ref.monotone_perm_to_boolean),
        ("boolean_triangle", bij.booleans_to_permutations, ref.boolean_to_permutation),
        ("boolean_triangle", bij.perm_booleans_to_monotones, ref.boolean_to_monotone_perm),
        ("boolean_triangle", bij.booleans_to_brackets, ref.bracket_vector),
    ]


@pytest.mark.parametrize("kind, batch, oracle", refusals(), ids=lambda v: getattr(v, "__name__", v))
def test_every_refusal_equals_the_oracle(kind, batch, oracle):
    """Same exception class and message on every non-permutation object at
    n <= 4, alone and as the first refused row of a batch."""
    refused = 0
    for n in range(1, 5):
        objects = objects_of_kind(kind, n)
        for i, obj in enumerate(objects):
            try:
                oracle(obj)
                continue
            except ValidationError as exc:
                expected = (type(exc), str(exc))
            refused += 1
            for chunk in ([obj], objects[i:]):
                with pytest.raises(ValidationError) as raised:
                    batch(n, batched((), chunk, n))
                assert (type(raised.value), str(raised.value)) == expected, (obj, len(chunk))
    assert refused


@pytest.mark.parametrize("source", sorted(ref._EDGES))
def test_convert_equals_the_oracles_composed_path(source):
    """For every target kind and every object at n <= 4: the same object, or
    the same exception class and message."""
    for n in range(1, 5):
        for obj in objects_of_kind(source, n):
            for target in sorted(ref._EDGES):
                try:
                    expected = ref.convert_object(obj, target)
                except ValidationError as exc:
                    expected = (type(exc), str(exc))
                try:
                    got = bij.convert(obj, target)
                except ValidationError as exc:
                    got = (type(exc), str(exc))
                assert got == expected, (obj, target)


@pytest.mark.parametrize("sigma", [range(1, 131), range(130, 0, -1)], ids=["identity", "reversed"])
def test_order_130_conversions_equal_the_oracle(sigma):
    """Past order 128 the counts of the domain maps no longer fit in int8:
    the permutations of order 130 reach the domain side as the oracle's
    objects and come back to their boolean triangles."""
    p = Permutation(130, tuple(sigma))
    boolean = ref.permutation_to_boolean(p)
    for target in ("fundamental_domain", "magog_triangle", "plane_partition"):
        got = bij.convert(p, target)
        assert got == ref.convert_object(p, target), target
        assert bij.convert(got, "boolean_triangle") == boolean, target


@pytest.mark.parametrize("n", [63, 64])
def test_tsscpp_heights_reach_2n_in_the_narrowest_dtype(n):
    """A TSSCPP's heights run to 2n: int8 holds them up to order 63, and
    order 64 needs int16.  The TSSCPPs of the identity and the reversal
    equal the oracle's at both orders."""
    for sigma in (range(1, n + 1), range(n, 0, -1)):
        p = Permutation(n, tuple(sigma))
        expected = ref.convert_object(p, "plane_partition")
        heights = bij.booleans_to_tsscpp(n, entry_row(ref.permutation_to_boolean(p)))
        assert heights.dtype == (np.int8 if n < 64 else np.int16)
        assert heights[0].reshape(2 * n, 2 * n).tolist() == [list(row) for row in expected.rows]
        assert bij.convert(p, "plane_partition") == expected


@pytest.mark.parametrize(
    "rows",
    [((2, 0), (0,)), ((3, 1, 0), (0, 0), (0,)), ((1, 1, 1), (1, 1), (1,)), ((4, 4, 4), (4, 4), (4,))],
)
def test_inconsistent_domains_convert_to_nothing(rows):
    d = FundamentalDomain(len(rows), rows)
    with pytest.raises(ValidationError):
        ref.expand_fundamental(d)
    for kind in sorted(ref._EDGES):
        with pytest.raises(InconsistentDomain, match="is the corner of no TSSCPP$"):
            bij.convert(d, kind)
