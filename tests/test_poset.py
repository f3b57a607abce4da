"""The generic poset engine: construction, covers, ideals, lattices,
isomorphism, rank, and export."""

import itertools
import random

import numpy as np
import pytest

from gogmagog import poset as poset_module
from gogmagog.poset import Poset, PosetError, SizeCap, _pack
from reference_poset import (
    assert_relation_and_covers,
    bound_table,
    closure,
    count_ideals,
    cover_label_pairs,
    dense_covers,
    distributivity_witness,
    is_distributive_lattice,
    reach_at,
    relation_pairs,
    relations_not_in,
)


def from_comparisons(elements, leq_predicate):
    """The poset of the comparison predicate, closed reflexively and
    transitively, with antisymmetry certified."""
    labels = tuple(elements)
    n = len(labels)
    matrix = np.zeros((n, n), dtype=bool)
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            if leq_predicate(x, y):
                matrix[i, j] = True
    closed = closure(matrix)
    bad = closed & closed.T & ~np.eye(n, dtype=bool)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise PosetError(f"closure is not antisymmetric: {labels[i]!r} <=> {labels[j]!r}")
    return Poset(labels, _pack(closed), _certified=True)


def chain(k):
    return from_comparisons(range(k), lambda x, y: x <= y)


def antichain(k):
    return from_comparisons(range(k), lambda x, y: x == y)


def divisibility(k):
    return from_comparisons(range(1, k + 1), lambda x, y: y % x == 0)


def random_poset(rng, k):
    """Random DAG, transitively closed."""
    elements = list(range(k))
    edges = {
        (a, b)
        for a in elements
        for b in elements
        if a < b and rng.random() < 0.4
    }
    return from_comparisons(elements, lambda x, y: x == y or (x, y) in edges)


def test_from_comparisons_chain_and_antichain():
    c = chain(4)
    assert c.leq(0, 3) and not c.leq(3, 0)
    assert cover_label_pairs(c) == frozenset({(0, 1), (1, 2), (2, 3)})
    a = antichain(3)
    assert cover_label_pairs(a) == frozenset()
    assert not a.leq(0, 1)


def test_from_comparisons_closes_transitively():
    # generator relation a<b, b<c only; closure must add a<c
    p = from_comparisons("abc", lambda x, y: x == y or (x, y) in {("a", "b"), ("b", "c")})
    assert p.leq("a", "c")


def test_antisymmetry_violation_raises():
    with pytest.raises(PosetError):
        from_comparisons("ab", lambda x, y: True)


def test_duplicate_labels_raise():
    with pytest.raises(PosetError):
        Poset(("x", "x"), np.eye(2, dtype=bool))


def test_covers_then_closure_is_identity():
    rng = random.Random(7)
    for k in (1, 2, 5, 8, 12):
        p = random_poset(rng, k)
        rebuilt = Poset.from_covers(p.labels, cover_label_pairs(p))
        assert relation_pairs(rebuilt) == relation_pairs(p)


def ideal_oracle(p):
    """All down-closed subsets, by brute force over the power set."""
    n = p.size
    out = set()
    for bits in itertools.product((0, 1), repeat=n):
        members = {i for i in range(n) if bits[i]}
        if all(
            j in members
            for i in members
            for j in range(n)
            if p.leq_matrix()[j, i]
        ):
            out.add(frozenset(members))
    return out


@pytest.mark.parametrize("maker, k", [(chain, 2), (chain, 4), (antichain, 3), (divisibility, 6)])
def test_order_ideals_match_powerset_oracle(maker, k):
    p = maker(k)
    ideals = p.order_ideals()
    expected = ideal_oracle(p)
    got = {
        frozenset(p.index(lbl) for lbl in members) for members in ideals.labels
    }
    assert got == expected


def test_order_ideals_of_chain_is_longer_chain():
    j = chain(2).order_ideals()
    assert j.size == 3
    assert cover_label_pairs(j) == frozenset({((), (0,)), ((0,), (0, 1))})


def test_order_ideals_random_posets_are_distributive_lattices():
    rng = random.Random(1)
    for k in (3, 5, 7):
        p = random_poset(rng, k)
        assert is_distributive_lattice(p.order_ideals())


def test_order_ideals_cap():
    with pytest.raises(SizeCap):
        antichain(31).order_ideals()


def test_lattice_report_chain_and_diamond():
    assert chain(5).lattice_report() == chain(5).lattice_report()
    assert is_distributive_lattice(chain(5))
    diamond = from_comparisons(
        "0ab1", lambda x, y: x == y or x == "0" or y == "1"
    )
    assert is_distributive_lattice(diamond)


def test_lattice_report_m3_and_n5_not_distributive():
    m3 = from_comparisons(
        "0abc1", lambda x, y: x == y or x == "0" or y == "1"
    )
    assert m3.lattice_report().is_lattice
    witness = distributivity_witness(m3)
    assert witness is not None
    assert {m3.labels[i] for i in witness} <= {"a", "b", "c"}
    n5 = from_comparisons(
        "0abc1",
        lambda x, y: x == y or x == "0" or y == "1" or (x, y) == ("a", "b"),
    )
    assert n5.lattice_report().is_lattice
    assert distributivity_witness(n5) is not None


def test_lattice_report_non_lattice_witness():
    # two minima below two maxima: no meets, no joins
    bowtie = from_comparisons(
        "abxy", lambda p, q: p == q or (p in "ab" and q in "xy")
    )
    report = bowtie.lattice_report()
    assert not report.is_lattice
    assert report.witness is not None
    kind, x, y = report.witness
    assert kind in ("meet", "join")


def test_lattice_report_cap(monkeypatch):
    monkeypatch.setattr(poset_module, "_LATTICE_MAX_ELEMENTS", 4)
    with pytest.raises(SizeCap):
        antichain(5).lattice_report()


def test_induced_subposet():
    p = chain(5)
    assert relation_pairs(p.induced(lambda lbl: True)) == relation_pairs(p)
    sub = p.induced((0, 2, 4))
    assert cover_label_pairs(sub) == frozenset({(0, 2), (2, 4)})
    empty = p.induced(())
    assert empty.size == 0


def test_isomorphic_chains_and_non_isomorphic():
    mapping = chain(4).isomorphism_to(from_comparisons("wxyz", lambda a, b: a <= b))
    assert mapping == {0: "w", 1: "x", 2: "y", 3: "z"}
    assert chain(3).isomorphism_to(antichain(3)) is None
    assert chain(3).isomorphism_to(chain(4)) is None


def test_isomorphism_found_on_shuffled_relabelling():
    rng = random.Random(42)
    for k in (5, 8, 11):
        p = random_poset(rng, k)
        perm = list(range(k))
        rng.shuffle(perm)
        q = Poset(
            tuple(f"e{perm[i]}" for i in range(k)),
            _pack(p.leq_matrix()),
            _certified=True,
        )
        mapping = p.isomorphism_to(q)
        assert mapping is not None
        for x in p.labels:
            for y in p.labels:
                assert p.leq(x, y) == q.leq(mapping[x], mapping[y])


def test_isomorphism_is_symmetric():
    rng = random.Random(3)
    for k in (4, 7):
        p = random_poset(rng, k)
        q = random_poset(rng, k)
        forward = p.isomorphism_to(q)
        backward = q.isomorphism_to(p)
        assert (forward is None) == (backward is None)
        if forward is not None:
            for x in p.labels:
                for y in p.labels:
                    assert p.leq(x, y) == q.leq(forward[x], forward[y])


def test_isomorphism_cap(monkeypatch):
    monkeypatch.setattr(poset_module, "_ISOMORPHISM_MAX_ELEMENTS", 5)
    with pytest.raises(SizeCap):
        antichain(10).isomorphism_to(antichain(10))
    monkeypatch.undo()
    p = antichain(1001)
    with pytest.raises(SizeCap, match="^isomorphism_to capped at 1000 elements, got 1001$"):
        p.isomorphism_to(p)


def test_relations_subset():
    weakish = from_comparisons("abc", lambda x, y: x == y or (x, y) == ("a", "b"))
    strongish = from_comparisons("abc", lambda x, y: x == y or x == "a")
    assert weakish.relations_not_in(strongish) is None
    assert strongish.relations_not_in(weakish) is not None
    assert strongish.relations_not_in(strongish) is None
    assert strongish.relations_not_in(weakish) == ("a", "c")


def test_relations_not_in_is_the_first_missing_relation_row_by_row():
    rng = random.Random(7)
    for k in (4, 6, 8):
        p, q = random_poset(rng, k), random_poset(rng, k)
        missing = [(x, y) for x in p.labels for y in p.labels if p.leq(x, y) and not q.leq(x, y)]
        assert p.relations_not_in(q) == (missing[0] if missing else None)
    # a label the other poset lacks lacks every relation, its own included
    assert chain(3).relations_not_in(chain(2)) == (0, 2)
    assert antichain(2).relations_not_in(chain(1)) == (1, 1)
    assert chain(2).relations_not_in(chain(3)) is None


def relabelled(p, order, rename=lambda label: label):
    """The relation of ``p`` listed in ``order`` (of its indices), each label
    renamed."""
    return Poset([rename(p.labels[i]) for i in order], p.leq_matrix()[np.ix_(order, order)])


@pytest.mark.parametrize("block", [8, 1 << 22])
def test_relations_not_in_equals_the_dense_oracle(monkeypatch, block):
    """On shared, permuted and partly disjoint labels, and against the empty
    poset, the first missing relation read off packed rows equals the one of
    the dense matrices; blocks of 8 bytes take one row at a time."""
    monkeypatch.setattr(poset_module, "_BLOCK", block)
    rng = random.Random(11)
    empty = Poset([], np.zeros((0, 0), dtype=bool))
    for k in (1, 2, 5, 9, 70, 130):
        p, q = random_poset(rng, k), random_poset(rng, k)
        p = relabelled(p, rng.sample(range(k), k))
        order = rng.sample(range(k), k)
        others = [
            q,
            p,
            relabelled(p, order),
            relabelled(q, order),
            relabelled(q, order, lambda label: label + k // 2),
            relabelled(p, order, lambda label: label if label % 3 else label + k),
            relabelled(q, order[: k // 2]),
            empty,
        ]
        for other in others:
            assert p.relations_not_in(other) == relations_not_in(p, other)
            assert other.relations_not_in(p) == relations_not_in(other, p)
        assert p.relations_not_in(relabelled(p, order)) is None
    # the row of a label the other poset lacks is no row of the other's
    top_first, other = relabelled(chain(3), [2, 1, 0]), relabelled(chain(3), [0, 2])
    assert top_first.relations_not_in(other) == relations_not_in(top_first, other) == (1, 2)


def test_is_ranked():
    assert chain(4).is_ranked()
    assert antichain(3).is_ranked()
    # pentagon: covers 0-a, a-b, b-1, 0-c, c-1
    pentagon = Poset.from_covers("0abc1", [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
    assert not pentagon.is_ranked()


def test_export():
    p = chain(3)
    blob = p.to_json_dict()
    assert blob == {"elements": ["0", "1", "2"], "covers": [[0, 1], [1, 2]]}
    dot = p.to_dot()
    assert dot.startswith("digraph poset {")
    assert '"0" -> "1";' in dot and '"1" -> "2";' in dot


def test_empty_poset():
    p = from_comparisons((), lambda x, y: True)
    assert p.size == 0
    assert p.lattice_report().is_lattice
    assert p.isomorphism_to(p) == {}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bound_table_matches_the_full_matrix_search(n):
    from gogmagog.cli import _poset_builders

    for name, builder in sorted(_poset_builders().items()):
        p = builder(n)
        for lower in (True, False):
            assert p._bound_witness(lower) == bound_table(p, lower)[1], (name, lower)


def test_bound_table_witnesses_at_order_six():
    # recorded with the full-matrix search at order six
    from gogmagog import orders

    for builder, meet_witness, join_witness in (
        (orders.build_TBool, (1, 32), (34, 81)),
        (orders.build_Tn_perm, (5, 8), (2, 3)),
    ):
        p = builder(6)
        assert p._bound_witness(lower=True) == meet_witness
        assert p._bound_witness(lower=False) == join_witness


# -------------------------------------------------- closure of cover pairs


def dense_from_covers(labels, pairs):
    """The dense closure and reduction of the cover pairs: the oracle."""
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=bool)
    for x, y in pairs:
        matrix[index[x], index[y]] = True
    leq = closure(matrix)
    return leq, dense_covers(leq)


def random_dag_edges(rng, k, density):
    """Edges x -> y of a random DAG on a shuffled order of range(k), some
    listed twice."""
    ranks = list(range(k))
    rng.shuffle(ranks)
    edges = [(ranks[a], ranks[b]) for a in range(k) for b in range(a + 1, k) if rng.random() < density]
    return edges + edges[: len(edges) // 4]


def test_bitset_closure_equals_the_dense_closure_on_random_dags():
    rng = random.Random(11)
    for k in (0, 1, 2, 5, 30, 63, 64, 65, 130):
        for density in (0.03, 0.2, 0.6):
            edges = random_dag_edges(rng, k, density)
            p = Poset.from_covers(range(k), edges)
            leq, covers = dense_from_covers(range(k), edges)
            assert (p.leq_matrix() == leq).all() and (p.cover_matrix() == covers).all()


def test_bitset_closure_equals_the_dense_closure_on_the_cover_built_orders(monkeypatch):
    from gogmagog import orders

    inputs = []
    from_covers = Poset.from_covers.__func__

    def recorded(cls, labels, cover_pairs):
        inputs.append((tuple(labels), list(cover_pairs)))
        return from_covers(cls, *inputs[-1])

    monkeypatch.setattr(Poset, "from_covers", classmethod(recorded))
    for build in (orders.build_Pn, orders.build_Qn, orders.build_weak_order, orders.build_strong_bruhat):
        for n in range(1, 7):
            p = build(n)
            leq, _ = dense_from_covers(*inputs[-1])
            assert_relation_and_covers(p, leq)


def test_from_covers_drops_redundant_edges_and_loops():
    p = Poset.from_covers("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "c"), ("a", "d"), ("a", "d")])
    assert cover_label_pairs(p) == frozenset({("a", "b"), ("b", "c"), ("a", "d")})
    assert p.cover_pairs() == ((0, 1), (0, 3), (1, 2))  # ("a", "d") once
    assert relation_pairs(p) == frozenset({("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")})


@pytest.mark.parametrize(
    "edges, pair",
    [
        ([("a", "b"), ("b", "a")], "'a' <=> 'b'"),
        ([("d", "a"), ("a", "b"), ("b", "c"), ("c", "b")], "'b' <=> 'c'"),
    ],
)
def test_from_covers_refuses_a_cycle(edges, pair):
    with pytest.raises(PosetError, match=f"^closure is not antisymmetric: {pair}$"):
        Poset.from_covers("abcd", edges)


def assert_reach_equals_the_unbuffered_ors(n, lower, upper):
    got = poset_module._reach(n, lower, upper)
    assert all(np.array_equal(a, b) for a, b in zip(got, reach_at(n, lower, upper)))
    return got


@pytest.mark.parametrize("cycle", [False, True])
def test_reach_equals_the_unbuffered_ors_on_random_dags(cycle):
    """Reach rows and the nodes left over, with repeated edges, and with one
    edge back from a node to one below it closing a cycle."""
    rng = random.Random(5)
    for k in (0, 1, 2, 5, 30, 63, 64, 65, 130):
        for density in (0.03, 0.2, 0.6):
            edges = random_dag_edges(rng, k, density)
            if cycle and edges:
                x, y = rng.choice(edges)
                edges.append((y, x))
            lower, upper = np.array(edges, dtype=np.intp).reshape(-1, 2).T
            _, left = assert_reach_equals_the_unbuffered_ors(k, lower, upper)
            assert left.any() == (cycle and bool(edges))


def test_reach_equals_the_unbuffered_ors_on_every_cover_built_order(monkeypatch):
    """Every ``_reach`` input of every named order at n <= 6 under its size
    caps: the pairs of ``from_covers``."""
    from gogmagog.cli import _poset_builders

    inputs = []
    reach = poset_module._reach

    def recorded(n, lower, upper):
        inputs.append((n, lower, upper))
        return reach(n, lower, upper)

    monkeypatch.setattr(poset_module, "_reach", recorded)
    for name, build in _poset_builders().items():
        for n in range(1, 7):
            try:
                build(n).cover_matrix()
            except SizeCap:  # the ideals of P6 and Q6
                assert name in ("JPn", "JQn") and n == 6
    monkeypatch.undo()
    for n, lower, upper in inputs:
        assert_reach_equals_the_unbuffered_ors(n, lower, upper)


@pytest.mark.parametrize("n", range(1, 9))
def test_count_ideals_equals_the_element_loop_on_the_coordinate_posets(n):
    from gogmagog import orders

    for build in (orders.build_Pn, orders.build_Qn):
        p = build(n)
        assert p.count_ideals() == count_ideals(p)


def test_count_ideals_equals_the_element_loop_on_random_posets():
    """Up to 130 elements, so the masks cross the 64-bit word edges."""
    rng = random.Random(13)
    for k in (0, 1, 2, 5, 30, 63, 64, 65, 130):
        for density in (0.1, 0.3, 0.6):
            p = Poset.from_covers(range(k), random_dag_edges(rng, k, density))
            assert p.count_ideals() == count_ideals(p)


def test_cover_pairs_are_built_once():
    p = chain(4)
    assert p.cover_pairs() is p.cover_pairs() == ((0, 1), (1, 2), (2, 3))


# ------------------------------------------- the uncertified constructor


def test_uncertified_constructor_refuses_a_relation_that_is_not_reflexive():
    with pytest.raises(PosetError, match="^relation is not reflexive$"):
        Poset("ab", [[True, False], [False, False]])


def test_uncertified_constructor_refuses_a_relation_that_is_not_antisymmetric():
    with pytest.raises(PosetError, match="^not antisymmetric: 'a' <=> 'b'$"):
        Poset("abc", np.ones((3, 3), dtype=bool))


@pytest.mark.parametrize(
    "k, x, z", [(65, 62, 64), (65, 0, 63), (65, 1, 64), (130, 62, 64), (130, 63, 65), (130, 0, 129)]
)
@pytest.mark.parametrize("reverse", [False, True])
def test_uncertified_constructor_refuses_a_chain_missing_one_relation(k, x, z, reverse):
    """A chain of k elements without the single relation x < z, one of whose
    bits x, z - 1 and z sits at the bit 63/64 word boundary or in the last
    column; reversing the indices puts it in the last row."""
    leq = np.triu(np.ones((k, k), dtype=bool))
    Poset(range(k), leq)
    leq[x, z] = False
    if reverse:
        leq = leq[::-1, ::-1]
    with pytest.raises(PosetError, match="^relation is not transitive$"):
        Poset(range(k), leq)


@pytest.mark.parametrize("block", [poset_module._BLOCK, 1 << 10])
@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 130])
def test_uncertified_covers_equal_the_dense_reduction_on_random_posets(monkeypatch, k, block):
    """At 1 KiB blocks the cover rounds take the rows of 65 or 130 elements a
    few at a time."""
    monkeypatch.setattr(poset_module, "_BLOCK", block)
    rng = random.Random(k)
    for density in (0.02, 0.1, 0.5):
        edges = random_dag_edges(rng, k, density)
        matrix = np.zeros((k, k), dtype=bool)
        for x, y in edges:
            matrix[x, y] = True
        leq = closure(matrix)
        p = Poset(range(k), leq)
        assert (p.cover_matrix() == dense_covers(leq)).all()


@pytest.mark.parametrize("block", [poset_module._BLOCK, 1 << 10])
@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 130])
@pytest.mark.parametrize("orientation", ["index", "reversed", "shuffled"])
def test_cover_rounds_equal_the_dense_reduction_in_every_label_orientation(monkeypatch, orientation, k, block):
    """Random orders whose index order is a linear extension, relabelled so
    that index order, or its reverse, or (shuffled) the up-set sizes give
    the rounds their extension; each cover is found once."""
    monkeypatch.setattr(poset_module, "_BLOCK", block)
    relabelled = []
    relabel = poset_module._relabelled
    monkeypatch.setattr(poset_module, "_relabelled", lambda bits: relabelled.append(k) or relabel(bits))
    rng = np.random.default_rng(k)
    for density in (0.02, 0.1, 0.5):
        labels = {"index": np.arange(k), "reversed": np.arange(k)[::-1], "shuffled": rng.permutation(k)}
        leq = closure(np.triu(rng.random((k, k)) < density, 1))[np.ix_(labels[orientation], labels[orientation])]
        lower, upper = poset_module._cover_rounds(_pack(leq))
        pairs = list(zip(lower.tolist(), upper.tolist()))
        assert sorted(pairs) == list(map(tuple, np.argwhere(dense_covers(leq)).tolist()))
        assert len(set(pairs)) == len(pairs)
    assert bool(relabelled) == (orientation == "shuffled" and k > 1)


@pytest.mark.parametrize("last", [False, True])
@pytest.mark.parametrize("width", [1, 64, 65, 128, 130])
def test_first_bits_at_the_word_edges(width, last):
    """The lowest (with ``last``, the highest) set bit at bits 0, 63, 64 and
    the last column, alone and with every bit after (before) it set."""
    columns = sorted({c for c in (0, 63, 64, width - 1) if c < width})
    j = np.arange(width)
    rows = [j == c for c in columns] + [(j <= c) if last else (j >= c) for c in columns]
    assert poset_module._first_bits(_pack(np.array(rows)), last).tolist() == columns * 2
