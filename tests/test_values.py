"""The contract of the eight value classes and the two report records:
equality and hashing, immutability, copying and pickling, and ``repr``."""

import copy
import itertools
import pickle
import subprocess
import sys

import pytest

from gogmagog import enumeration, orders
from gogmagog.triangles import (
    SCHEMA,
    MagogTriangle,
    MonotoneTriangle,
    PlanePartition,
    build_batch,
    entry_row,
    fundamental_domain,
    validate_tsscpp,
)

FAMILIES = ["asm", "boolean", "monotone", "magog", "nilp", "tsscpp", "permutation"]


def values(n):
    """Every value of every class at order n: the seven enumerated families
    and the fundamental domains of the TSSCPPs."""
    objects = [obj for family in FAMILIES for obj in enumeration.generate(family, n)]
    return objects + [fundamental_domain(p) for p in enumeration.generate("tsscpp", n)]


def field(obj):
    return getattr(obj, SCHEMA[type(obj)][1])


def as_lists(value):
    return [list(row) if isinstance(row, tuple) else row for row in value]


def test_the_values_cover_every_class():
    assert {type(obj) for obj in values(3)} == set(SCHEMA)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_equal_values_are_equal_and_hash_equal(n):
    for obj in values(n):
        again = type(obj)(n, as_lists(field(obj)))
        assert again == obj and not again != obj
        assert hash(again) == hash(obj) == hash((n, field(obj)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_built_values_equal_constructed_ones(n):
    for obj in values(n):
        built = build_batch(type(obj), n, entry_row(obj))
        assert built == [type(obj)(n, field(obj))] and type(built[0]) is type(obj)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_values_of_two_classes_with_equal_fields_differ(n):
    by_fields = {}
    for obj in values(n):
        by_fields.setdefault((n, field(obj)), []).append(obj)
    shared = [objs for objs in by_fields.values() if len({type(obj) for obj in objs}) > 1]
    assert any({MonotoneTriangle, MagogTriangle} <= {type(obj) for obj in objs} for objs in shared)
    for objs in shared:
        for a, b in itertools.combinations(objs, 2):
            assert a != b and not a == b
        assert len(set(objs)) == len(objs)
    for obj in values(n):
        assert obj != (n, field(obj))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_values_cannot_be_changed(n):
    for obj in values(n):
        name = SCHEMA[type(obj)][1]
        before = repr(obj)
        for attribute in ("n", name, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, attribute, 1)
            with pytest.raises(AttributeError):
                delattr(obj, attribute)
        assert repr(obj) == before


@pytest.mark.parametrize("n", [1, 2, 3])
def test_values_copy_and_pickle_to_equal_values(n):
    for obj in values(n):
        for again in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(again) is type(obj) and again == obj and hash(again) == hash(obj)
        with pytest.raises(AttributeError):
            pickle.loads(pickle.dumps(obj)).n = 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_value_repr_names_the_class_and_both_fields(n):
    for obj in values(n):
        name = SCHEMA[type(obj)][1]
        assert repr(obj) == f"{type(obj).__name__}(n={n!r}, {name}={field(obj)!r})"


def test_each_value_class_holds_its_own_constructor():
    """perfbench's trace times the constructor of each class on its own, so
    each class must hold ``__init__`` itself."""
    for cls in SCHEMA:
        assert "__init__" in vars(cls)


def records():
    """Report records and the repr each had as a frozen dataclass."""
    return [
        (orders.build_Tn_perm(4).lattice_report(), "LatticeReport(is_lattice=False, witness=('meet', '1432', '2314'))"),
        (orders.build_tamari(3).lattice_report(), "LatticeReport(is_lattice=True, witness=None)"),
        (
            validate_tsscpp(PlanePartition(1, ((2, 1), (1, 0)))),
            "SymmetryReport(symmetric=True, cyclically_symmetric=True, self_complementary=True)",
        ),
        (
            validate_tsscpp(PlanePartition(1, ((2, 2), (2, 2)))),
            "SymmetryReport(symmetric=True, cyclically_symmetric=True, self_complementary=False)",
        ),
    ]


@pytest.mark.parametrize(
    "record, recorded", records(), ids=["no-meet", "lattice", "tsscpp", "not-self-complementary"]
)
def test_records_keep_their_repr_equality_and_immutability(record, recorded):
    assert repr(record) == recorded
    again = type(record)(*record)
    assert again == record and hash(again) == hash(record)
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record) and copied == record
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == recorded


def test_the_command_line_does_not_import_dataclasses():
    """The value classes and records are declared without ``dataclasses``,
    whose code generation at import every command would pay for."""
    code = "import gogmagog.cli, sys; sys.exit('dataclasses' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
