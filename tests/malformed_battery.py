"""A battery of malformed inputs for every constructor, and what each one
reports: the exception class, message, ``row`` and ``col`` (or the built
object's repr), and the ``stats`` CLI's stdout, stderr and exit code on the
input's JSON form.  ``golden_malformed.py`` holds the answers recorded
before the eight constructors became one; ``test_malformed.py`` compares.

Run as a script to print the answers as a Python dict:

    PYTHONPATH=src python tests/malformed_battery.py
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from gogmagog import cli
from gogmagog.triangles import (
    Asm,
    BooleanTriangle,
    FundamentalDomain,
    MagogTriangle,
    MonotoneTriangle,
    NilpNest,
    Permutation,
    PlanePartition,
    SCHEMA,
)

# One valid value per class, and its order.
VALID = {
    MonotoneTriangle: (3, ((2,), (1, 3), (1, 2, 3))),
    MagogTriangle: (3, ((1,), (1, 2), (1, 2, 3))),
    BooleanTriangle: (3, ((1,), (1, 0))),
    NilpNest: (3, (("V",), ("D", "V"))),
    Asm: (3, ((0, 1, 0), (1, -1, 1), (0, 1, 0))),
    Permutation: (3, (2, 3, 1)),
    PlanePartition: (1, ((2, 1), (1, 0))),
    FundamentalDomain: (3, ((3, 2, 1), (2, 1), (1,))),
}

# Entries put in place of the first entry of a valid value; JSON can carry
# all but the numpy integer.
ENTRIES = {
    "float": lambda e: 1.0,
    "bool": lambda e: True,
    "np_int64": lambda e: np.int64(1) if isinstance(e, str) else np.int64(e),
    "text": lambda e: "X" if isinstance(e, str) else "1",
    "none": lambda e: None,
}


def _first_replaced(value, new):
    if not isinstance(value[0], tuple):  # a flat permutation
        return (new,) + value[1:]
    return ((new,) + value[0][1:],) + value[1:]


def cases():
    """(case id, class, order, value), in a fixed order."""
    for cls, (n, value) in VALID.items():
        name = cls.__name__
        flat = cls is Permutation
        yield f"{name}/valid", cls, n, value
        yield f"{name}/lists", cls, n, [list(row) for row in value] if not flat else list(value)
        yield f"{name}/non_sequence", cls, n, 5
        yield f"{name}/none", cls, n, None
        for label, entry in ENTRIES.items():
            first = value[0] if flat else value[0][0]
            yield f"{name}/entry_{label}", cls, n, _first_replaced(value, entry(first))
        yield f"{name}/too_few_rows", cls, n, value[:-1]
        yield f"{name}/too_many_rows", cls, n, value + value[-1:]
        yield f"{name}/no_rows", cls, n, ()
        if not flat:
            yield f"{name}/row_not_sequence", cls, n, (7,) + value[1:]
            yield f"{name}/last_row_short", cls, n, value[:-1] + (value[-1][:-1],)
            yield f"{name}/first_row_long", cls, n, (value[0] + value[0][:1],) + value[1:]
            # An entry-type defect and a shape defect at once.
            bad = "X" if cls is NilpNest else 1.5
            yield f"{name}/bad_entry_and_short_row", cls, n, (value[0] + (bad,),) + value[1:]
            yield f"{name}/bad_entry_and_missing_row", cls, n, ((bad,) + value[0][1:],) + value[1:-1]
        for label, order in (("zero", 0), ("negative", -1), ("bool", True), ("text", "3"), ("float", 3.0)):
            yield f"{name}/order_{label}", cls, order, value
    yield "NilpNest/paths_as_strings", NilpNest, 3, ("V", "DV")
    yield "NilpNest/bad_letter", NilpNest, 3, (("V",), ("D", "X"))
    yield "NilpNest/lowercase_letter", NilpNest, 3, (("v",), ("D", "V"))
    yield "NilpNest/bad_letter_and_long_path", NilpNest, 3, (("V", "D"), ("X",))
    yield "Permutation/short", Permutation, 3, (1, 2)
    yield "Permutation/long", Permutation, 3, (1, 2, 3, 4)
    yield "Permutation/order_np_int64", Permutation, np.int64(3), (2, 3, 1)


def construct(cls, n, value):
    """What constructing ``cls(n, value)`` gives, as a tuple of plain data."""
    try:
        obj = cls(n, value)
    except Exception as error:  # the battery records whatever is raised
        return (type(error).__name__, str(error), getattr(error, "row", None), getattr(error, "col", None))
    return ("ok", repr(obj))


def _as_json(x):
    if isinstance(x, (tuple, list)):
        return [_as_json(e) for e in x]
    if isinstance(x, np.integer):
        raise TypeError("no JSON form")
    return x


def stats(cls, n, value):
    """stdout, stderr and exit code of ``stats`` on the JSON form of the
    input, or None when it has none."""
    try:
        kind, field = SCHEMA[cls]
        text = json.dumps({"kind": kind, "n": _as_json(n), field: _as_json(value)})
    except TypeError:
        return None
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["stats", text])
    return (out.getvalue(), err.getvalue(), code)


def answers():
    return {case: (construct(cls, n, value), stats(cls, n, value)) for case, cls, n, value in cases()}


if __name__ == "__main__":
    print('"""What each input of ``malformed_battery.py`` gave before the eight')
    print('constructors became one: (constructor result, ``stats`` CLI result)."""')
    print()
    print("ANSWERS = {")
    for key, value in answers().items():
        print(f"    {key!r}: {value!r},")
    print("}")
