"""Statistics on the object families and distributions over them.

The bundle preserved by the permutation bijection: inversion number <-> zero
count, position of the one in the last matrix row <-> zero count of the last
triangle row, position of the one in the last matrix column <-> lowest one of
the last triangle diagonal.

Every statistic and permutation predicate is one batched function on
validated entry arrays of order n (one row per value, the layout of
``triangles.validate_batch`` and ``enumeration``), listed by kind in
``KINDS``.  :func:`distribution` (behind ``gogmagog dist``) runs one of them
over the validated chunks of ``enumeration`` and builds no object; an
object's statistics (:func:`object_statistics`, behind ``gogmagog stats``,
and the object functions such as :func:`inversion_number`) are the same
functions on its entries as a batch of one.  The scalar scans these replaced
are the test oracle (``tests/reference_stats.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from . import bijections, enumeration
from .triangles import SCHEMA, Permutation, _triangle_cells, _triangle_neighbours, entry_row

__all__ = [
    "KINDS",
    "STATISTICS",
    "StatBundle",
    "object_statistics",
    "inversion_number",
    "perm_inversions",
    "boolean_zero_count",
    "boolean_stat_triple",
    "stat_bundle",
    "is_permutation_matrix",
    "is_permutation_boolean",
    "is_permutation_magog",
    "is_permutation_tsscpp",
    "avoids",
    "avoiding",
    "distribution",
]


def _asm_inversions(n, a):
    """The sum of A[i,j] * A[k,l] over all pairs with i > k and j < l: each
    entry times the sum of the entries strictly above and right of it."""
    m = a.reshape(len(a), n, n).astype(np.int64)
    above = m.cumsum(axis=1) - m
    above_right = above[:, :, ::-1].cumsum(axis=2)[:, :, ::-1] - above
    return (m * above_right).sum(axis=(1, 2))


def _permutation_inversions(n, a):
    """Pairs i < j with sigma(j) < sigma(i), counted one position j at a
    time, so that a row of order n takes O(n) memory, not n * n."""
    total = np.zeros(len(a), dtype=np.int64)
    for j in range(1, n):
        total += (a[:, :j] > a[:, j : j + 1]).sum(axis=1)
    return total


def _strict_diagonal_entries(n, a):
    """Monotone entries strictly between both diagonal neighbours below;
    these match the -1 entries of the corresponding matrix."""
    _, above, below_left = _triangle_neighbours(n)
    return ((a[:, below_left] < a[:, above]) & (a[:, above] < a[:, below_left + 1])).sum(axis=1)


def _lowest_one_last_diagonal(n, a):
    """The row (1-based) of the lowest one of diagonal n - 1, whose entry in
    row r + 1 is (r, r); 0 when the diagonal has no ones."""
    r, c = _triangle_cells(n - 1)
    diagonal = np.pad(a[:, r == c], ((0, 0), (1, 0)), constant_values=1)
    return n - 1 - diagonal[:, ::-1].argmax(axis=1)


def _zero_then_one(n, a):
    """Adjacent (0, 1) pairs read across the rows of a boolean triangle."""
    right, _, _ = _triangle_neighbours(n - 1)
    return ((a[:, right] == 0) & (a[:, right + 1] == 1)).sum(axis=1)


def _permutation_tsscpps(n, a):
    """A plane partition that is no TSSCPP raises NotTsscpp."""
    booleans = bijections.domains_to_booleans(n, bijections.tsscpps_to_domains(n, a))
    return bijections.permutation_booleans(n, booleans)


# kind -> {statistic: batched function}, in the order ``gogmagog stats``
# prints them.  Nests and fundamental domains have none of their own.  The
# first and last rows and columns of an ASM hold a single nonzero entry, a
# one.  Each function takes the search's int8 chunks as they come: they
# compare, count and take positions, whose results numpy counts in int64,
# and only the ASM inversion sum, of products, widens its entries first.
KINDS = {
    "asm": {
        "inversions": _asm_inversions,
        "negative_ones": lambda n, a: (a < 0).sum(axis=1),
        "last_row_one_col": lambda n, a: a[:, n * (n - 1) :].argmax(axis=1) + 1,
        "last_col_one_row": lambda n, a: a[:, n - 1 :: n].argmax(axis=1) + 1,
        "is_permutation": bijections.permutation_asms,
    },
    "permutation": {"inversions": _permutation_inversions},
    "monotone_triangle": {"strict_diagonal_entries": _strict_diagonal_entries},
    "boolean_triangle": {
        "zeros": lambda n, a: (a == 0).sum(axis=1),
        "last_row_zeros": lambda n, a: (a[:, a.shape[1] - (n - 1) :] == 0).sum(axis=1),
        "lowest_one_last_diagonal": _lowest_one_last_diagonal,
        "zero_then_one": _zero_then_one,
        "is_permutation": bijections.permutation_booleans,
    },
    "magog_triangle": {
        "is_permutation": lambda n, a: bijections.permutation_booleans(n, bijections.magogs_to_booleans(n, a))
    },
    "plane_partition": {"is_permutation": _permutation_tsscpps},
}

# The statistics ``distribution`` counts: name -> {family value: the function
# of ``KINDS`` for the kind of the family's objects}.
STATISTICS = {
    name: {f.value: KINDS[SCHEMA[cls][0]][name] for f, cls in enumeration.FAMILY_CLASSES.items()
           if name in KINDS.get(SCHEMA[cls][0], {})}
    for name in ("inversions", "negative_ones", "zeros", "last_row_zeros", "zero_then_one", "strict_diagonal_entries")
}


def object_statistics(obj):
    """The statistics of the object's kind in ``KINDS``, by name, each on its
    entries as a batch of one (a nest's or a domain's: its boolean
    triangle's).  An empty last diagonal has no lowest one (None)."""
    kind = SCHEMA[type(obj)][0]
    if kind not in KINDS:
        return object_statistics(bijections.convert(obj, "boolean_triangle"))
    a = entry_row(obj)
    stats = {name: func(obj.n, a)[0].item() for name, func in KINDS[kind].items()}
    if "lowest_one_last_diagonal" in stats:
        stats["lowest_one_last_diagonal"] = stats["lowest_one_last_diagonal"] or None
    return stats


def _object_statistic(name):
    """The statistic ``name`` of an object: its function in ``KINDS`` on the
    object's entries as a batch of one."""
    return lambda obj: KINDS[SCHEMA[type(obj)][0]][name](obj.n, entry_row(obj))[0].item()


inversion_number = _object_statistic("inversions")
perm_inversions = _object_statistic("inversions")
boolean_zero_count = _object_statistic("zeros")
is_permutation_matrix = _object_statistic("is_permutation")
is_permutation_boolean = _object_statistic("is_permutation")
is_permutation_magog = _object_statistic("is_permutation")
is_permutation_tsscpp = _object_statistic("is_permutation")

# Per-call costs at order 6, measured on a 2-CPU Xeon with Python 3.11.7 and
# numpy 2.4.6 over 2,000 objects, against the batched function over all
# 7,436 entry rows of the family.
_ONE_ROW = """Whether a {what} is the image of a permutation, by
``KINDS["{kind}"]["is_permutation"]`` on its entries as a batch of one.
One call costs about {call} µs at order 6.  On a whole entry array
(``enumeration.entries``) that function costs {batch} µs per object, so a
loop over many objects should call it there instead."""
is_permutation_boolean.__doc__ = _ONE_ROW.format(what="boolean triangle", kind="boolean_triangle", call=16, batch=0.02)
is_permutation_magog.__doc__ = _ONE_ROW.format(what="magog triangle", kind="magog_triangle", call=260, batch=2.5)
is_permutation_tsscpp.__doc__ = _ONE_ROW.format(what="TSSCPP", kind="plane_partition", call=350, batch=20)


def boolean_stat_triple(b):
    stats = object_statistics(b)
    return stats["zeros"], stats["last_row_zeros"], stats["lowest_one_last_diagonal"]


@dataclass(frozen=True)
class StatBundle:
    """The four matrix-side statistics of the permutation bijection."""

    inversion_number: int
    negative_ones: int
    last_row_one_col: int
    last_col_one_row: int


def stat_bundle(a) -> StatBundle:
    s = object_statistics(a)
    return StatBundle(s["inversions"], s["negative_ones"], s["last_row_one_col"], s["last_col_one_row"])


# Pattern comparisons ``avoiding`` makes at a time: rows times choices of
# positions times pattern cells.
_AVOID_CELLS = 1 << 20


def avoiding(perms, pattern):
    """The mask of the rows of a permutation entry array (one row per
    permutation) with no subsequence order-isomorphic to the pattern tuple,
    testing the choices of positions a block at a time.  Every permutation
    contains the empty pattern, and none a pattern longer than itself."""
    pattern = np.array(pattern, dtype=np.int64)
    k = len(pattern)
    order = pattern[:, None] < pattern
    positions = combinations(range(perms.shape[1]), k)
    step = max(1, _AVOID_CELLS // max(1, len(perms) * k * k))
    contains = np.zeros(len(perms), dtype=bool)
    while block := list(islice(positions, step)):
        values = perms[:, np.array(block, dtype=np.intp).reshape(len(block), k)]
        contains |= ((values[..., :, None] < values[..., None, :]) == order).all(axis=(2, 3)).any(axis=1)
    return ~contains


def avoids(p, pattern) -> bool:
    """True iff no subsequence of p is order-isomorphic to the pattern (a
    tuple or a Permutation)."""
    pattern = pattern.sigma if isinstance(pattern, Permutation) else tuple(pattern)
    return bool(avoiding(entry_row(p), pattern)[0])


def distribution(family, n, statistic):
    """Counts of the family's values at order n by the value of the
    registered ``statistic``: its batched function over the validated
    chunks of ``enumeration``, unsorted, as ``enumeration.count`` reads
    them.  No object is built."""
    family = enumeration.FamilyId(family)
    try:
        func = STATISTICS[statistic][family.value]
    except KeyError:
        raise KeyError(f"statistic {statistic!r} is not defined for {family.value}")
    counts = Counter()
    for a in enumeration._validated(enumeration._check_order(n, family), n):
        values, sizes = np.unique(func(n, a), return_counts=True)
        counts.update(dict(zip(values.tolist(), sizes.tolist())))
    return dict(sorted(counts.items()))
