"""Exhaustive generators and counters for every family.

Each family yields its objects exactly once, in lexicographic order on the
row-major representation.  The search is backtracking with constraint
propagation: boolean triangles prune on the diagonal partial sums row by row,
matrices prune on row/column prefix sums, monotone and magog triangles grow
from the fixed bottom row (any partial tower extends, so no dead ends), and
nests add one path at a time pruning on intersection with the previous path.
TSSCPPs are the expansions of the boolean triangles.

The search yields raw row tuples, which are validated in chunks of ``CHUNK``
values at a time by ``triangles.validate_batch`` (TSSCPPs by
``bijections.booleans_to_tsscpp``), with every check the constructors make.
:func:`count` adds up the sizes of the validated chunks and builds no
objects; :func:`generate` builds the objects of a validated chunk without
checking each one again.  A chunk that fails a check goes through the
validating constructors, which raise the first violation.

Orders are capped (``DEFAULT_CAPS``, overridable per call or via the
``TSSCPP_MAX_N`` environment variable) because the families grow too fast for
anything beyond desk scale.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import lru_cache
from itertools import chain, islice, permutations, product

from . import bijections
from .triangles import (
    Asm,
    BooleanTriangle,
    MagogTriangle,
    MonotoneTriangle,
    NilpNest,
    Permutation,
    PlanePartition,
    build_batch,
    validate_batch,
)

__all__ = ["FamilyId", "CapExceeded", "DEFAULT_CAPS", "generate", "count"]

ENV_CAP = "TSSCPP_MAX_N"
# Values validated at a time: large enough that the per-chunk numpy calls
# cost little, small enough that a chunk's arrays stay a few MB.
CHUNK = 2048


class FamilyId(str, Enum):
    ASM = "asm"
    MONOTONE = "monotone"
    MAGOG = "magog"
    BOOLEAN = "boolean"
    NILP = "nilp"
    TSSCPP = "tsscpp"
    PERMUTATION = "permutation"
    PERMUTATION_BOOLEAN = "permutation-boolean"


DEFAULT_CAPS = {
    FamilyId.ASM: 7,
    FamilyId.MONOTONE: 7,
    FamilyId.MAGOG: 7,
    FamilyId.BOOLEAN: 7,
    FamilyId.NILP: 7,
    FamilyId.TSSCPP: 7,
    FamilyId.PERMUTATION: 8,
    FamilyId.PERMUTATION_BOOLEAN: 8,
}


class CapExceeded(ValueError):
    pass


def _cap(family, max_n):
    """The order cap: ``max_n`` if given, else ``TSSCPP_MAX_N`` if set, else
    the family default.  A malformed ``TSSCPP_MAX_N`` raises CapExceeded."""
    if max_n is not None:
        return max_n
    env = os.environ.get(ENV_CAP)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CapExceeded(f"{ENV_CAP} must be an integer, got {env!r}") from None
    return DEFAULT_CAPS[family]


def _iter_boolean_rows(n):
    """Dense row tuples of all boolean triangles of order n, lex order."""
    if n == 1:
        yield ()
        return
    sums = [0] * n  # running sum of diagonal q, 1-based
    rows = []

    def rec(r):
        if r == n - 1:
            yield tuple(rows)
            return
        low_q = n - 1 - r
        for cand in product((0, 1), repeat=r + 1):
            ok = True
            for c, value in enumerate(cand):
                sums[low_q + c] += value
            for q in range(max(2, low_q), n):
                if 1 + sums[q - 1] < sums[q]:
                    ok = False
                    break
            if ok:
                rows.append(cand)
                yield from rec(r + 1)
                rows.pop()
            for c, value in enumerate(cand):
                sums[low_q + c] -= value
        return

    yield from rec(0)


def _iter_perm_boolean_rows(n):
    choices = [
        [(1,) * ones + (0,) * (r + 1 - ones) for ones in range(r + 2)]
        for r in range(n - 1)
    ]
    for row in choices:
        row.sort()
    for rows in product(*choices):
        yield rows


def _monotone_towers(n, rows_above):
    """All triangles grown upward from the fixed bottom row."""
    stack = [(tuple(range(1, n + 1)),)]
    out = []
    while stack:
        tower = stack.pop()
        if len(tower) == n:
            out.append(tower)
            continue
        for row in rows_above(tower[0]):
            stack.append((row,) + tower)
    return out


def _monotone_rows_above(row):
    k = len(row) - 1

    def rec(c, prev):
        if c == k:
            yield ()
            return
        for v in range(max(row[c], prev + 1), row[c + 1] + 1):
            for rest in rec(c + 1, v):
                yield (v,) + rest

    return rec(0, 0)


def _magog_rows_above(row, n):
    k = len(row) - 1

    def rec(c, prev):
        if c == k:
            yield ()
            return
        low = max(row[c], row[c + 1] - 1, prev + 1)
        # leave room for a strict tail within 1..n
        for v in range(low, n - (k - 1 - c) + 1):
            for rest in rec(c + 1, v):
                yield (v,) + rest

    return rec(0, 0)


def _iter_asm_matrices(n):
    """All alternating sign matrices, via row/column prefix-sum pruning."""
    col = [0] * n
    rows = []
    out = []

    def row_rec(r):
        if r == n:
            out.append(tuple(rows))
            return
        last = r == n - 1
        row = [0] * n

        def entry(c, acc):
            if c == n:
                if acc == 1:
                    rows.append(tuple(row))
                    row_rec(r + 1)
                    rows.pop()
                return
            for v in (-1, 0, 1):
                new_col = col[c] + v
                new_acc = acc + v
                if new_col not in (0, 1) or new_acc not in (0, 1):
                    continue
                if last and new_col != 1:
                    continue
                col[c] = new_col
                row[c] = v
                entry(c + 1, new_acc)
                col[c] = new_col - v
                row[c] = 0

        entry(0, 0)

    row_rec(0)
    return out


def _iter_nilp_paths(n):
    """Step tuples for all nests, path by path, pruning on intersection with
    the previous path (sufficient: adjacent non-crossing orders all paths)."""
    paths = []

    def rec(q, prev_points):
        if q == n:
            yield tuple(paths)
            return
        path = []

        def step(s, x, y, points):
            if s == q:
                paths.append(tuple(path))
                yield from rec(q + 1, frozenset(points))
                paths.pop()
                return
            for move in ("D", "V"):
                nx = x + 1 if move == "D" else x
                ny = y - 1
                if (nx, ny) in prev_points:
                    continue
                path.append(move)
                points.append((nx, ny))
                yield from step(s + 1, nx, ny, points)
                points.pop()
                path.pop()

        if (q, q) in prev_points:
            return
        yield from step(0, q, q, [(q, q)])

    yield from rec(1, frozenset())


def _chunks(values):
    values = iter(values)
    while chunk := list(islice(values, CHUNK)):
        yield chunk


def _sorted(search):
    return lambda n: sorted(search(n))


# family -> (class, search yielding the raw values of order n in order)
_SEARCH = {
    FamilyId.BOOLEAN: (BooleanTriangle, _iter_boolean_rows),
    FamilyId.PERMUTATION_BOOLEAN: (BooleanTriangle, _iter_perm_boolean_rows),
    FamilyId.PERMUTATION: (Permutation, lambda n: permutations(range(1, n + 1))),
    FamilyId.MONOTONE: (MonotoneTriangle, _sorted(lambda n: _monotone_towers(n, _monotone_rows_above))),
    FamilyId.MAGOG: (
        MagogTriangle,
        _sorted(lambda n: _monotone_towers(n, lambda row: _magog_rows_above(row, n))),
    ),
    FamilyId.ASM: (Asm, _sorted(_iter_asm_matrices)),
    FamilyId.NILP: (NilpNest, _sorted(_iter_nilp_paths)),
}


def _tsscpp_heights(n):
    """Validated heights arrays of the TSSCPPs of order n, chunk by chunk."""
    for chunk in _chunks(_iter_boolean_rows(n)):
        yield bijections.booleans_to_tsscpp(n, chunk)


@lru_cache(maxsize=32)
def _elements(family, n):
    if family is FamilyId.TSSCPP:
        rows = sorted(
            tuple(map(tuple, heights)) for chunk in _tsscpp_heights(n) for heights in chunk.tolist()
        )
        cls = PlanePartition
    else:
        cls, search = _SEARCH[family]
        rows = search(n)
    return tuple(chain.from_iterable(build_batch(cls, n, chunk) for chunk in _chunks(rows)))


def _checked(family, n, max_n):
    family = FamilyId(family)
    if n < 1:
        raise CapExceeded(f"order must be >= 1, got {n}")
    cap = _cap(family, max_n)
    if n > cap:
        raise CapExceeded(
            f"order {n} exceeds the cap {cap} for {family.value} "
            f"(raise it with max_n or {ENV_CAP})"
        )
    return family


def generate(family, n, *, max_n=None):
    """Yield the family at order n, each object once, deterministic order."""
    family = _checked(family, n, max_n)
    yield from _elements(family, n)


def count(family, n, *, max_n=None) -> int:
    """Size of the family at order n; every value is validated, none built."""
    family = _checked(family, n, max_n)
    if family is FamilyId.TSSCPP:
        return sum(len(heights) for heights in _tsscpp_heights(n))
    cls, search = _SEARCH[family]
    total = 0
    for chunk in _chunks(search(n)):
        if validate_batch(cls, n, chunk) is None:
            for value in chunk:
                cls(n, value)  # raises the first violation
        total += len(chunk)
    return total
