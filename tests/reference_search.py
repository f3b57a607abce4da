"""The recursive backtracking searches of every family but TSSCPPs.

``enumeration`` searches boolean triangles and ASMs row by row over a numpy
frontier and derives monotone and magog triangles, nests and permutation
boolean triangles through batched bijections; these are the definitional
searches it replaced, kept as its differential oracle.  Each yields raw
values, the constructors' second arguments, in lexicographic order;
:data:`SEARCH` gives each family's class and search.
"""

from itertools import permutations, product

from gogmagog.enumeration import FamilyId
from gogmagog.triangles import Asm, BooleanTriangle, MagogTriangle, MonotoneTriangle, NilpNest, Permutation


def boolean_rows(n):
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


def asm_matrices(n):
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


def perm_boolean_rows(n):
    choices = [
        [(1,) * ones + (0,) * (r + 1 - ones) for ones in range(r + 2)]
        for r in range(n - 1)
    ]
    for row in choices:
        row.sort()
    for rows in product(*choices):
        yield rows


def monotone_towers(n, rows_above):
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


def monotone_rows_above(row):
    k = len(row) - 1

    def rec(c, prev):
        if c == k:
            yield ()
            return
        for v in range(max(row[c], prev + 1), row[c + 1] + 1):
            for rest in rec(c + 1, v):
                yield (v,) + rest

    return rec(0, 0)


def magog_rows_above(row, n):
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


def nilp_paths(n):
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


def sorted_search(search):
    return lambda n: sorted(search(n))


# family -> (class, search yielding the raw values of order n in order)
SEARCH = {
    FamilyId.BOOLEAN: (BooleanTriangle, boolean_rows),
    FamilyId.PERMUTATION_BOOLEAN: (BooleanTriangle, perm_boolean_rows),
    FamilyId.PERMUTATION: (Permutation, lambda n: permutations(range(1, n + 1))),
    FamilyId.MONOTONE: (MonotoneTriangle, sorted_search(lambda n: monotone_towers(n, monotone_rows_above))),
    FamilyId.MAGOG: (
        MagogTriangle,
        sorted_search(lambda n: monotone_towers(n, lambda row: magog_rows_above(row, n))),
    ),
    FamilyId.ASM: (Asm, asm_matrices),
    FamilyId.NILP: (NilpNest, sorted_search(nilp_paths)),
}


def values(family, n):
    """The raw values of the family at order n, in the enumeration's order."""
    return list(SEARCH[FamilyId(family)][1](n))
