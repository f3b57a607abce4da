"""The scalar inequality scans the constructors of ``gogmagog.triangles``
made before every family's rules became one table, kept as the test oracle.

Each function is one constructor's checks on a raw value, in the order the
constructor makes them: the input normalisation the constructor still makes
(order, integer entries or step letters, shape), then the entry-by-entry
scan that raises the first violated inequality.  The normalisation is
written out here too, so that no check is read from the code under test.
:func:`first_violation` returns that error, or None when the value is
valid.
"""

import numpy as np

from gogmagog.triangles import (
    AlternationError,
    Asm,
    BooleanTriangle,
    BottomRowError,
    ColumnSumError,
    EntryError,
    FundamentalDomain,
    InterlaceError,
    IntersectionError,
    MagogTriangle,
    MonotoneTriangle,
    MonotonicityError,
    NilpNest,
    PartialSumError,
    Permutation,
    PlanePartition,
    RowStrictError,
    RowSumError,
    ShapeError,
    ValidationError,
)


def _is_int(entry):
    return isinstance(entry, (int, np.integer)) and not isinstance(entry, bool)


def _check_order(n, what):
    if not _is_int(n) or n < 1:
        raise ShapeError(f"{what}: order must be an integer >= 1, got {n!r}")


def _as_rows(raw, what):
    """Normalize a nested sequence to a tuple of int tuples."""
    try:
        rows = tuple(map(tuple, raw))
    except TypeError:
        raise ShapeError(f"{what}: expected a sequence of rows")
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if not _is_int(entry):
                raise EntryError(f"{what}: entry at ({r + 1},{c + 1}) is not an integer", row=r + 1, col=c + 1)
    return tuple(tuple(int(entry) for entry in row) for row in rows)


def _check_triangular(rows, n, what):
    if len(rows) != n:
        raise ShapeError(f"{what}: expected {n} rows, got {len(rows)}")
    for r, row in enumerate(rows):
        if len(row) != r + 1:
            raise ShapeError(f"{what}: row {r + 1} has {len(row)} entries, expected {r + 1}", row=r + 1)


def monotone(n, raw):
    _check_order(n, "monotone triangle")
    rows = _as_rows(raw, "monotone triangle")
    _check_triangular(rows, n, "monotone triangle")
    if rows[n - 1] != tuple(range(1, n + 1)):
        raise BottomRowError(
            f"monotone triangle: bottom row must be 1..{n}", row=n
        )
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if not 1 <= entry <= n:
                raise EntryError(
                    f"monotone triangle: entry {entry} at ({r + 1},{c + 1}) "
                    f"outside 1..{n}",
                    row=r + 1,
                    col=c + 1,
                )
            if c + 1 < len(row) and not entry < row[c + 1]:
                raise RowStrictError(
                    f"monotone triangle: row {r + 1} not strictly increasing "
                    f"at position {c + 1}",
                    row=r + 1,
                    col=c + 1,
                )
            if r + 1 < n:
                below = rows[r + 1]
                if not below[c] <= entry <= below[c + 1]:
                    raise InterlaceError(
                        f"monotone triangle: entry {entry} at ({r + 1},{c + 1}) "
                        f"does not interlace {below[c]}, {below[c + 1]} below",
                        row=r + 1,
                        col=c + 1,
                    )
    return rows


def magog(n, raw):
    _check_order(n, "magog triangle")
    rows = _as_rows(raw, "magog triangle")
    _check_triangular(rows, n, "magog triangle")
    if rows[n - 1] != tuple(range(1, n + 1)):
        raise BottomRowError(f"magog triangle: bottom row must be 1..{n}", row=n)
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if not 1 <= entry <= n:
                raise EntryError(
                    f"magog triangle: entry {entry} at ({r + 1},{c + 1}) outside 1..{n}",
                    row=r + 1,
                    col=c + 1,
                )
            if c + 1 < len(row) and not entry < row[c + 1]:
                raise RowStrictError(
                    f"magog triangle: row {r + 1} not strictly increasing at "
                    f"position {c + 1}",
                    row=r + 1,
                    col=c + 1,
                )
            if r + 1 < n:
                below = rows[r + 1]
                if not below[c] <= entry:
                    raise InterlaceError(
                        f"magog triangle: entry {entry} at ({r + 1},{c + 1}) "
                        f"smaller than {below[c]} below-left",
                        row=r + 1,
                        col=c + 1,
                    )
                if not below[c + 1] <= entry + 1:
                    raise InterlaceError(
                        f"magog triangle: entry {entry} at ({r + 1},{c + 1}) "
                        f"more than one below {below[c + 1]} below-right",
                        row=r + 1,
                        col=c + 1,
                    )
    return rows


def boolean(n, raw):
    _check_order(n, "boolean triangle")
    rows = _as_rows(raw, "boolean triangle")
    _check_triangular(rows, n - 1, "boolean triangle")
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if entry not in (0, 1):
                raise EntryError(
                    f"boolean triangle: entry {entry} at ({r + 1},{c + 1}) not 0/1",
                    row=r + 1,
                    col=c + 1,
                )
    # Running sums per diagonal q = 1..n-1; rows[r][c] lies on diagonal
    # q = n - 1 - r + c.  Check, entry by entry in row-major order, the
    # inequality 1 + sum(diagonal q-1) >= sum(diagonal q) at this depth.
    sums = [0] * (n + 1)
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            q = n - 1 - r + c
            sums[q] += entry
        for c in range(len(row)):
            q = n - 1 - r + c
            if q >= 2 and not 1 + sums[q - 1] >= sums[q]:
                raise PartialSumError(
                    f"boolean triangle: partial sums of diagonals {q - 1},{q} "
                    f"cross at depth {r + 1}",
                    j=n - q,
                    i_prime=r + 1,
                    row=r + 1,
                    col=c + 1,
                )
    return rows


def _points(paths, i):
    """Lattice points visited by path ``i``, start and endpoint included."""
    x, y = i, i
    pts = [(x, y)]
    for step in paths[i - 1]:
        if step == "D":
            x += 1
        y -= 1
        pts.append((x, y))
    return tuple(pts)


def nest(n, raw):
    _check_order(n, "nest")
    try:
        paths = tuple(tuple(step for step in path) for path in raw)
    except TypeError:
        raise ShapeError("nest: expected a sequence of step sequences")
    for i, path in enumerate(paths, start=1):
        for step in path:
            if step not in ("V", "D"):
                raise EntryError(f"nest: path {i} has step {step!r}, expected 'V'/'D'")
    if len(paths) != n - 1:
        raise ShapeError(f"nest: expected {n - 1} paths, got {len(paths)}")
    for i, path in enumerate(paths, start=1):
        if len(path) != i:
            raise ShapeError(f"nest: path {i} has {len(path)} steps, expected {i}")
    seen = {}
    for i, path in enumerate(paths, start=1):
        for point in _points(paths, i):
            if point in seen:
                raise IntersectionError(
                    f"nest: paths {seen[point]} and {i} share the point {point}"
                )
            seen[point] = i
    return paths


def asm(n, raw):
    _check_order(n, "asm")
    rows = _as_rows(raw, "asm")
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ShapeError(f"asm: expected a {n}x{n} matrix")
    col = [0] * n
    for r, row in enumerate(rows):
        acc = 0
        for c, entry in enumerate(row):
            if entry not in (-1, 0, 1):
                raise EntryError(
                    f"asm: entry {entry} at ({r + 1},{c + 1}) not in -1/0/1",
                    row=r + 1,
                    col=c + 1,
                )
            acc += entry
            col[c] += entry
            if acc not in (0, 1):
                raise AlternationError(
                    f"asm: row {r + 1} prefix sum {acc} at column {c + 1}",
                    row=r + 1,
                    col=c + 1,
                )
            if col[c] not in (0, 1):
                raise AlternationError(
                    f"asm: column {c + 1} prefix sum {col[c]} at row {r + 1}",
                    row=r + 1,
                    col=c + 1,
                )
        if acc != 1:
            raise RowSumError(f"asm: row {r + 1} sums to {acc}, expected 1", row=r + 1)
    for c in range(n):
        if col[c] != 1:
            raise ColumnSumError(f"asm: column {c + 1} sums to {col[c]}, expected 1", col=c + 1)
    return rows


def permutation(n, raw):
    _check_order(n, "permutation")
    try:
        sigma = tuple(raw)
    except TypeError:
        raise ShapeError("permutation: expected a sequence of values")
    for i, v in enumerate(sigma, start=1):
        if not _is_int(v):
            raise EntryError(f"permutation: value at position {i} is not an integer", col=i)
    sigma = tuple(int(v) for v in sigma)
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValidationError(f"permutation: {sigma} is not a bijection on 1..{n}")
    return sigma


def plane_partition(n, raw):
    _check_order(n, "plane partition")
    rows = _as_rows(raw, "plane partition")
    side = 2 * n
    if len(rows) != side or any(len(row) != side for row in rows):
        raise ShapeError(f"plane partition: expected a {side}x{side} array")
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if not 0 <= entry <= side:
                raise EntryError(
                    f"plane partition: entry {entry} at ({r + 1},{c + 1}) outside 0..{side}",
                    row=r + 1,
                    col=c + 1,
                )
            if c + 1 < side and row[c + 1] > entry:
                raise MonotonicityError(
                    f"plane partition: row {r + 1} increases at column {c + 2}",
                    row=r + 1,
                    col=c + 2,
                )
            if r + 1 < side and rows[r + 1][c] > entry:
                raise MonotonicityError(
                    f"plane partition: column {c + 1} increases at row {r + 2}",
                    row=r + 2,
                    col=c + 1,
                )
    return rows


def fundamental_domain(n, raw):
    _check_order(n, "fundamental domain")
    rows = _as_rows(raw, "fundamental domain")
    if len(rows) != n or any(len(row) != n - i for i, row in enumerate(rows)):
        raise ShapeError(f"fundamental domain: expected rows of lengths {n}..1")
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if entry < 0:
                raise EntryError(
                    f"fundamental domain: negative entry at ({r + 1},{c + 1})",
                    row=r + 1,
                    col=c + 1,
                )
            if c + 1 < len(row) and row[c + 1] > entry:
                raise MonotonicityError(
                    f"fundamental domain: row {r + 1} increases at position {c + 2}",
                    row=r + 1,
                    col=c + 2,
                )
            # Same absolute column in the next row sits one slot left.
            if r + 1 < n and c >= 1 and rows[r + 1][c - 1] > entry:
                raise MonotonicityError(
                    f"fundamental domain: column under ({r + 1},{c + 1}) increases",
                    row=r + 2,
                    col=c,
                )
    return rows


CHECKS = {
    MonotoneTriangle: monotone,
    MagogTriangle: magog,
    BooleanTriangle: boolean,
    NilpNest: nest,
    Asm: asm,
    Permutation: permutation,
    PlanePartition: plane_partition,
    FundamentalDomain: fundamental_domain,
}


def first_violation(cls, n, raw):
    """The error the scalar scan of ``cls`` raises on ``raw`` at order ``n``,
    or None when the value is valid."""
    try:
        CHECKS[cls](n, raw)
    except ValidationError as error:
        return error
    return None
