"""The scalar object maps the batched maps of ``gogmagog.bijections``
replaced, kept as the test oracle: each map walks one object entry by entry,
as the paper states it, with no numpy.  Also the scalar expansion and
extraction of fundamental domains (``expand_fundamental``,
``fundamental_domain``) and the conversion graph of scalar maps that
``gogmagog convert`` walked (``convert_object``).

Layer profiles
--------------
``boolean_from_fundamental`` encodes domain heights by levels.  For each
``q = 1 .. n-1`` consider the cells of the domain with height at least
``n - q`` (a shifted, strictly-row-decreasing shape confined to the first
``q`` columns).  A layer row of length ``r`` puts a zero at depth
``q - r + 1`` of diagonal ``q`` of the boolean triangle; all other entries
are ones.  The inverse reads the zero depths of each diagonal back into
nested layers and sums them.
"""

import numpy as np

from reference_stats import is_permutation_boolean, is_permutation_matrix
from gogmagog.bijections import (
    NotPermutationBoolean,
    NotPermutationMatrix,
    NotPermutationMonotone,
)
from gogmagog.triangles import (
    SCHEMA,
    Asm,
    BooleanTriangle,
    FundamentalDomain,
    InconsistentDomain,
    MagogTriangle,
    MonotoneTriangle,
    NilpNest,
    NotTsscpp,
    Permutation,
    PlanePartition,
    ValidationError,
    _closure,
    validate_tsscpp,
)


class ResultNotMagog(ValidationError):
    """A fundamental domain whose rotation is no magog triangle."""


def asm_to_monotone(a: Asm) -> MonotoneTriangle:
    """Row i lists, in increasing order, the columns whose top-i partial sum
    is one."""
    n = a.n
    rows = []
    col = [0] * n
    for r in range(n):
        for c in range(n):
            col[c] += a.rows[r][c]
        rows.append(tuple(c + 1 for c in range(n) if col[c] == 1))
    return MonotoneTriangle(n, tuple(rows))


def monotone_to_asm(m: MonotoneTriangle) -> Asm:
    n = m.n
    rows = []
    prev = frozenset()
    for r in range(n):
        cur = frozenset(m.rows[r])
        rows.append(tuple((1 if c in cur else 0) - (1 if c in prev else 0) for c in range(1, n + 1)))
        prev = cur
    return Asm(n, tuple(rows))


def permutation_matrix(p: Permutation) -> Asm:
    n = p.n
    return Asm(n, tuple(tuple(1 if p.sigma[r] == c else 0 for c in range(1, n + 1)) for r in range(n)))


def asm_to_permutation(a: Asm) -> Permutation:
    if not is_permutation_matrix(a):
        raise NotPermutationMatrix("matrix has a -1 entry")
    return Permutation(a.n, tuple(row.index(1) + 1 for row in a.rows))


def permutation_to_monotone(p: Permutation) -> MonotoneTriangle:
    """Row i is the sorted prefix sigma(1..i)."""
    return MonotoneTriangle(p.n, tuple(tuple(sorted(p.sigma[: r + 1])) for r in range(p.n)))


def monotone_to_permutation(m: MonotoneTriangle) -> Permutation:
    """sigma(i) is the unique new value in row i; defined exactly on the
    monotone triangles of permutation matrices."""
    sigma = []
    prev = frozenset()
    for row in m.rows:
        new = frozenset(row) - prev
        if len(new) != 1:
            raise NotPermutationMonotone("monotone triangle rows are not nested prefixes")
        sigma.append(next(iter(new)))
        prev = frozenset(row)
    return Permutation(m.n, tuple(sigma))


def magog_from_fundamental(d: FundamentalDomain) -> MagogTriangle:
    """Rotate the domain and add 1, 2, ..., n along the diagonals:
    triangle row i, dense position i-j+1 equals t[n+j][n+i] + i - j + 1."""
    n = d.n
    rows = [[0] * (i + 1) for i in range(n)]
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            rows[i - 1][i - j] = d.rows[j - 1][i - j] + i - j + 1
    try:
        return MagogTriangle(n, tuple(tuple(row) for row in rows))
    except ValidationError as exc:
        raise ResultNotMagog(f"domain does not yield a magog triangle: {exc}") from exc


def fundamental_from_magog(m: MagogTriangle) -> FundamentalDomain:
    n = m.n
    rows = [[0] * (n - i) for i in range(n)]
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            rows[j - 1][i - j] = m.rows[i - 1][i - j] - (i - j + 1)
    return FundamentalDomain(n, tuple(tuple(row) for row in rows))


def _layer_row_lengths(d: FundamentalDomain, level):
    """Row lengths of the domain cells with height >= level (strictly
    decreasing; rows weakly decrease so each run starts on the diagonal)."""
    lengths = []
    for row in d.rows:
        r = 0
        while r < len(row) and row[r] >= level:
            r += 1
        if r == 0:
            break
        lengths.append(r)
    return lengths


def boolean_from_fundamental(d: FundamentalDomain) -> BooleanTriangle:
    n = d.n
    rows = [[1] * (r + 1) for r in range(n - 1)]
    for q in range(1, n):
        for r in _layer_row_lengths(d, n - q):
            depth = q - r + 1
            if depth < 1 or rows[n - q + depth - 2][depth - 1] == 0:
                raise InconsistentDomain(
                    f"level {n - q} of the domain has an impossible row of length {r}"
                )
            rows[n - q + depth - 2][depth - 1] = 0
    return BooleanTriangle(n, tuple(tuple(row) for row in rows))


def fundamental_from_boolean(b: BooleanTriangle) -> FundamentalDomain:
    n = b.n
    rows = [[0] * (n - i) for i in range(n)]
    for q in range(1, n):
        depths = [s for s, value in enumerate(b.diagonal(q), start=1) if value == 0]
        lengths = sorted((q - s + 1 for s in depths), reverse=True)
        for i, r in enumerate(lengths):
            for c in range(r):
                rows[i][c] += 1
    return FundamentalDomain(n, tuple(tuple(row) for row in rows))


def boolean_to_nilp(b: BooleanTriangle) -> NilpNest:
    """Diagonal q, top to bottom, is path q: one = vertical step,
    zero = southeast diagonal step."""
    paths = tuple(
        tuple("V" if value else "D" for value in b.diagonal(q)) for q in range(1, b.n)
    )
    return NilpNest(b.n, paths)


def nilp_to_boolean(nest: NilpNest) -> BooleanTriangle:
    n = nest.n
    rows = [[0] * (r + 1) for r in range(n - 1)]
    for q, path in enumerate(nest.paths, start=1):
        for s, step in enumerate(path, start=1):
            rows[n - q + s - 2][s - 1] = 1 if step == "V" else 0
    return BooleanTriangle(n, tuple(tuple(row) for row in rows))


def nilp_from_fundamental(d: FundamentalDomain) -> NilpNest:
    return boolean_to_nilp(boolean_from_fundamental(d))


def fundamental_from_nilp(nest: NilpNest) -> FundamentalDomain:
    return fundamental_from_boolean(nilp_to_boolean(nest))


def magog_to_boolean(m: MagogTriangle) -> BooleanTriangle:
    return boolean_from_fundamental(fundamental_from_magog(m))


def boolean_to_magog(b: BooleanTriangle) -> MagogTriangle:
    return magog_from_fundamental(fundamental_from_boolean(b))


def tsscpp_to_boolean(p: PlanePartition) -> BooleanTriangle:
    return boolean_from_fundamental(fundamental_domain(p))


def boolean_to_tsscpp(b: BooleanTriangle) -> PlanePartition:
    return expand_fundamental(fundamental_from_boolean(b))


def _corner(p: PlanePartition):
    n = p.n
    return tuple(tuple(p.rows[n + i][n + j] for j in range(i, n)) for i in range(n))


def fundamental_domain(p: PlanePartition):
    """Extract the triangular corner t[i][j], n+1 <= i <= j <= 2n."""
    report = validate_tsscpp(p)
    if not report.all_true:
        raise NotTsscpp(f"array is not a TSSCPP: {report}")
    return FundamentalDomain(p.n, _corner(p))


def _padded_domain(d: FundamentalDomain):
    n = d.n
    dom = np.zeros((1, 2 * n + 1, 2 * n + 1), dtype=np.int64)
    for i, row in enumerate(d.rows):
        for c, entry in enumerate(row):
            dom[0, n + 1 + i, n + 1 + i + c] = entry
    return dom


def expand_fundamental(d: FundamentalDomain):
    """The unique TSSCPP with fundamental domain ``d``.

    The closure of the domain (see :func:`_closure`) is fully re-validated;
    failures mean the domain is inconsistent.
    """
    n = d.n
    side = 2 * n
    m = _closure(n, _padded_domain(d))[0]
    heights = m.sum(axis=2)
    k = np.arange(1, side + 1)
    if not (m == (k[None, None, :] <= heights[:, :, None])).all():
        raise InconsistentDomain("closure is not column-contiguous")
    try:
        p = PlanePartition(n, tuple(tuple(int(v) for v in row) for row in heights))
    except ValidationError as exc:
        raise InconsistentDomain(f"closure is not a plane partition: {exc}") from exc
    if not validate_tsscpp(p).all_true:
        raise InconsistentDomain("closure is not totally symmetric self-complementary")
    if _corner(p) != d.rows:
        raise InconsistentDomain("closure does not reproduce the domain")
    return p


def boolean_to_monotone_perm(b: BooleanTriangle) -> MonotoneTriangle:
    """The statistic-preserving permutation bijection, boolean side to matrix
    side: bottom row 1..n, then every entry copies its below-left neighbour
    over a one and its below-right neighbour over a zero."""
    if not is_permutation_boolean(b):
        raise NotPermutationBoolean("a row of the boolean triangle increases")
    n = b.n
    rows = [tuple(range(1, n + 1))]
    for r in range(n - 2, -1, -1):
        below = rows[0]
        rows.insert(0, tuple(below[c] if b.rows[r][c] else below[c + 1] for c in range(r + 1)))
    return MonotoneTriangle(n, tuple(rows))


def monotone_perm_to_boolean(m: MonotoneTriangle) -> BooleanTriangle:
    """Inverse of :func:`boolean_to_monotone_perm`, defined on monotone
    triangles of permutation matrices.  Rows are strict, so at most one of the
    two neighbour equalities can hold; if neither does the triangle has a
    strict-diagonal entry, i.e. a -1 in its matrix."""
    n = m.n
    rows = []
    for r in range(n - 1):
        below = m.rows[r + 1]
        row = []
        for c, entry in enumerate(m.rows[r]):
            if entry == below[c]:
                row.append(1)
            elif entry == below[c + 1]:
                row.append(0)
            else:
                raise NotPermutationMonotone(
                    f"entry at ({r + 1},{c + 1}) matches neither neighbour below"
                )
        rows.append(tuple(row))
    return BooleanTriangle(n, tuple(rows))


def permutation_to_boolean(p: Permutation) -> BooleanTriangle:
    return monotone_perm_to_boolean(permutation_to_monotone(p))


def boolean_to_permutation(b: BooleanTriangle) -> Permutation:
    return monotone_to_permutation(boolean_to_monotone_perm(b))


def bracket_vector(b: BooleanTriangle) -> tuple[int, ...]:
    """x_i = i + (sum of row n - i), the empty row counting as zero; a
    bijection from permutation boolean triangles onto sequences with
    i <= x_i <= n."""
    if not is_permutation_boolean(b):
        raise NotPermutationBoolean("a row of the boolean triangle increases")
    n = b.n
    return tuple(i + (sum(b.rows[n - i - 1]) if i < n else 0) for i in range(1, n + 1))


def bracket_vector_to_boolean(x) -> BooleanTriangle:
    x = tuple(x)
    n = len(x)
    for i, v in enumerate(x, start=1):
        if not i <= v <= n:
            raise ValidationError(f"entry {v} at position {i} outside {i}..{n}")
    rows = []
    for r in range(1, n):
        ones = x[n - r - 1] - (n - r)
        rows.append((1,) * ones + (0,) * (r - ones))
    return BooleanTriangle(n, tuple(rows))


# The conversion graph of the scalar maps: kind -> [(kind, map)].  The
# permutation bridge between the matrix side and the plane-partition side is
# only total on permutation objects; elsewhere it raises.
_EDGES = {
    "asm": [
        ("monotone_triangle", asm_to_monotone),
        ("permutation", asm_to_permutation),
    ],
    "monotone_triangle": [
        ("asm", monotone_to_asm),
        ("permutation", monotone_to_permutation),
    ],
    "permutation": [
        ("asm", permutation_matrix),
        ("monotone_triangle", permutation_to_monotone),
        ("boolean_triangle", permutation_to_boolean),
    ],
    "boolean_triangle": [
        ("permutation", boolean_to_permutation),
        ("fundamental_domain", fundamental_from_boolean),
        ("nilp_nest", boolean_to_nilp),
        ("magog_triangle", boolean_to_magog),
        ("plane_partition", boolean_to_tsscpp),
    ],
    "magog_triangle": [
        ("fundamental_domain", fundamental_from_magog),
        ("boolean_triangle", magog_to_boolean),
    ],
    "fundamental_domain": [
        ("magog_triangle", magog_from_fundamental),
        ("boolean_triangle", boolean_from_fundamental),
        ("nilp_nest", nilp_from_fundamental),
        ("plane_partition", expand_fundamental),
    ],
    "nilp_nest": [
        ("boolean_triangle", nilp_to_boolean),
        ("fundamental_domain", fundamental_from_nilp),
    ],
    "plane_partition": [
        ("fundamental_domain", fundamental_domain),
        ("boolean_triangle", tsscpp_to_boolean),
    ],
}


def _conversion_path(source, target):
    """Shortest kind path, BFS in fixed edge order for determinism."""
    if source == target:
        return []
    frontier = [(source, [])]
    seen = {source}
    while frontier:
        nxt = []
        for kind, path in frontier:
            for other, func in _EDGES.get(kind, ()):
                if other in seen:
                    continue
                step = path + [func]
                if other == target:
                    return step
                seen.add(other)
                nxt.append((other, step))
        frontier = nxt
    raise ValidationError(f"no conversion from {source} to {target}")


def convert_object(obj, kind):
    source = SCHEMA[type(obj)][0]
    for func in _conversion_path(source, kind):
        obj = func(obj)
    return obj
