"""Constructors for the specific partial orders under study.

Object posets (componentwise orders on triangles, ideal lattices of the
three-dimensional join-irreducible posets) label their elements with the
canonical JSON of the underlying object.  Permutation posets (Bruhat orders,
the permutation subposets, Tamari and Catalan orders keyed to permutations)
use one-line notation strings so the same ground set can be compared across
different orders.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial

import numpy as np

from . import bijections, enumeration
from .enumeration import CapExceeded
from .poset import Poset, SizeCap
from .triangles import Permutation, to_json

__all__ = [
    "build_Pn",
    "build_Qn",
    "build_An",
    "build_Tn",
    "build_TBool",
    "build_An_perm",
    "build_Tn_perm",
    "build_TBool_perm",
    "build_weak_order",
    "build_strong_bruhat",
    "build_tamari",
    "build_catalan_distributive",
    "build_product_of_chains",
    "permutation_booleans",
    "bracket_vectors",
    "catalan_sequences",
    "bracket_label_map",
]


# The most elements a componentwise order is built on.
_MAX_COMPONENTWISE = 20_000


def _check_size(size, max_size=_MAX_COMPONENTWISE):
    if size > max_size:
        raise SizeCap(f"componentwise poset on {size} elements exceeds {max_size}")


def _componentwise(labels, vectors, *, reverse=False, max_size=_MAX_COMPONENTWISE):
    """Componentwise order on integer vectors; ``reverse`` compares them the
    other way round (x <= y iff x >= y componentwise)."""
    _check_size(len(vectors), max_size)
    arr = np.array(vectors, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(len(vectors), 0)
    return Poset.componentwise(labels, -arr if reverse else arr)


def _check_order(n):
    """The order check of :func:`enumeration.generate`, for the other builders."""
    if n < 1:
        raise CapExceeded(f"order must be >= 1, got {n}")


def _coordinate_poset(n, cover_moves):
    """Poset on coordinates (i, j, k), 0 <= i, j <= n-2-i, k <= n-2-i-j,
    generated by the given cover moves and closed transitively."""
    _check_order(n)
    elements = [
        (i, j, k)
        for i in range(n - 1)
        for j in range(n - 1 - i)
        for k in range(n - 1 - i - j)
    ]
    labels = [str(e) for e in elements]
    index = {e: i for i, e in enumerate(elements)}
    pairs = []
    for e in elements:
        i, j, k = e
        for move in cover_moves:
            target = (i + move[0], j + move[1], k + move[2])
            if target in index:
                # e covers target: target < e
                pairs.append((str(target), str(e)))
    return Poset.from_covers(labels, pairs)


def build_Pn(n):
    """Join irreducibles of the matrix order: (i,j,k) covers (i,j+1,k),
    (i,j+1,k-1), (i+1,j,k), (i+1,j,k-1)."""
    return _coordinate_poset(n, ((0, 1, 0), (0, 1, -1), (1, 0, 0), (1, 0, -1)))


def build_Qn(n):
    """Join irreducibles of the plane-partition order: (i,j,k) covers
    (i+1,j-1,k), (i,j+1,k-1), (i+1,j,k)."""
    return _coordinate_poset(n, ((1, -1, 0), (0, 1, -1), (1, 0, 0)))


def _triangle_vector(t):
    return [entry for row in t.rows for entry in row]


def build_An(n):
    """Componentwise order on monotone triangles."""
    triangles = list(enumeration.generate(enumeration.FamilyId.MONOTONE, n))
    return _componentwise([to_json(t) for t in triangles], [_triangle_vector(t) for t in triangles])


def build_Tn(n):
    """Componentwise order on magog triangles, listed in the order
    ``enumeration.generate`` yields them."""
    triangles = list(enumeration.generate(enumeration.FamilyId.MAGOG, n))
    return _componentwise([to_json(t) for t in triangles], [_triangle_vector(t) for t in triangles])


def build_TBool(n):
    """Reverse componentwise order on boolean triangles."""
    triangles = list(enumeration.generate(enumeration.FamilyId.BOOLEAN, n))
    return _componentwise(
        [to_json(t) for t in triangles],
        [_triangle_vector(t) for t in triangles],
        reverse=True,
    )


def _permutations(n):
    """The permutations of order n, after the order and size checks of the
    componentwise order on them, so that a refused order converts nothing."""
    _check_order(n)
    _check_size(factorial(n))
    return list(enumeration.generate(enumeration.FamilyId.PERMUTATION, n))


def permutation_booleans(n):
    """(one-line label, boolean triangle) of each permutation of order n, in
    the order of ``enumeration.generate``.  The checks run on every call,
    the conversions once per order."""
    _permutations(n)
    return _permutation_booleans(n)


@lru_cache(maxsize=8)
def _permutation_booleans(n):
    return tuple((p.one_line(), bijections.permutation_to_boolean(p)) for p in _permutations(n))


def build_An_perm(n):
    """Permutation subposet of the monotone-triangle order, labelled by
    one-line notation."""
    perms = _permutations(n)
    vectors = [_triangle_vector(bijections.permutation_to_monotone(p)) for p in perms]
    return _componentwise([p.one_line() for p in perms], vectors)


def build_Tn_perm(n):
    """Permutation subposet of the magog order (componentwise on the magog
    triangles of permutations), labelled by one-line notation."""
    pairs = permutation_booleans(n)
    vectors = [_triangle_vector(bijections.boolean_to_magog(b)) for _, b in pairs]
    return _componentwise([label for label, _ in pairs], vectors)


def build_TBool_perm(n):
    """Permutation subposet of the boolean order (reverse componentwise),
    labelled by one-line notation."""
    pairs = permutation_booleans(n)
    vectors = [_triangle_vector(b) for _, b in pairs]
    return _componentwise([label for label, _ in pairs], vectors, reverse=True)


def _value_swap_covers(n, adjacent_only):
    """Cover pairs (sigma, tau) where tau swaps values v < w of sigma, v
    appearing first, creating exactly one new inversion.  Adjacent values
    only for the weak order; otherwise any values with nothing in between
    positionwise smaller."""
    perms = list(enumeration.generate(enumeration.FamilyId.PERMUTATION, n))
    pairs = []
    for p in perms:
        sigma = p.sigma
        pos = {v: i for i, v in enumerate(sigma)}
        for v in range(1, n + 1):
            for w in (range(v + 1, v + 2) if adjacent_only else range(v + 1, n + 1)):
                if w > n or pos[v] > pos[w]:
                    continue
                # swapping v and w adds the inversion (v, w) plus two for
                # every value strictly between them positioned between them
                between = sum(
                    1 for u in range(v + 1, w) if pos[v] < pos[u] < pos[w]
                )
                if between:
                    continue
                tau = list(sigma)
                tau[pos[v]], tau[pos[w]] = w, v
                pairs.append((p.one_line(), Permutation(n, tuple(tau)).one_line()))
    return [p.one_line() for p in perms], pairs


def build_weak_order(n):
    """Covers swap adjacent values v, v+1 when that creates an inversion."""
    labels, pairs = _value_swap_covers(n, adjacent_only=True)
    return Poset.from_covers(labels, pairs)


def build_strong_bruhat(n):
    """Covers swap any two values when exactly one inversion is created."""
    labels, pairs = _value_swap_covers(n, adjacent_only=False)
    return Poset.from_covers(labels, pairs)


def bracket_vectors(n):
    """Sequences x with i <= x_i <= n and: i <= j <= x_i implies x_j <= x_i."""
    out = []
    for x in product(*(range(i, n + 1) for i in range(1, n + 1))):
        if all(
            x[j] <= x[i]
            for i in range(n)
            for j in range(i, min(x[i], n))
        ):
            out.append(x)
    return out


def catalan_sequences(n):
    """Weakly increasing sequences x with i <= x_i <= n."""
    return [
        x
        for x in product(*(range(i, n + 1) for i in range(1, n + 1)))
        if all(x[i] <= x[i + 1] for i in range(n - 1))
    ]


def _vector_label(x):
    return "".join(str(v) for v in x) if len(x) <= 9 else ",".join(str(v) for v in x)


def build_tamari(n):
    """Bracket vectors under reverse componentwise comparison."""
    _check_order(n)
    vectors = bracket_vectors(n)
    return _componentwise([_vector_label(x) for x in vectors], vectors, reverse=True)


def build_catalan_distributive(n):
    """Weakly increasing sequences under reverse componentwise comparison."""
    _check_order(n)
    vectors = catalan_sequences(n)
    return _componentwise([_vector_label(x) for x in vectors], vectors, reverse=True)


def build_product_of_chains(n):
    """[2] x [3] x ... x [n]: tuples (c_1, ..., c_{n-1}) with 0 <= c_i <= i."""
    _check_order(n)
    vectors = list(product(*(range(i + 1) for i in range(1, n))))
    return _componentwise([str(v) for v in vectors], vectors)


def bracket_label_map(n):
    """one-line notation -> label of the sequence x with x_i = i + (sum of
    boolean-triangle row n-i).  On 132-avoiders the image lands in the
    bracket vectors, on 213-avoiders in the weakly increasing sequences."""
    pairs = permutation_booleans(n)
    return {label: _vector_label(bijections.bracket_vector(b)) for label, b in pairs}
