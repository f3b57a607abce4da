"""Constructors for the specific partial orders under study.

Object posets (componentwise orders on triangles, ideal lattices of the
three-dimensional join-irreducible posets) label their elements with the
canonical JSON of the underlying object.  Permutation posets (Bruhat orders,
the permutation subposets, Tamari and Catalan orders keyed to permutations)
use one-line notation strings so the same ground set can be compared across
different orders.
"""

from itertools import product
from math import comb, factorial, prod

import numpy as np

from . import bijections, enumeration
from .enumeration import FamilyId
from .poset import Poset, SizeCap
from .triangles import _one_line_text, format_batch

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
    "bracket_vectors",
    "catalan_sequences",
]


# The most bytes of packed relation (a row of whole uint64 words per
# element) that an order is built with, and the least count that
# _check_size does not build or print (Python prints ints of at most 4300
# digits).
_MAX_RELATION_BYTES = 1 << 28
_UNPRINTABLE = 10**4300


def _check_size(n, size):
    """Refuse order n of an order on size(n) elements, a count that grows with
    n, when its packed relation exceeds ``_MAX_RELATION_BYTES``.  The size is
    built at orders 1, 2, 4, ... below n until one reaches ``_UNPRINTABLE``,
    and then order n is refused unbuilt; so is an order whose relation has
    ``_UNPRINTABLE`` bytes or more, which the message could not print."""
    m = 1
    while m < n and size(m) < _UNPRINTABLE:
        m *= 2
    total = size(n) if m >= n else _UNPRINTABLE
    nbytes = total * -(-total // 64) * 8
    if nbytes >= _UNPRINTABLE:
        raise SizeCap(f"poset of order {n} needs more than {_MAX_RELATION_BYTES} bytes of relation")
    if nbytes > _MAX_RELATION_BYTES:
        raise SizeCap(f"poset on {total} elements needs {nbytes} bytes of relation, more than {_MAX_RELATION_BYTES}")


def _componentwise(labels, vectors, *, reverse=False):
    """Componentwise order on integer vectors; ``reverse`` compares them the
    other way round (x <= y iff x >= y componentwise)."""
    _check_size(len(vectors), lambda m: m)
    arr = np.array(vectors, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(len(vectors), 0)
    return Poset.componentwise(labels, -arr if reverse else arr)


def _coordinate_poset(n, cover_moves):
    """Poset on coordinates (i, j, k), 0 <= i, j <= n-2-i, k <= n-2-i-j,
    generated by the given cover moves and closed transitively."""
    enumeration._check_order(n)
    _check_size(n, lambda m: comb(m + 1, 3))
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


def _object_order(family, n, *, reverse=False):
    """Componentwise order on the entry arrays of a family of ASM size
    (monotone, magog or boolean triangles), labelled by the JSON of each
    object and listed in the order of ``enumeration.generate``.  The order,
    the family cap and the size, prod_k (3k+1)!/(n+k)!, are checked before
    anything is enumerated."""
    enumeration._check_order(n, family)
    _check_size(n, lambda m: prod(factorial(3 * k + 1) for k in range(m)) // prod(map(factorial, range(m, 2 * m))))
    a = enumeration.entries(family, n)
    return _componentwise(format_batch(enumeration.FAMILY_CLASSES[family], n, a).splitlines(), a, reverse=reverse)


def build_An(n):
    """Componentwise order on monotone triangles."""
    return _object_order(FamilyId.MONOTONE, n)


def build_Tn(n):
    """Componentwise order on magog triangles."""
    return _object_order(FamilyId.MAGOG, n)


def build_TBool(n):
    """Reverse componentwise order on boolean triangles."""
    return _object_order(FamilyId.BOOLEAN, n, reverse=True)


def _permutations(n):
    """The permutation entry array of order n, one row per permutation in the
    order of ``enumeration.generate``, after the order check and the size
    check of an order on them, so that a refused order enumerates nothing."""
    enumeration._check_order(n)
    _check_size(n, factorial)
    return enumeration.entries(FamilyId.PERMUTATION, n)


def _one_line(perms):
    """One-line labels of the rows of a permutation entry array."""
    return list(map(_one_line_text, perms.tolist()))


def _permutation_booleans(n):
    """One-line labels and boolean entry arrays of the permutations of order n."""
    perms = _permutations(n)
    return _one_line(perms), bijections.permutations_to_booleans(n, perms)


def build_An_perm(n):
    """Permutation subposet of the monotone-triangle order, labelled by
    one-line notation."""
    perms = _permutations(n)
    return _componentwise(_one_line(perms), bijections.permutations_to_monotones(n, perms))


def build_Tn_perm(n):
    """Permutation subposet of the magog order (componentwise on the magog
    triangles of permutations), labelled by one-line notation."""
    labels, booleans = _permutation_booleans(n)
    return _componentwise(labels, bijections.booleans_to_magogs(n, booleans))


def build_TBool_perm(n):
    """Permutation subposet of the boolean order (reverse componentwise),
    labelled by one-line notation."""
    labels, booleans = _permutation_booleans(n)
    return _componentwise(labels, booleans, reverse=True)


def _value_swap_covers(n, adjacent_only):
    """One-line labels and cover pairs (sigma, tau) where tau swaps values
    v < w of sigma at positions i < j, creating exactly one new inversion: no
    value between v and w sits between positions i and j.  Adjacent values
    only for the weak order.  tau is found by its base-n key."""
    perms = _permutations(n).astype(np.int64)
    labels = _one_line(perms)
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = (perms - 1) @ weights
    order = np.argsort(keys)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            v, w = perms[:, i, None], perms[:, j, None]
            between = perms[:, i + 1 : j]
            if adjacent_only:
                swap = w == v + 1
            else:
                swap = (v < w) & ~((v < between) & (between < w)).any(axis=1, keepdims=True)
            sigma = np.flatnonzero(swap)
            moved = keys[sigma] + (w - v)[sigma, 0] * (weights[i] - weights[j])
            tau = order[np.searchsorted(keys, moved, sorter=order)]
            pairs += zip(sigma.tolist(), tau.tolist())
    return labels, [(labels[x], labels[y]) for x, y in pairs]


def build_weak_order(n):
    """Covers swap adjacent values v, v+1 when that creates an inversion."""
    labels, pairs = _value_swap_covers(n, adjacent_only=True)
    return Poset.from_covers(labels, pairs)


def build_strong_bruhat(n):
    """Covers swap any two values when exactly one inversion is created."""
    labels, pairs = _value_swap_covers(n, adjacent_only=False)
    return Poset.from_covers(labels, pairs)


def _sequences(n, admits):
    """The sequences x with i <= x_i <= n (1-based) that ``admits`` allows,
    as tuples in lexicographic order.  They are built right to left: the
    suffixes x_{i+1}..x_n so far are the rows of ``rest``, and
    ``admits(i, v, rest)`` is the mask of those that may follow x_i = v.
    Taking v in increasing order keeps the rows lexicographic."""
    rest = np.zeros((1, 0), dtype=np.int64)
    for i in range(n, 0, -1):
        rest = np.concatenate([np.insert(rest[admits(i, v, rest)], 0, v, axis=1) for v in range(i, n + 1)])
    return list(map(tuple, rest.tolist()))


def bracket_vectors(n):
    """Sequences x with i <= x_i <= n and: i <= j <= x_i implies x_j <= x_i."""
    return _sequences(n, lambda i, v, rest: (rest[:, : v - i] <= v).all(axis=1))


def catalan_sequences(n):
    """Weakly increasing sequences x with i <= x_i <= n."""
    return _sequences(n, lambda i, v, rest: (rest[:, :1] >= v).all(axis=1))


def _catalan_order(n, sequences):
    """Reverse componentwise order on ``sequences(n)``, C_n of them, checked
    before any is built."""
    enumeration._check_order(n)
    _check_size(n, lambda m: comb(2 * m, m) // (m + 1))
    vectors = sequences(n)
    return _componentwise(list(map(_one_line_text, vectors)), vectors, reverse=True)


def build_tamari(n):
    """Bracket vectors under reverse componentwise comparison; its covers are
    rotations, not all unit moves."""
    return _catalan_order(n, bracket_vectors)


def build_catalan_distributive(n):
    """Weakly increasing sequences under reverse componentwise comparison."""
    return _catalan_order(n, catalan_sequences)


def build_product_of_chains(n):
    """[2] x [3] x ... x [n]: tuples (c_1, ..., c_{n-1}) with 0 <= c_i <= i,
    n! of them, checked before any is built."""
    enumeration._check_order(n)
    _check_size(n, factorial)
    vectors = list(product(*(range(i + 1) for i in range(1, n))))
    return _componentwise([str(v) for v in vectors], vectors)

