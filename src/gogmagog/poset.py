"""Finite poset engine: construction and certification, Hasse covers,
lattice reports, order-ideal lattices, induced subposets, isomorphism
testing, and DOT/JSON export.

A poset is an immutable tuple of labels plus a read-only boolean matrix
``leq``.  Relations are closed, checked and reduced on packed uint64 rows
(bit y of row x set iff x <= y).  An order given by its covers
(:meth:`Poset.from_covers`) is closed on reach bitsets, level by level from
the sinks up, and the same pass keeps its transitive reduction.  Any other
relation is checked and reduced through its two-step rows: the OR of the
strict rows of each element's strict successors.  It is transitive iff they
lie in the strict relation, and its covers are the strict pairs outside
them.  Componentwise orders on integer vectors (:meth:`Poset.componentwise`)
get ``leq`` as the AND of packed per-coordinate threshold bitsets, and their
covers are the unit moves x -> x + e_c when those generate the whole order
(otherwise the generic reduction runs).  Meet and join tables are searched
in column blocks.  Labels are opaque hashable values; the specific posets
built elsewhere use canonical JSON strings (objects) or one-line notation
(permutations) so that relation containment across posets is well defined.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "PosetError",
    "SizeCap",
    "LatticeReport",
    "Poset",
]


class PosetError(ValueError):
    pass


class SizeCap(RuntimeError):
    pass


class LatticeReport(NamedTuple):
    """``witness`` is ("meet"|"join", x, y) when a pair lacks one."""

    is_lattice: bool
    witness: tuple | None = None


# Bytes of packed rows that _two_step gathers or unpacks at a time.
_BLOCK = 1 << 22
# Columns (the y of x /\ y or x \/ y) that _bound_table scores at a time.
_BOUND_COLUMNS = 512
# Size caps: the most elements order_ideals takes and ideals it lists, and
# the most elements lattice_report and isomorphism_to take.
_IDEALS_MAX_ELEMENTS = 30
_MAX_IDEALS = 1_000_000
_LATTICE_MAX_ELEMENTS = 10_000
_ISOMORPHISM_MAX_ELEMENTS = 1000


def _words(n):
    """uint64 words in a packed row of n bits (at least one)."""
    return max(1, -(-n // 64))


def _pack(matrix):
    """The rows of a boolean matrix as uint64 bitsets, bit y of row x set
    iff ``matrix[x, y]``."""
    n = matrix.shape[1]
    packed = np.zeros((len(matrix), _words(n) * 8), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(matrix, axis=1, bitorder="little")
    return packed.view(np.uint64)


def _unpack(bits, n):
    """The boolean matrix, n columns wide, of packed rows."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def _diagonal(n):
    """Packed identity: bit x of row x."""
    nodes = np.arange(n)
    own = np.zeros((n, _words(n)), dtype=np.uint64)
    own[nodes, nodes >> 6] = np.uint64(1) << (nodes & 63).astype(np.uint64)
    return own


def _componentwise_leq(vectors):
    """``leq[x, y]`` iff ``vectors[x] <= vectors[y]`` in every coordinate.

    Row x is the AND over coordinates c of the packed set of rows whose entry
    c is at least x_c; one such bitset is built per (c, value)."""
    n, k = vectors.shape
    bits = np.full((n, _words(n)), np.uint64(2**64 - 1))
    for c in range(k):
        column = vectors[:, c]
        values, rank = np.unique(column, return_inverse=True)
        bits &= _pack(column >= values[:, None])[rank]
    return _unpack(bits, n)


def _two_step(leq):
    """Packed strict rows of a reflexive relation, and packed rows of its
    pairs x < y < z: row x is the OR of the strict rows y in strict row x.

    Rows x are taken in blocks of at most ``_BLOCK`` bytes of ``leq`` whose
    strict rows y, gathered, fill at most ``_BLOCK`` bytes (a block has at
    least one row), and ORed by ``np.bitwise_or.reduceat``."""
    n = len(leq)
    strict = _pack(leq) & ~_diagonal(n)
    two = np.zeros_like(strict)
    gathered = _BLOCK // (8 * strict.shape[1])
    before = np.concatenate(([0], np.cumsum(leq.sum(axis=1) - 1)))
    start = 0
    while start < n:
        stop = int(np.searchsorted(before, before[start] + gathered, "right")) - 1
        stop = max(start + 1, min(stop, start + _BLOCK // n))
        x, y = np.nonzero(leq[start:stop])
        strict_pair = x + start != y
        x, y = x[strict_pair], y[strict_pair]
        if len(y):
            firsts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
            two[start + x[firsts]] = np.bitwise_or.reduceat(strict[y], firsts, axis=0)
        start = stop
    return strict, two


def _unit_move_covers(vectors, leq):
    """Cover matrix of the componentwise order on distinct ``vectors``, read
    off the unit moves (x, x + e_c), or None when it has other covers.

    A unit move is always a cover, and the covers of an order generated by
    some of its pairs are among those pairs.  So the unit moves are all of
    the covers iff their closure (``_reach``) is the whole of ``leq``."""
    n, k = vectors.shape
    index = {v: i for i, v in enumerate(map(tuple, vectors.tolist()))}
    moved = (vectors[:, None, :] + np.eye(k, dtype=np.int64)).reshape(n * k, k)
    hits = np.array([index.get(v, -1) for v in map(tuple, moved.tolist())], dtype=np.intp)
    found = np.flatnonzero(hits >= 0)
    lower, upper = np.repeat(np.arange(n), k)[found], hits[found]
    if not np.array_equal(_reach(n, lower, upper)[0], _pack(leq)):
        return None
    covers = np.zeros((n, n), dtype=bool)
    covers[lower, upper] = True
    return covers


def _reach(n, lower, upper):
    """Packed reach bitsets (bit y of uint64 row x set iff x <= y) of the
    order generated by the edges ``lower[e] < upper[e]``, whether each edge is
    a cover, and the nodes left over when the edges have a cycle.  Nodes are
    taken a level at a time from the sinks up, each row ORing in the rows of
    its successors (the level's edges sorted by lower end, ORed by
    ``np.bitwise_or.reduceat``); x -> y is a cover iff y is in no
    successor's strict reach."""
    own = _diagonal(n)
    reach = own.copy()
    cover = np.zeros(len(lower), dtype=bool)
    waiting = np.bincount(lower, minlength=n)  # successors not yet taken
    while (level := waiting == 0).any():
        edges = np.flatnonzero(level[lower])
        if len(edges):
            edges = edges[np.argsort(lower[edges], kind="stable")]
            x, y = lower[edges], upper[edges]
            first = np.r_[True, x[1:] != x[:-1]]
            firsts = np.flatnonzero(first)
            rows = reach[y]
            reach[x[firsts]] |= np.bitwise_or.reduceat(rows, firsts, axis=0)
            rows[np.arange(len(y)), y >> 6] &= ~own[y, y >> 6]  # the strict reach of y
            above = np.bitwise_or.reduceat(rows, firsts, axis=0)
            cover[edges] = (above[np.cumsum(first) - 1, y >> 6] & own[y, y >> 6]) == 0
        waiting[level] = -1
        waiting -= np.bincount(lower[level[upper]], minlength=n)
    return reach, cover, waiting >= 0


class Poset:
    """Finite partial order on labelled elements."""

    __slots__ = ("labels", "_leq", "_index", "_covers", "_cover_pairs", "_vectors")

    def __init__(self, labels, leq, *, _certified=False):
        labels = tuple(labels)
        leq = np.asarray(leq, dtype=bool).copy()
        n = len(labels)
        if leq.shape != (n, n):
            raise PosetError(f"relation matrix shape {leq.shape} does not match {n} labels")
        index = {}
        for i, label in enumerate(labels):
            if label in index:
                raise PosetError(f"duplicate label {label!r}")
            index[label] = i
        if not _certified:
            if not leq.diagonal().all():
                raise PosetError("relation is not reflexive")
            bad = leq & leq.T & ~np.eye(n, dtype=bool)
            if bad.any():
                i, j = map(int, np.argwhere(bad)[0])
                raise PosetError(f"not antisymmetric: {labels[i]!r} <=> {labels[j]!r}")
            strict, two = _two_step(leq)
            if (two & ~strict).any():
                raise PosetError("relation is not transitive")
        leq.setflags(write=False)
        self.labels = labels
        self._leq = leq
        self._index = index
        self._covers = None
        self._cover_pairs = None
        self._vectors = None

    @classmethod
    def componentwise(cls, labels, vectors):
        """Componentwise order on distinct integer vectors (an ``(N, k)``
        array): x <= y iff x_c <= y_c for every coordinate c.  The vectors
        are kept so that the covers can be read off the unit moves."""
        vectors = np.asarray(vectors, dtype=np.int64)
        poset = cls(labels, _componentwise_leq(vectors), _certified=True)
        poset._vectors = vectors
        return poset

    @classmethod
    def from_covers(cls, labels, cover_pairs):
        """The order generated by the label pairs (x, y), x < y, closed on
        packed reach bitsets.  Its covers are the input pairs that no path
        of two or more pairs implies; a cycle raises PosetError."""
        labels = tuple(labels)
        index = {label: i for i, label in enumerate(labels)}
        n = len(labels)
        pairs = np.array([(index[x], index[y]) for x, y in cover_pairs], dtype=np.intp)
        lower, upper = pairs.reshape(-1, 2).T
        lower, upper = lower[lower != upper], upper[lower != upper]
        reach, cover, left = _reach(n, lower, upper)
        if left.any():
            # each node left has a successor left, so n steps end on a cycle
            successor = dict(zip(lower[left[upper]].tolist(), upper[left[upper]].tolist()))
            x = int(left.argmax())
            for _ in range(n):
                x = successor[x]
            i, j = sorted((x, successor[x]))
            raise PosetError(f"closure is not antisymmetric: {labels[i]!r} <=> {labels[j]!r}")
        poset = cls(labels, _unpack(reach, n), _certified=True)
        covers = np.zeros((n, n), dtype=bool)
        covers[lower[cover], upper[cover]] = True
        covers.setflags(write=False)
        poset._covers = covers
        return poset

    # -- basic queries ----------------------------------------------------

    @property
    def size(self):
        return len(self.labels)

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and bool((self._leq == other._leq).all())
        )

    def __repr__(self):
        return f"Poset({self.size} elements, {len(self.cover_pairs())} covers)"

    def leq_matrix(self):
        return self._leq

    def index(self, label):
        return self._index[label]

    def leq(self, x, y):
        return bool(self._leq[self._index[x], self._index[y]])

    def relation_pairs(self):
        """All strict related label pairs (x, y) with x < y."""
        strict = self._leq & ~np.eye(self.size, dtype=bool)
        labels = self.labels
        return frozenset((labels[i], labels[j]) for i, j in np.argwhere(strict).tolist())

    def cover_matrix(self):
        if self._covers is None:
            reduced = None
            if self._vectors is not None:
                reduced = _unit_move_covers(self._vectors, self._leq)
            if reduced is None:
                strict, two = _two_step(self._leq)
                reduced = _unpack(strict & ~two, self.size)
            reduced.setflags(write=False)
            self._covers = reduced
        return self._covers

    def cover_pairs(self):
        """Transitive reduction as sorted index pairs (lower, upper), built
        once."""
        if self._cover_pairs is None:
            self._cover_pairs = tuple(map(tuple, np.argwhere(self.cover_matrix()).tolist()))
        return self._cover_pairs

    def cover_label_pairs(self):
        return frozenset((self.labels[i], self.labels[j]) for i, j in self.cover_pairs())

    # -- constructions -----------------------------------------------------

    def induced(self, keep):
        """Subposet on the labels selected by a predicate or a collection."""
        if callable(keep):
            chosen = [i for i, label in enumerate(self.labels) if keep(label)]
        else:
            wanted = set(keep)
            chosen = [i for i, label in enumerate(self.labels) if label in wanted]
        idx = np.array(chosen, dtype=int)
        labels = tuple(self.labels[i] for i in chosen)
        return Poset(labels, self._leq[np.ix_(idx, idx)], _certified=True)

    def order_ideals(self):
        """The lattice of down-closed subsets ordered by containment: the
        componentwise order on their 0/1 indicator vectors, whose covers
        are the unit moves (one element added).

        Ideal labels are tuples of member labels in ground order, listed by
        size, then by the indicator bits read as a binary number.
        """
        n = self.size
        if n > _IDEALS_MAX_ELEMENTS:
            raise SizeCap(f"order_ideals capped at {_IDEALS_MAX_ELEMENTS} elements, got {n}")
        # Add the elements in a linear extension (by the number below each):
        # the ideals with e are those without it that hold everything below e.
        strict = self._leq & ~np.eye(n, dtype=bool)
        bits = np.int64(1) << np.arange(n, dtype=np.int64)
        below = (strict * bits[:, None]).sum(axis=0)
        masks = np.zeros(1, dtype=np.int64)
        for e in np.argsort(strict.sum(axis=0), kind="stable"):
            masks = np.concatenate((masks, masks[(masks & below[e]) == below[e]] | bits[e]))
            if len(masks) > _MAX_IDEALS:
                raise SizeCap(f"more than {_MAX_IDEALS} ideals")
        indicators = (masks[:, None] >> np.arange(n)) & 1
        indicators = indicators[np.lexsort((masks, indicators.sum(axis=1)))]
        labels = [tuple(self.labels[e] for e in np.flatnonzero(row).tolist()) for row in indicators]
        return Poset.componentwise(labels, indicators)

    # -- lattice structure --------------------------------------------------

    def _bound_table(self, lower):
        """Meet (lower=True) or join table, or an index-pair witness.

        Returns (table, None) or (None, (x, y)).  The witness is the first
        x, and in its row the first y without a common bound if there is
        one, else the first y whose bounds have no greatest element.  The
        candidate for x /\\ y is the first common bound z with the most
        elements below it; only the z below x are scored, ``_BOUND_COLUMNS``
        values of y at a time.
        """
        n = self.size
        rel = self._leq if lower else self._leq.T
        weights = (rel.sum(axis=0) + 1).astype(np.int32)
        table = np.zeros((n, n), dtype=np.int64)
        for x in range(n):
            below = np.flatnonzero(rel[:, x])
            no_greatest = None
            for start in range(0, n, _BOUND_COLUMNS):
                bounds = rel[below, start : start + _BOUND_COLUMNS]
                missing = ~bounds.any(axis=0)
                if missing.any():
                    return None, (x, start + int(missing.argmax()))
                if no_greatest is not None:
                    continue
                scores = np.where(bounds, weights[below, None], 0)
                cand = below[scores.argmax(axis=0)]
                bad = (bounds & ~rel[np.ix_(below, cand)]).any(axis=0)
                if bad.any():
                    no_greatest = start + int(bad.argmax())
                table[x, start : start + _BOUND_COLUMNS] = cand
            if no_greatest is not None:
                return None, (x, no_greatest)
        return table, None

    def count_ideals(self):
        """Number of order ideals, by divide and conquer on up/down sets."""
        n = self.size
        leq = self._leq

        @lru_cache(maxsize=None)
        def rec(mask):
            if mask == 0:
                return 1
            x = mask.bit_length() - 1
            up = 0
            dn = 0
            for z in range(n):
                if mask >> z & 1:
                    if leq[x, z]:
                        up |= 1 << z
                    if leq[z, x]:
                        dn |= 1 << z
            return rec(mask & ~up) + rec(mask & ~dn)

        return rec((1 << n) - 1)

    def lattice_report(self):
        """Whether every pair has a meet and a join, with a witness pair when
        one lacks either."""
        n = self.size
        if n > _LATTICE_MAX_ELEMENTS:
            raise SizeCap(f"lattice_report capped at {_LATTICE_MAX_ELEMENTS} elements, got {n}")
        for kind, lower in (("meet", True), ("join", False)):
            table, witness = self._bound_table(lower)
            if table is None:
                x, y = witness
                return LatticeReport(False, (kind, self.labels[x], self.labels[y]))
        return LatticeReport(True)

    # -- comparisons across posets ------------------------------------------

    def relations_not_in(self, other):
        """The first relation x <= y of self, row by row, that other lacks,
        or None; a label other does not have lacks every relation."""
        index = np.array([other._index.get(label, -1) for label in self.labels], dtype=np.intp)
        absent = index < 0
        gap = ~other._leq[np.ix_(index, index)] if other.size else np.ones_like(self._leq)
        gap[absent] = gap[:, absent] = True
        gap &= self._leq
        if not gap.any():
            return None
        i, j = np.unravel_index(gap.argmax(), gap.shape)
        return self.labels[i], self.labels[j]

    def _refined_colors(self):
        n = self.size
        cov = self.cover_matrix()
        down = self._leq.sum(axis=0)
        up = self._leq.sum(axis=1)
        cov_down = cov.sum(axis=0)
        cov_up = cov.sum(axis=1)
        colors = [
            (int(down[i]), int(up[i]), int(cov_down[i]), int(cov_up[i]))
            for i in range(n)
        ]
        palette = {c: k for k, c in enumerate(sorted(set(colors)))}
        colors = [palette[c] for c in colors]
        lowers = [np.nonzero(cov[:, i])[0] for i in range(n)]
        uppers = [np.nonzero(cov[i, :])[0] for i in range(n)]
        while True:
            signature = [
                (
                    colors[i],
                    tuple(sorted(colors[j] for j in lowers[i])),
                    tuple(sorted(colors[j] for j in uppers[i])),
                )
                for i in range(n)
            ]
            palette = {s: k for k, s in enumerate(sorted(set(signature)))}
            new = [palette[s] for s in signature]
            if len(set(new)) == len(set(colors)):
                return new
            colors = new

    def isomorphism_to(self, other):
        """An order isomorphism as a label map, or None."""
        if self.size != other.size:
            return None
        if self.size > _ISOMORPHISM_MAX_ELEMENTS:
            raise SizeCap(f"isomorphic_to capped at {_ISOMORPHISM_MAX_ELEMENTS} elements")
        n = self.size
        mine = self._refined_colors()
        theirs = other._refined_colors()

        def classes(colors):
            out = {}
            for i, c in enumerate(colors):
                out.setdefault(c, []).append(i)
            return out

        mine_by_color = classes(mine)
        theirs_by_color = classes(theirs)
        if sorted((c, len(v)) for c, v in mine_by_color.items()) != sorted(
            (c, len(v)) for c, v in theirs_by_color.items()
        ):
            return None
        order = sorted(range(n), key=lambda i: (len(mine_by_color[mine[i]]), mine[i], i))
        lp = self._leq
        lq = other._leq
        match = [-1] * n
        used = [False] * n

        def backtrack(pos):
            if pos == n:
                return True
            i = order[pos]
            for j in theirs_by_color.get(mine[i], ()):
                if used[j]:
                    continue
                ok = True
                for qpos in range(pos):
                    k = order[qpos]
                    if lp[i, k] != lq[j, match[k]] or lp[k, i] != lq[match[k], j]:
                        ok = False
                        break
                if ok:
                    match[i] = j
                    used[j] = True
                    if backtrack(pos + 1):
                        return True
                    match[i] = -1
                    used[j] = False
            return False

        if not backtrack(0):
            return None
        return {self.labels[i]: other.labels[match[i]] for i in range(n)}

    def is_ranked(self):
        """True iff some rank function increases by exactly one on covers,
        componentwise on the cover graph."""
        n = self.size
        cov = self.cover_matrix()
        neighbours = [[] for _ in range(n)]
        for i, j in np.argwhere(cov):
            neighbours[int(i)].append((int(j), 1))
            neighbours[int(j)].append((int(i), -1))
        rank = [None] * n
        for start in range(n):
            if rank[start] is not None:
                continue
            rank[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                for w, delta in neighbours[v]:
                    expected = rank[v] + delta
                    if rank[w] is None:
                        rank[w] = expected
                        queue.append(w)
                    elif rank[w] != expected:
                        return False
        return True

    # -- export ---------------------------------------------------------------

    def to_json_dict(self):
        return {
            "elements": [str(label) for label in self.labels],
            "covers": [[i, j] for i, j in self.cover_pairs()],
        }

    def to_dot(self, name="poset"):
        """Hasse diagram; edges run lower -> upper."""

        def quote(label):
            return '"' + str(label).replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for label in self.labels:
            lines.append(f"  {quote(label)};")
        for i, j in self.cover_pairs():
            lines.append(f"  {quote(self.labels[i])} -> {quote(self.labels[j])};")
        lines.append("}")
        return "\n".join(lines)
