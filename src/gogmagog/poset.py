"""Finite poset engine: construction and certification, Hasse covers,
lattice reports, order-ideal lattices, induced subposets, isomorphism
testing, and DOT/JSON export.

A poset is an immutable tuple of labels, its relation as packed uint64 rows
(bit y of row x set iff x <= y), and its covers as one sorted tuple of index
pairs, built once; ``leq_matrix`` and ``cover_matrix`` build dense views.
Every cover comes from one reduction (``_cover_rounds``): with the elements
in a linear extension, the first strict successor of x above no cover of x
found so far is a cover of x, so each round finds one more cover of every
element at once.  An order given by its covers (:meth:`Poset.from_covers`)
is closed on reach bitsets, level by level from the sinks up; a relation
given as a matrix is transitive iff the closure of its reduction is itself.
Componentwise orders on integer vectors (:meth:`Poset.componentwise`) AND
packed per-coordinate threshold bitsets.  A pair without a meet or join is
searched for in column blocks, and no table is kept.  Labels are opaque
hashable values; the posets built elsewhere use canonical JSON (objects) or
one-line notation (permutations), so that relation containment across posets
is well defined.
"""

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


# Bytes of packed rows that _cover_rounds takes at a time, and of unpacked
# rows that _relabelled and relations_not_in take.
_BLOCK = 1 << 22
# Columns (the y of x /\ y or x \/ y) that _bound_witness scores at a time.
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
    """The read-only boolean matrix, n columns wide, of packed rows."""
    matrix = np.unpackbits(bits.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)
    matrix.setflags(write=False)
    return matrix


def _diagonal(n):
    """Packed identity: bit x of row x."""
    nodes = np.arange(n)
    own = np.zeros((n, _words(n)), dtype=np.uint64)
    own[nodes, nodes >> 6] = np.uint64(1) << (nodes & 63).astype(np.uint64)
    return own


def _pair_tuple(n, lower, upper):
    """The distinct index pairs (lower, upper) of n elements as a sorted tuple."""
    keys = np.sort(lower * n + upper)
    lower, upper = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    return tuple(zip(lower.tolist(), upper.tolist()))


def _first_bits(bits, last=False):
    """The column of the lowest set bit of each nonzero packed row, or of the
    highest with ``last``.  The bit is isolated in its word, as w & -w or by
    ORing w into every lower bit and keeping the top one, and read from the
    exponent of the word as a float, which is exact on a power of two."""
    nonzero = bits != 0
    word = bits.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1) if last else nonzero.argmax(axis=1)
    w = bits[np.arange(len(bits)), word]
    if last:
        for shift in (1, 2, 4, 8, 16, 32):
            w |= w >> np.uint64(shift)
        w ^= w >> np.uint64(1)
    else:
        w &= ~w + np.uint64(1)
    return word * 64 + np.frexp(w.astype(np.float64))[1] - 1


def _relabelled(bits):
    """The packed rows in order of up-set size, largest first (stably), and
    that order, a linear extension; ``_BLOCK`` bytes unpacked at a time."""
    n, words = bits.shape
    step = max(1, _BLOCK // (64 * words))
    sizes = [np.unpackbits(bits[s : s + step].view(np.uint8), axis=1).sum(axis=1) for s in range(0, n, step)]
    order = np.argsort(-np.concatenate(sizes), kind="stable")
    rows = np.concatenate([_pack(_unpack(bits[order[s : s + step]], n)[:, order]) for s in range(0, n, step)])
    return rows, order


def _cover_rounds(bits):
    """Cover pairs (lower, upper) of the order with packed reflexive rows
    ``bits``, unsorted.  With the elements in a linear extension, each x
    keeps ``left``, its strict row less the rows of the covers found so far;
    in each round the first y of every nonempty ``left`` is a cover (what
    lies between x and y comes before y), and ``left &= ~bits[y]``.  The
    extension is index order when each row's lowest bit is its own, else
    the reverse when each row's highest bit is, else ``_relabelled``; x is
    taken ``_BLOCK`` bytes of rows at a time."""
    n, words = bits.shape
    order, x = None, np.arange(n)
    last = not (_first_bits(bits) == x).all()
    if last and not (_first_bits(bits, True) == x).all():
        bits, order = _relabelled(bits)
        last = False
    lower, upper = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    step = max(1, _BLOCK // (8 * words))
    for start in range(0, n, step):
        x = np.arange(start, min(n, start + step))
        left = bits[x]
        left[x - start, x >> 6] ^= np.uint64(1) << (x & 63).astype(np.uint64)
        while (keep := left.any(axis=1)).any():
            x, left = x[keep], left[keep]
            y = _first_bits(left, last)
            lower.append(x)
            upper.append(y)
            left &= ~bits[y]
    lower, upper = np.concatenate(lower), np.concatenate(upper)
    return (lower, upper) if order is None else (order[lower], order[upper])


def _reach(n, lower, upper):
    """Packed reach bitsets (bit y of uint64 row x set iff x <= y) of the
    order generated by the edges ``lower[e] < upper[e]``, and the nodes left
    over when the edges have a cycle.  Nodes are taken a level at a time
    from the sinks up, each row ORing in the rows of its successors (the
    level's edges sorted by lower end, ORed by ``np.bitwise_or.reduceat``)."""
    reach = _diagonal(n)
    waiting = np.bincount(lower, minlength=n)  # successors not yet taken
    while (level := waiting == 0).any():
        edges = np.flatnonzero(level[lower])
        if len(edges):
            edges = edges[np.argsort(lower[edges], kind="stable")]
            x = lower[edges]
            firsts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
            reach[x[firsts]] |= np.bitwise_or.reduceat(reach[upper[edges]], firsts, axis=0)
        waiting[level] = -1
        waiting -= np.bincount(lower[level[upper]], minlength=n)
    return reach, waiting >= 0


class Poset:
    """Finite partial order on labelled elements."""

    __slots__ = ("labels", "_rows", "_index", "_covers")

    def __init__(self, labels, leq, *, _certified=False):
        """``leq``: a boolean matrix, checked; with ``_certified``, packed rows."""
        labels = tuple(labels)
        n = len(labels)
        if not _certified:
            leq = np.asarray(leq, dtype=bool)
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
            leq = _pack(leq)
            covers = _cover_rounds(leq)
            if not np.array_equal(_reach(n, *covers)[0], leq):
                raise PosetError("relation is not transitive")
        leq.setflags(write=False)
        self.labels = labels
        self._rows = leq
        self._index = index
        self._covers = None if _certified else _pair_tuple(n, *covers)

    @classmethod
    def componentwise(cls, labels, vectors):
        """Componentwise order on distinct integer vectors (an ``(N, k)``
        array): x <= y iff x_c <= y_c for every coordinate c.  Row x is the
        AND over coordinates c of the packed set of rows whose entry c is at
        least x_c, one such bitset per (c, value)."""
        vectors = np.ascontiguousarray(vectors, dtype=np.int64)
        rows = _pack(np.ones((1, len(vectors)), dtype=bool)).repeat(len(vectors), axis=0)
        for column in vectors.T:
            values, rank = np.unique(column, return_inverse=True)
            rows &= _pack(column >= values[:, None])[rank]
        return cls(labels, rows, _certified=True)

    @classmethod
    def from_covers(cls, labels, cover_pairs):
        """The order generated by the label pairs (x, y), x < y, closed on
        packed reach bitsets; a cycle raises PosetError."""
        labels = tuple(labels)
        index = {label: i for i, label in enumerate(labels)}
        n = len(labels)
        pairs = np.array([(index[x], index[y]) for x, y in cover_pairs], dtype=np.intp)
        lower, upper = pairs.reshape(-1, 2).T
        lower, upper = lower[lower != upper], upper[lower != upper]
        reach, left = _reach(n, lower, upper)
        if left.any():
            # each node left has a successor left, so n steps end on a cycle
            successor = dict(zip(lower[left[upper]].tolist(), upper[left[upper]].tolist()))
            x = int(left.argmax())
            for _ in range(n):
                x = successor[x]
            i, j = sorted((x, successor[x]))
            raise PosetError(f"closure is not antisymmetric: {labels[i]!r} <=> {labels[j]!r}")
        return cls(labels, reach, _certified=True)

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
            and np.array_equal(self._rows, other._rows)
        )

    def __repr__(self):
        return f"Poset({self.size} elements, {len(self.cover_pairs())} covers)"

    def leq_matrix(self):
        """The relation as a read-only boolean matrix, built on each call."""
        return _unpack(self._rows, self.size)

    def index(self, label):
        return self._index[label]

    def leq(self, x, y):
        j = self._index[y]
        return bool(int(self._rows[self._index[x], j >> 6]) >> (j & 63) & 1)

    def cover_matrix(self):
        """The covers as a read-only boolean matrix, built on each call."""
        covers = np.zeros((self.size, self.size), dtype=bool)
        covers[tuple(np.array(self.cover_pairs(), dtype=np.intp).reshape(-1, 2).T)] = True
        covers.setflags(write=False)
        return covers

    def cover_pairs(self):
        """Transitive reduction as sorted index pairs (lower, upper), built
        once."""
        if self._covers is None:
            self._covers = _pair_tuple(self.size, *_cover_rounds(self._rows))
        return self._covers

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
        return Poset(labels, _pack(_unpack(self._rows[idx], self.size)[:, idx]), _certified=True)

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
        strict = self.leq_matrix() & ~np.eye(n, dtype=bool)
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

    def _bound_witness(self, lower):
        """The first index pair (x, y) without a meet (lower=True) or join,
        or None.  The witness is the first x, and in its row the first y
        without a common bound if there is one, else the first y whose
        bounds have no greatest element.  The candidate for x /\\ y is the
        first common bound z with the most elements below it; only the z
        below x are scored, ``_BOUND_COLUMNS`` values of y at a time.
        """
        n = self.size
        rel = self.leq_matrix() if lower else self.leq_matrix().T
        weights = (rel.sum(axis=0) + 1).astype(np.int32)
        for x in range(n):
            below = np.flatnonzero(rel[:, x])
            no_greatest = None
            for start in range(0, n, _BOUND_COLUMNS):
                bounds = rel[below, start : start + _BOUND_COLUMNS]
                missing = ~bounds.any(axis=0)
                if missing.any():
                    return x, start + int(missing.argmax())
                if no_greatest is not None:
                    continue
                scores = np.where(bounds, weights[below, None], 0)
                cand = below[scores.argmax(axis=0)]
                bad = (bounds & ~rel[np.ix_(below, cand)]).any(axis=0)
                if bad.any():
                    no_greatest = start + int(bad.argmax())
            if no_greatest is not None:
                return x, no_greatest
        return None

    def count_ideals(self):
        """Number of order ideals, by divide and conquer on up/down sets:
        the ideals within a set that lack its last element x lack x's up-set,
        and those that hold x hold its down-set."""
        rows = (self._rows, _pack(self.leq_matrix().T))
        up, down = ([int.from_bytes(row.tobytes(), "little") for row in bits] for bits in rows)

        @lru_cache(maxsize=None)
        def rec(mask):
            if mask == 0:
                return 1
            x = mask.bit_length() - 1
            return rec(mask & ~up[x]) + rec(mask & ~down[x])

        return rec((1 << self.size) - 1)

    def lattice_report(self):
        """Whether every pair has a meet and a join, with a witness pair when
        one lacks either."""
        n = self.size
        if n > _LATTICE_MAX_ELEMENTS:
            raise SizeCap(f"lattice_report capped at {_LATTICE_MAX_ELEMENTS} elements, got {n}")
        for kind, lower in (("meet", True), ("join", False)):
            witness = self._bound_witness(lower)
            if witness is not None:
                x, y = witness
                return LatticeReport(False, (kind, self.labels[x], self.labels[y]))
        return LatticeReport(True)

    # -- comparisons across posets ------------------------------------------

    def relations_not_in(self, other):
        """The first relation x <= y of self, row by row, that other lacks,
        or None; a label other does not have lacks every relation.  Rows are
        compared a block at a time, other's relabelled to self's labels
        (``_BLOCK`` bytes unpacked) unless the two share their label tuple."""
        n, shared = self.size, self.labels == other.labels
        index = np.array([other._index.get(label, -1) for label in self.labels], dtype=np.intp)
        step = max(1, _BLOCK // (64 * _words(max(n, other.size))))
        for start in range(0, n, step):
            gap = self._rows[start : start + step].copy()
            if shared:
                gap &= ~other._rows[start : start + step]
            elif other.size:
                rows = index[start : start + step]
                theirs = _unpack(other._rows[rows], other.size)[:, index] & (index >= 0) & (rows >= 0)[:, None]
                gap &= ~_pack(theirs)
            if gap.any():
                i = int(gap.any(axis=1).argmax())
                return self.labels[start + i], self.labels[int(_first_bits(gap[i : i + 1])[0])]
        return None

    def _refined_colors(self):
        n = self.size
        leq = self.leq_matrix()
        lowers, uppers = [[] for _ in range(n)], [[] for _ in range(n)]
        for i, j in self.cover_pairs():
            uppers[i].append(j)
            lowers[j].append(i)
        colors = list(zip(leq.sum(axis=0).tolist(), leq.sum(axis=1).tolist(), map(len, lowers), map(len, uppers)))
        palette = {c: k for k, c in enumerate(sorted(set(colors)))}
        colors = [palette[c] for c in colors]
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
            raise SizeCap(f"isomorphism_to capped at {_ISOMORPHISM_MAX_ELEMENTS} elements, got {self.size}")
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
        lp, lq = self.leq_matrix(), other.leq_matrix()
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
        neighbours = [[] for _ in range(n)]
        for i, j in self.cover_pairs():
            neighbours[i].append((j, 1))
            neighbours[j].append((i, -1))
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
