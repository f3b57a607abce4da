"""The recursive backtracking searches for boolean triangles and ASMs.

``enumeration`` searches both families row by row over a numpy frontier; these
are the definitional searches it replaced, kept as its differential oracle.
Each yields raw row tuples in lexicographic order.
"""

from itertools import product


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
