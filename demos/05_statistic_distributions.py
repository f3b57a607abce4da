"""Distributions: Mahonian zeros, negative ones, and an open comparison.

Zeros over permutation boolean triangles are distributed like inversions
(they are inversions, through the bijection).  Adjacent zero-one pairs in
rows track the negative ones of matrices exactly up to order four and then
drift apart in the middle of the range while the extremes keep matching.
"""

import sys

from gogmagog import FamilyId, distribution
from gogmagog.enumeration import CapExceeded


def main():
    print("zeros over permutation boolean triangles vs inversions over permutations:")
    for n in (3, 4, 5):
        zeros = distribution(FamilyId.PERMUTATION_BOOLEAN, n, "zeros")
        invs = distribution(FamilyId.PERMUTATION, n, "inversions")
        print(f"  n={n}: {zeros} {'==' if zeros == invs else '!='} inversions")

    print()
    print("zero-then-one over all boolean triangles vs negative ones over matrices:")
    for n in (2, 3, 4, 5):
        lhs = distribution(FamilyId.BOOLEAN, n, "zero_then_one")
        rhs = distribution(FamilyId.ASM, n, "negative_ones")
        verdict = "equal" if lhs == rhs else "DIFFERENT"
        print(f"  n={n}: {verdict}")
        print(f"    zero-then-one: {lhs}")
        print(f"    negative ones: {rhs}")

    print()
    print("the matched extremes at n=5 are no accident: the zero-count coefficient")
    print("is the permutation count on both sides, and the maxima agree too.")


if __name__ == "__main__":
    try:
        main()
    except CapExceeded as exc:  # a cap, or a malformed TSSCPP_MAX_N: as the command line reports it
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
