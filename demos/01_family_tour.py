"""A tour of the object families at order three.

Seven alternating sign matrices, seven monotone triangles, seven plane
partitions, seven magog triangles, seven boolean triangles, seven nests of
non-intersecting lattice paths: the same seven objects wearing six outfits.
"""

import sys

from gogmagog import FamilyId, convert, count, generate, to_json
from gogmagog.enumeration import CapExceeded


def main():
    print("How many objects of each kind at order 3?")
    for family in FamilyId:
        print(f"  {family.value:21s} {count(family, 3)}")

    print()
    print("The boolean triangles of order 3, with their magog triangles and paths:")
    for b in generate(FamilyId.BOOLEAN, 3):
        m = convert(b, "magog_triangle")
        nest = convert(b, "nilp_nest")
        print(f"  rows={b.rows!s:18} magog={m.rows!s:30} endpoints={nest.endpoints()}")

    print()
    print("Matrices pair with monotone triangles by column partial sums:")
    for a in generate(FamilyId.ASM, 3):
        print(f"  {a.rows} -> {convert(a, 'monotone_triangle').rows}")

    print()
    print("Counts explode quickly; orders 1..6 for matrices:")
    print(" ", [count(FamilyId.ASM, n) for n in range(1, 7)])

    print()
    print("Everything serializes to JSON one-liners:")
    print(" ", to_json(next(iter(generate(FamilyId.BOOLEAN, 3)))))


if __name__ == "__main__":
    try:
        main()
    except CapExceeded as exc:  # a cap, or a malformed TSSCPP_MAX_N: as the command line reports it
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
