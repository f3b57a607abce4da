"""Anatomy of a totally symmetric self-complementary plane partition.

A fundamental domain determines the whole object: close the lattice-point
set under coordinate permutations and complementation.  The heights of the
domain, sliced into levels, are exactly the diagonals of the boolean
triangle; each level is a shifted staircase shape whose row lengths place
the zeros.
"""

import sys

from gogmagog import FamilyId, convert, generate, validate_tsscpp
from gogmagog.enumeration import CapExceeded
from gogmagog.triangles import FundamentalDomain, expand_fundamental, fundamental_domain


def main():
    domain = FundamentalDomain(3, ((2, 1, 0), (1, 0), (0,)))
    print("fundamental domain rows:", domain.rows)

    p = expand_fundamental(domain)
    print("expanded 6x6 array:")
    for row in p.rows:
        print("   ", row)

    report = validate_tsscpp(p)
    print(f"symmetric={report.symmetric}, cyclically symmetric={report.cyclically_symmetric},"
          f" self-complementary={report.self_complementary}")
    assert fundamental_domain(p) == domain

    print()
    print("levels of the domain -> diagonals of the boolean triangle:")
    b = convert(domain, "boolean_triangle")
    for q in range(1, domain.n):
        level = domain.n - q
        lengths = []
        for row in domain.rows:
            r = sum(1 for v in row if v >= level)
            if r == 0:
                break
            lengths.append(r)
        print(f"  level {level}: row lengths {lengths} -> diagonal {q} = {b.diagonal(q)}")
    print("boolean triangle:", b.rows)
    print("magog triangle:  ", convert(domain, "magog_triangle").rows)

    print()
    print("all seven objects of order 3 round-trip through their domains:")
    for p in generate(FamilyId.TSSCPP, 3):
        d = fundamental_domain(p)
        assert expand_fundamental(d) == p
        print("  domain", d.rows, "ok")


if __name__ == "__main__":
    try:
        main()
    except CapExceeded as exc:  # a cap, or a malformed TSSCPP_MAX_N: as the command line reports it
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
