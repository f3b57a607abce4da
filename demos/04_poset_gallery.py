"""The partial orders: ideal lattices, Bruhat sandwiches, Catalan subposets.

Componentwise comparison of monotone triangles gives a distributive lattice;
so do magog triangles.  Boolean triangles under reverse componentwise
comparison stop being a lattice at order four.  Restricted to permutations,
the magog order holds two different Catalan posets, and the boolean order is
a product of chains wedged between the weak and strong Bruhat orders.
"""

import sys

from gogmagog import orders
from gogmagog.claims import CLAIMS, run_claim
from gogmagog.enumeration import CapExceeded


def main():
    for n in (2, 3, 4):
        a = orders.build_An(n)
        ideals = orders.build_Pn(n).order_ideals()
        print(f"matrix order, n={n}: {a.size} elements,"
              f" ideal lattice of a {orders.build_Pn(n).size}-element poset:"
              f" isomorphic={a.isomorphism_to(ideals) is not None}")

    print()
    tb4 = orders.build_TBool(4)
    report = tb4.lattice_report()
    print(f"boolean order, n=4: lattice={report.is_lattice}, witness pair without a {report.witness[0]}:")
    for label in report.witness[1:]:
        print("   ", label)

    print()
    print("the permutation boolean order is a product of chains:")
    for n in (3, 4, 5):
        bp = orders.build_TBool_perm(n)
        chains = orders.build_product_of_chains(n)
        weak = orders.build_weak_order(n)
        strong = orders.build_strong_bruhat(n)
        print(f"  n={n}: iso to [2]x...x[{n}]: {bp.isomorphism_to(chains) is not None},"
              f" weak within: {weak.relations_not_in(bp) is None},"
              f" within strong: {bp.relations_not_in(strong) is None}")

    print()
    print("Tamari vs Catalan distributive at order 4: same size, different shape")
    tam, cat = orders.build_tamari(4), orders.build_catalan_distributive(4)
    print(f"  sizes {tam.size} and {cat.size}, isomorphic: {tam.isomorphism_to(cat) is not None}")
    print(f"  tamari ranked: {tam.is_ranked()}, catalan ranked: {cat.is_ranked()}")

    print()
    print("the whole claim suite at order 4:")
    for name in CLAIMS:
        result = run_claim(name, 4)
        print(f"  {name:16s} {'PASS' if result['ok'] else 'FAIL'}")


if __name__ == "__main__":
    try:
        main()
    except CapExceeded as exc:  # a cap, or a malformed TSSCPP_MAX_N: as the command line reports it
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
