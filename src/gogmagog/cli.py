"""Command-line interface.

Subcommands: ``enumerate``, ``convert``, ``stats``, ``dist``, ``poset``,
``poset-check`` and ``verify-all``.  Data goes to stdout, diagnostics to
stderr; output is deterministic for identical inputs.  Exit codes: 0 success,
1 verification failure, 2 usage or input error.  The ``TSSCPP_MAX_N``
environment variable replaces every enumeration cap (``enumeration._cap``).

:func:`entry`, behind ``python -m gogmagog`` and the ``gogmagog`` script,
freezes the objects the imports made (``gc.freeze``), so that no collection
during the run or at exit traverses them, then runs :func:`main`; the
collector stays enabled.  :func:`main` is the in-process API, for tests and
library callers in long-lived processes, and never freezes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import bijections, claims, enumeration, orders, statistics
from .enumeration import CapExceeded, FamilyId
from .poset import SizeCap
from .triangles import (
    SCHEMA,
    Permutation,
    ValidationError,
    from_json_dict,
    to_json,
    to_json_dict,
)

__all__ = ["entry", "main"]


_KIND_ALIASES = {
    **{kind: kind for kind, _ in SCHEMA.values()},
    "monotone": "monotone_triangle",
    "magog": "magog_triangle",
    "boolean": "boolean_triangle",
    "nilp": "nilp_nest",
    "tsscpp": "plane_partition",
    "fundamental": "fundamental_domain",
}

def _parse_value(kind, text):
    text = text.strip()
    if text.startswith("{"):
        data = json.loads(text)
        obj = from_json_dict(data)
        if kind is not None and _KIND_ALIASES[kind] != data["kind"]:
            raise ValidationError(f"expected a {kind} object, got kind {data['kind']!r}")
        return obj
    if kind is None:
        raise ValidationError("non-JSON input needs an explicit kind")
    if _KIND_ALIASES[kind] == "permutation":
        return Permutation.from_one_line(text)
    raise ValidationError(f"{kind} objects must be given as JSON")


_POSET_BUILDERS = {
    "An": orders.build_An,
    "Tn": orders.build_Tn,
    "TBool": orders.build_TBool,
    "TnPerm": orders.build_Tn_perm,
    "TBoolPerm": orders.build_TBool_perm,
    "weak": orders.build_weak_order,
    "strong": orders.build_strong_bruhat,
    "tamari": orders.build_tamari,
    "catalan": orders.build_catalan_distributive,
    "chains": orders.build_product_of_chains,
    "Pn": orders.build_Pn,
    "Qn": orders.build_Qn,
    "JPn": lambda n: orders.build_Pn(n).order_ideals(),
    "JQn": lambda n: orders.build_Qn(n).order_ideals(),
}


def _cmd_enumerate(args):
    if args.count_only:
        print(enumeration.count(args.family, args.n))
        return 0
    for block in enumeration.jsonl(args.family, args.n):
        sys.stdout.write(block)
    return 0


def _cmd_convert(args):
    obj = _parse_value(args.source, args.value)
    print(to_json(bijections.convert(obj, _KIND_ALIASES[args.target])))
    return 0


def _cmd_stats(args):
    obj = _parse_value(args.kind, args.value)
    print(json.dumps({"object": to_json_dict(obj), "stats": statistics.object_statistics(obj)}))
    return 0


def _cmd_dist(args):
    counts = statistics.distribution(args.family, args.n, args.statistic)
    print(
        json.dumps(
            {
                "statistic": args.statistic,
                "n": args.n,
                "counts": {str(k): v for k, v in counts.items()},
            }
        )
    )
    return 0


def _cmd_poset(args):
    p = _POSET_BUILDERS[args.name](args.n)
    if args.out == "dot":
        print(p.to_dot())
    else:
        print(json.dumps(p.to_json_dict()))
    return 0


def _cmd_poset_check(args):
    result = claims.run_claim(args.claim, args.n)
    if result["ok"]:
        print(f"{args.claim} n={args.n}: PASS")
        return 0
    print(json.dumps(result), file=sys.stderr)
    print(f"{args.claim} n={args.n}: FAIL")
    return 1


def _cmd_verify_all(args):
    """One row per check; a row that hits a cap is marked CAP, with its
    reason on stderr.  Exit 1 if a check fails, else 2 if one hit a cap."""
    rows = claims.verify_all(args.n)
    width = max(len(r["claim"]) for r in rows)
    for r in rows:
        status = "PASS" if r["ok"] else "CAP" if "cap" in r else "FAIL"
        print(f"{r['claim']:<{width}}  n={r['n']}  {status}")
        if status == "CAP":
            print(f"{r['claim']} n={r['n']}: {r['cap']}", file=sys.stderr)
        elif status == "FAIL":
            print(json.dumps(r), file=sys.stderr)
    passed = sum(r["ok"] for r in rows)
    capped = sum("cap" in r for r in rows)
    print(f"{passed}/{len(rows)} checks passed")
    if passed + capped < len(rows):
        return 1
    return 2 if capped else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gogmagog",
        description="Matrices, plane partitions, triangles: bijections, statistics, and orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = [f.value for f in FamilyId]

    p = sub.add_parser("enumerate", help="stream a family as JSON lines")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--jsonl", action="store_true", help="JSON lines (the default)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("convert", help="convert an object between families")
    p.add_argument("--from", dest="source", required=True, choices=sorted(_KIND_ALIASES))
    p.add_argument("--to", dest="target", required=True, choices=sorted(_KIND_ALIASES))
    p.add_argument("value", help="object JSON, or one-line notation for permutations")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("stats", help="statistics of a single object")
    p.add_argument("--kind", choices=sorted(_KIND_ALIASES))
    p.add_argument("value")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("dist", help="distribution of a statistic over a family")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--statistic", required=True, choices=sorted(statistics.STATISTICS))
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("poset", help="emit a named poset as DOT or JSON")
    p.add_argument("--name", required=True, choices=sorted(_POSET_BUILDERS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", choices=("dot", "json"), default="json")
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("poset-check", help="verify one structural claim")
    p.add_argument("--claim", required=True, choices=sorted(claims.CLAIMS))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_poset_check)

    p = sub.add_parser("verify-all", help="run the whole claim suite up to n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (ValidationError, CapExceeded, SizeCap, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout went away (as under ``| head``).  Point stdout
        # at the null device, so that the flush at exit writes the rest of the
        # buffer nowhere instead of failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


def entry() -> int:
    """Run :func:`main` on ``sys.argv`` with the import-time heap frozen."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
