"""Command-line interface.

Subcommands: ``enumerate``, ``convert``, ``stats``, ``dist``, ``poset``,
``poset-check`` and ``verify-all``.  Data goes to stdout, diagnostics to
stderr; output is deterministic for identical inputs.  Exit codes: 0 success,
1 verification failure, 2 usage or input error.  The ``TSSCPP_MAX_N``
environment variable replaces every enumeration cap (``enumeration._cap``).

The package and the parser import only the modules the command runs.
:func:`entry`, which ``__main__.run`` calls with the collector already off
(numpy's import runs ~30 collections that free little), keeps it off until
they are loaded, freezes what the imports made (``gc.freeze``) so that no
later collection traverses it, then turns the collector on and runs the
command.  :func:`main`, the in-process API for tests and library callers,
never freezes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import enumeration
from .enumeration import CapExceeded, FamilyId
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
        import json

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


def _poset_builders():
    from . import orders

    return {
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
    from .bijections import convert

    obj = _parse_value(args.source, args.value)
    print(to_json(convert(obj, _KIND_ALIASES[args.target])))
    return 0


def _cmd_stats(args):
    import json

    from . import statistics

    obj = _parse_value(args.kind, args.value)
    print(json.dumps({"object": to_json_dict(obj), "stats": statistics.object_statistics(obj)}))
    return 0


def _cmd_dist(args):
    import json

    from . import statistics

    counts = statistics.distribution(args.family, args.n, args.statistic)
    print(json.dumps({"statistic": args.statistic, "n": args.n, "counts": {str(k): v for k, v in counts.items()}}))
    return 0


def _cmd_poset(args):
    p = _poset_builders()[args.name](args.n)
    if args.out == "dot":
        print(p.to_dot())
    else:
        import json

        print(json.dumps(p.to_json_dict()))
    return 0


def _cmd_poset_check(args):
    from . import claims

    result = claims.run_claim(args.claim, args.n)
    if result["ok"]:
        print(f"{args.claim} n={args.n}: PASS")
        return 0
    import json

    print(json.dumps(result), file=sys.stderr)
    print(f"{args.claim} n={args.n}: FAIL")
    return 1


def _cmd_verify_all(args):
    """One row per check; a row that hits a cap is marked CAP, with its
    reason on stderr.  Exit 1 if a check fails, else 2 if one hit a cap."""
    from . import claims

    rows = claims.verify_all(args.n)
    width = max(len(r["claim"]) for r in rows)
    for r in rows:
        status = "PASS" if r["ok"] else "CAP" if "cap" in r else "FAIL"
        print(f"{r['claim']:<{width}}  n={r['n']}  {status}")
        if status == "CAP":
            print(f"{r['claim']} n={r['n']}: {r['cap']}", file=sys.stderr)
        elif status == "FAIL":
            import json

            print(json.dumps(r), file=sys.stderr)
    passed = sum(r["ok"] for r in rows)
    capped = sum("cap" in r for r in rows)
    print(f"{passed}/{len(rows)} checks passed")
    if passed + capped < len(rows):
        return 1
    return 2 if capped else 0


_COMMANDS = {
    "enumerate": (_cmd_enumerate, "stream a family as JSON lines"),
    "convert": (_cmd_convert, "convert an object between families"),
    "stats": (_cmd_stats, "statistics of a single object"),
    "dist": (_cmd_dist, "distribution of a statistic over a family"),
    "poset": (_cmd_poset, "emit a named poset as DOT or JSON"),
    "poset-check": (_cmd_poset_check, "verify one structural claim"),
    "verify-all": (_cmd_verify_all, "run the whole claim suite up to n"),
}


def _build_parser(argv):
    """Every subcommand's name and help, and arguments for the one ``argv``
    names (nothing before it takes a value), whose modules are loaded here."""
    parser = argparse.ArgumentParser(
        prog="gogmagog",
        description="Matrices, plane partitions, triangles: bijections, statistics, and orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text) in _COMMANDS.items():
        sub.add_parser(name, help=text).set_defaults(func=func)
    name = next((arg for arg in argv if arg in _COMMANDS), None)
    p = sub.choices.get(name)
    families = [f.value for f in FamilyId]
    if name == "enumerate":
        p.add_argument("--family", required=True, choices=families)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--count-only", action="store_true")
        p.add_argument("--jsonl", action="store_true", help="JSON lines (the default)")
    elif name == "convert":
        p.add_argument("--from", dest="source", required=True, choices=sorted(_KIND_ALIASES))
        p.add_argument("--to", dest="target", required=True, choices=sorted(_KIND_ALIASES))
        p.add_argument("value", help="object JSON, or one-line notation for permutations")
    elif name == "stats":
        from . import statistics  # what stats runs, loaded before entry freezes

        p.add_argument("--kind", choices=sorted(_KIND_ALIASES))
        p.add_argument("value")
    elif name == "dist":
        from . import statistics

        p.add_argument("--family", required=True, choices=families)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--statistic", required=True, choices=sorted(statistics.STATISTICS))
    elif name == "poset":
        p.add_argument("--name", required=True, choices=sorted(_poset_builders()))
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", choices=("dot", "json"), default="json")
    elif name in ("poset-check", "verify-all"):
        from . import claims

        if name == "poset-check":
            p.add_argument("--claim", required=True, choices=sorted(claims.CLAIMS))
        p.add_argument("--n", type=int, required=True)
    return parser


def _run(args):
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout went away (as under ``| head``).  Point stdout
        # at the null device, so that the flush at exit writes the rest of the
        # buffer nowhere instead of failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except Exception as exc:
        import json  # json and poset imported on an error only

        from .poset import SizeCap

        if not isinstance(exc, (ValidationError, CapExceeded, SizeCap, KeyError, json.JSONDecodeError)):
            raise
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)  # str(KeyError) is a repr
        return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    return _run(_build_parser(argv).parse_args(argv))


def entry() -> int:
    """Run ``sys.argv``'s command as :func:`main` does, with the collector
    off until its modules are loaded and what their imports made frozen."""
    gc.disable()
    try:
        args = _build_parser(sys.argv[1:]).parse_args(sys.argv[1:])
        gc.freeze()
    finally:
        gc.enable()
    return _run(args)


if __name__ == "__main__":
    sys.exit(entry())
