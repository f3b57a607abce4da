"""Command-line interface.

Subcommands: ``enumerate``, ``convert``, ``stats``, ``dist``, ``poset``,
``poset-check`` and ``verify-all``.  Data goes to stdout, diagnostics to
stderr; output is deterministic for identical inputs.  Exit codes: 0 success,
1 verification failure, 2 usage or input error.  The ``TSSCPP_MAX_N``
environment variable replaces every enumeration cap (``enumeration._cap``).

Each command's arguments are declared once, in ``_COMMANDS``.  :func:`_read`
reads a plainly well-formed argv from that table: the command first, each
option at most once by its full name, no value but an order starting with
``-``, every choice in its list.  Every order given from outside, ``--n``
in both readers and ``TSSCPP_MAX_N``, is read by ``enumeration._integer``:
ASCII ``-?[0-9]+`` only.  Help, usage errors and every other argv go to
argparse (:func:`_build_parser`, built from the same table and the only
importer of ``argparse``).  So a well-formed command loads only the package modules it
runs: ``cli``, ``enumeration``, ``bijections`` and ``triangles``, with
``statistics`` for ``stats`` and ``dist``, ``orders`` and ``poset`` for
``poset``, ``claims`` and what it builds for ``poset-check`` and
``verify-all``.  :func:`entry`, which ``__main__.run`` calls with the
collector already off (numpy's import runs ~30 collections that free
little), keeps it off until they are loaded, freezes what the imports made
(``gc.freeze``) so that no later collection traverses it, then turns the
collector on and runs the command.  It returns the command's status, and
``__main__.run`` then ends the process with ``os._exit``, after the atexit
handlers and a flush of stdout and stderr.  A closed stdout, or a reader of
stdout that went away, ends the command with exit 2 and nothing on stderr.
:func:`main`, the in-process API for tests and library callers, never
freezes and never ends the interpreter.
"""

import gc
import os
import sys
from types import FunctionType, SimpleNamespace

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


def _module(name):
    """The package's module ``name``, imported if it is not yet."""
    __import__(f"{__package__}.{name}")
    return sys.modules[f"{__package__}.{name}"]


# An argument is a row (flag, dest, kind, default[, help]), flag None for
# the positional value.  Its kind is int, bool for a bare flag, str for the
# value, or its choices, or a function that gives them once the command's
# modules are loaded; a default of _REQUIRED marks a required argument.
_REQUIRED = object()
_KINDS = sorted(_KIND_ALIASES)
_FAMILY = ("--family", "family", [f.value for f in FamilyId], _REQUIRED)
_N = ("--n", "n", int, _REQUIRED)

# command -> (run, help, the modules it runs, its arguments in help order)
_COMMANDS = {
    "enumerate": (_cmd_enumerate, "stream a family as JSON lines", (),
                  (_FAMILY, _N, ("--count-only", "count_only", bool, False),
                   ("--jsonl", "jsonl", bool, False, "JSON lines (the default)"))),
    "convert": (_cmd_convert, "convert an object between families", (),
                (("--from", "source", _KINDS, _REQUIRED), ("--to", "target", _KINDS, _REQUIRED),
                 (None, "value", str, _REQUIRED, "object JSON, or one-line notation for permutations"))),
    "stats": (_cmd_stats, "statistics of a single object", ("statistics",),
              (("--kind", "kind", _KINDS, None), (None, "value", str, _REQUIRED))),
    "dist": (_cmd_dist, "distribution of a statistic over a family", ("statistics",),
             (_FAMILY, _N, ("--statistic", "statistic", lambda: sorted(_module("statistics").STATISTICS), _REQUIRED))),
    "poset": (_cmd_poset, "emit a named poset as DOT or JSON", ("orders",),
              (("--name", "name", lambda: sorted(_poset_builders()), _REQUIRED), _N,
               ("--out", "out", ("dot", "json"), "json"))),
    "poset-check": (_cmd_poset_check, "verify one structural claim", ("claims",),
                    (("--claim", "claim", lambda: sorted(_module("claims").CLAIMS), _REQUIRED), _N)),
    "verify-all": (_cmd_verify_all, "run the whole claim suite up to n", ("claims",), (_N,)),
}


def _arguments(command):
    """The argument rows of ``command``, each choice function replaced by its
    choices, once the modules the command runs are loaded (before
    :func:`entry` freezes)."""
    _, _, modules, rows = _COMMANDS[command]
    for name in modules:
        _module(name)
    return [(flag, dest, kind() if isinstance(kind, FunctionType) else kind, *rest) for flag, dest, kind, *rest in rows]


def _read(argv):
    """The namespace that argparse returns for a plainly well-formed ``argv``
    (see the module's docstring), else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows = _arguments(argv[0])
    kinds = {flag: (dest, kind) for flag, dest, kind, *_ in rows}
    values = {"command": argv[0], "func": _COMMANDS[argv[0]][0]}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = token if token.startswith("-") else None
        if flag not in kinds or kinds[flag][0] in values:
            return None
        dest, kind = kinds[flag]
        if kind is bool:
            values[dest] = True
            continue
        value = token if flag is None else next(tokens, "-")  # "-" is no order and no choice
        if kind is int:
            try:
                value = enumeration._integer(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    for _, dest, _, default, *_ in rows:
        values.setdefault(dest, default)
    return None if _REQUIRED in values.values() else SimpleNamespace(**values)


def _build_parser(argv):
    """argparse's parser, for help, usage errors and every ``argv`` that
    :func:`_read` refuses: every subcommand's name and help, and the
    arguments of the one ``argv`` names (nothing before it takes a value)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gogmagog",
        description="Matrices, plane partitions, triangles: bijections, statistics, and orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=text).set_defaults(func=func)
    name = next((arg for arg in argv if arg in _COMMANDS), None)
    for flag, dest, kind, default, *doc in _arguments(name) if name else ():
        p, doc = sub.choices[name], doc[0] if doc else None
        if flag is None:
            p.add_argument(dest, help=doc)
        elif kind is bool:
            p.add_argument(flag, action="store_true", help=doc)
        else:
            required = default is _REQUIRED
            p.add_argument(flag, dest=dest, type=enumeration._integer if kind is int else None,
                           choices=None if kind is int else kind, required=required,
                           default=None if required else default, help=doc)
    return parser


def _run(args):
    if sys.stdout is None:  # stdout closed (as under ``>&-``): as if its reader went away
        return 2
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

        if not isinstance(exc, (ValidationError, CapExceeded, SizeCap, KeyError, json.JSONDecodeError, MemoryError)):
            raise
        message = exc.args[0] if isinstance(exc, KeyError) else str(exc) or "out of memory"  # str(KeyError) is a repr
        print(f"error: {message}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    return _run(_read(argv) or _build_parser(argv).parse_args(argv))


def entry() -> int:
    """Run ``sys.argv``'s command as :func:`main` does, with the collector
    off until its modules are loaded and what their imports made frozen."""
    gc.disable()
    try:
        args = _read(sys.argv[1:]) or _build_parser(sys.argv[1:]).parse_args(sys.argv[1:])
        gc.freeze()
    finally:
        gc.enable()
    return _run(args)


if __name__ == "__main__":
    sys.exit(entry())
