"""The ``convert`` and ``stats`` transcript that ``test_cli`` compares with
the digests in ``golden_cli.py``.

The inputs are every object of orders 1..4, the worked order-6 example
(463512 and its encodings) and the non-permutation objects of the order-3
lists.  Each object goes through ``convert --from S --to T`` for every
alias S of its kind and every alias T, and through ``stats --kind S``; a
digest covers the stdout, stderr and exit code of every input of one
(S, T) pair, or of one ``stats --kind S``.

Run as a script to print the digests as a Python dict:

    PYTHONPATH=src python tests/cli_transcript.py
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import golden_data as gold
from gogmagog import cli, enumeration
from gogmagog.triangles import fundamental_domain, to_json

KINDS = {
    "asm": ["asm"],
    "monotone_triangle": ["monotone", "monotone_triangle"],
    "magog_triangle": ["magog", "magog_triangle"],
    "boolean_triangle": ["boolean", "boolean_triangle"],
    "nilp_nest": ["nilp", "nilp_nest"],
    "plane_partition": ["tsscpp", "plane_partition"],
    "fundamental_domain": ["fundamental", "fundamental_domain"],
    "permutation": ["permutation"],
}
TARGETS = sorted(alias for aliases in KINDS.values() for alias in aliases)


def _json(kind, n, field, value):
    return json.dumps({"kind": kind, "n": n, field: value}, separators=(",", ":"))


def inputs():
    """kind -> the input texts of that kind, in a fixed order."""
    families = {
        "asm": "asm",
        "monotone_triangle": "monotone",
        "magog_triangle": "magog",
        "boolean_triangle": "boolean",
        "nilp_nest": "nilp",
        "plane_partition": "tsscpp",
    }
    texts = {kind: [] for kind in KINDS}
    for n in range(1, 5):
        for kind, family in families.items():
            texts[kind] += [to_json(obj) for obj in enumeration.generate(family, n)]
        tsscpps = enumeration.generate("tsscpp", n)
        texts["fundamental_domain"] += [to_json(fundamental_domain(p)) for p in tsscpps]
        texts["permutation"] += [p.one_line() for p in enumeration.generate("permutation", n)]
    as_lists = lambda rows: [list(row) for row in rows]
    texts["permutation"].append(gold.GOLDEN["one_line"])
    texts["asm"].append(_json("asm", 6, "rows", as_lists(gold.GOLDEN["matrix"])))
    texts["monotone_triangle"].append(_json("monotone_triangle", 6, "rows", as_lists(gold.GOLDEN["monotone"])))
    texts["boolean_triangle"].append(_json("boolean_triangle", 6, "rows", as_lists(gold.GOLDEN["boolean"])))
    texts["plane_partition"].append(_json("plane_partition", 6, "rows", as_lists(gold.GOLDEN["tsscpp"])))
    i = gold.NON_PERMUTATION_INDEX
    for kind, rows in (
        ("asm", gold.ASMS_3),
        ("monotone_triangle", gold.MONOTONE_3),
        ("magog_triangle", gold.MAGOG_3),
        ("boolean_triangle", gold.BOOLEAN_3),
        ("plane_partition", gold.TSSCPP_3),
        ("fundamental_domain", gold.DOMAINS_3),
    ):
        texts[kind].append(_json(kind, 3, "rows", as_lists(rows[i])))
    return texts


def run(argv):
    """stdout, stderr and exit code of one CLI call, as one record."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return f"{out.getvalue()}\0{err.getvalue()}\0{code}\0"


def digests():
    """(command, source alias, target alias or None) -> sha256 hex digest."""
    result = {}
    for kind, texts in inputs().items():
        for source in KINDS[kind]:
            for target in TARGETS:
                h = hashlib.sha256()
                for text in texts:
                    h.update(run(["convert", "--from", source, "--to", target, text]).encode())
                result["convert", source, target] = h.hexdigest()
            h = hashlib.sha256()
            for text in texts:
                h.update(run(["stats", "--kind", source, text]).encode())
            result["stats", source, None] = h.hexdigest()
    return result


if __name__ == "__main__":
    print("DIGESTS = {")
    for key, value in digests().items():
        print(f"    {key!r}: {value!r},")
    print("}")
