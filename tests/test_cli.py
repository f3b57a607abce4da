"""The command-line surface: flags, formats, determinism, and exit codes."""

import json

import pytest

import golden_data as gold
import golden_usage
from gogmagog.cli import main
from gogmagog.triangles import EntryError, Permutation, from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_count_only(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "boolean", "--n", "3", "--count-only")
    assert code == 0 and out.strip() == "7"


def test_enumerate_jsonl_round_trips(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "magog", "--n", "3", "--jsonl")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    objects = [from_json(line) for line in lines]
    assert sorted(o.rows for o in objects) == sorted(gold.MAGOG_3)


def test_convert_permutation_to_boolean(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "permutation", "--to", "boolean", "463512")
    assert code == 0
    assert json.loads(out) == {
        "kind": "boolean_triangle",
        "n": 6,
        "rows": [[1], [0, 0], [1, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0, 0]],
    }


def test_convert_asm_to_monotone_and_back(capsys):
    blob = json.dumps({"kind": "asm", "n": 3, "rows": [list(r) for r in gold.ASMS_3[3]]})
    code, out, _ = run_cli(capsys, "convert", "--from", "asm", "--to", "monotone", blob)
    assert code == 0
    assert from_json(out).rows == gold.MONOTONE_3[3]
    code, out, _ = run_cli(capsys, "convert", "--from", "monotone", "--to", "asm", out)
    assert code == 0
    assert from_json(out).rows == gold.ASMS_3[3]


def test_convert_crossing_sides_needs_permutation(capsys):
    blob = json.dumps({"kind": "asm", "n": 3, "rows": [list(r) for r in gold.ASMS_3[3]]})
    code, out, err = run_cli(capsys, "convert", "--from", "asm", "--to", "magog", blob)
    assert code == 2 and "error" in err


def test_convert_permutation_full_chain(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "permutation", "--to", "tsscpp", "463512")
    assert code == 0
    assert from_json(out).rows == gold.GOLDEN["tsscpp"]


def test_stats_permutation(capsys):
    code, out, _ = run_cli(capsys, "stats", "--kind", "permutation", "463512")
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["inversions"] == 11
    # the embedded object round-trips through the parsers
    from gogmagog.triangles import from_json_dict

    assert from_json_dict(payload["object"]).one_line() == "463512"


def test_stats_boolean(capsys):
    blob = json.dumps({"kind": "boolean_triangle", "n": 6, "rows": [list(r) for r in gold.GOLDEN["boolean"]]})
    code, out, _ = run_cli(capsys, "stats", blob)
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats == {
        "zeros": 11,
        "last_row_zeros": 4,
        "lowest_one_last_diagonal": 1,
        "zero_then_one": 0,
        "is_permutation": True,
    }


def test_dist(capsys):
    code, out, _ = run_cli(capsys, "dist", "--family", "asm", "--n", "3", "--statistic", "negative_ones")
    assert code == 0
    assert json.loads(out) == {"statistic": "negative_ones", "n": 3, "counts": {"0": 6, "1": 1}}


def test_poset_json(capsys):
    code, out, _ = run_cli(capsys, "poset", "--name", "tamari", "--n", "3", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elements"]) == 5
    assert len(payload["covers"]) == 5


def test_poset_dot(capsys):
    code, out, _ = run_cli(capsys, "poset", "--name", "chains", "--n", "3", "--out", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out


def test_poset_check_pass_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "poset-check", "--claim", "thm4.2", "--n", "3")
    assert code == 0 and "PASS" in out
    code, out, _ = run_cli(capsys, "poset-check", "--claim", "lemma4.8", "--n", "4")
    assert code == 0


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--n", "3")
    assert code == 0
    assert "30/30 checks passed" in out
    assert "FAIL" not in out


def test_verify_all_prints_capped_rows_and_exits_2(capsys, monkeypatch):
    """ASMs capped at 4 and every other family at 3: each check of order 4
    reaches a family it may not enumerate."""
    from gogmagog.enumeration import DEFAULT_CAPS, FamilyId

    monkeypatch.delenv("TSSCPP_MAX_N", raising=False)
    for family in FamilyId:
        monkeypatch.setitem(DEFAULT_CAPS, family, 4 if family is FamilyId.ASM else 3)
    code, out, err = run_cli(capsys, "verify-all", "--n", "4")
    lines = out.splitlines()
    assert code == 2 and lines[-1] == "30/43 checks passed"
    assert len(lines) == 44 and sum(line.endswith("n=4  CAP") for line in lines) == 13
    assert "FAIL" not in out
    assert err.splitlines()[0] == (
        "counts n=4: order 4 exceeds the cap 3 for boolean (raise it with TSSCPP_MAX_N)"
    )
    assert len(err.splitlines()) == 13


@pytest.mark.parametrize(
    "env, n, cap", [(None, "9", 8), (None, "99999999999999999999", 8), ("3", "4", 3), ("0", "1", 0)]
)
def test_verify_all_above_every_cap_is_refused_before_any_row(capsys, monkeypatch, env, n, cap):
    """Above the largest cap, ``TSSCPP_MAX_N`` or else the largest default,
    every row could only be capped: no row runs."""
    from gogmagog import claims

    monkeypatch.delenv("TSSCPP_MAX_N", raising=False)
    if env is not None:
        monkeypatch.setenv("TSSCPP_MAX_N", env)
    monkeypatch.setattr(claims, "_capped", lambda *args: pytest.fail("a row ran"))
    code, out, err = run_cli(capsys, "verify-all", "--n", n)
    assert (code, out) == (2, "")
    assert err == f"error: order {n} exceeds the cap {cap} of every family (raise it with TSSCPP_MAX_N)\n"


def test_determinism(capsys):
    first = run_cli(capsys, "enumerate", "--family", "asm", "--n", "4")
    second = run_cli(capsys, "enumerate", "--family", "asm", "--n", "4")
    assert first == second


def test_cap_errors_are_usage_errors(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "enumerate", "--family", "asm", "--n", "9", "--count-only")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("TSSCPP_MAX_N", "3")
    code, out, err = run_cli(capsys, "enumerate", "--family", "asm", "--n", "4", "--count-only")
    assert code == 2
    monkeypatch.setenv("TSSCPP_MAX_N", "4")
    code, out, err = run_cli(capsys, "enumerate", "--family", "asm", "--n", "4", "--count-only")
    assert code == 0 and out.strip() == "42"


def test_bad_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "convert", "--from", "boolean", "--to", "magog", '{"kind":"boolean_triangle","n":3,"rows":[[1],[0,1]]}')
    assert code == 2 and "error" in err


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "gogmagog", "enumerate", "--family", "boolean", "--n", "3", "--count-only"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0 and result.stdout.strip() == "7"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "boolean", "--n", "3", "--count-only"),
        ("enumerate", "--family", "asm", "--n", "0"),
        ("dist", "--family", "asm", "--n", "3", "--statistic", "inversions"),
        ("poset", "--name", "Pn", "--n", "3"),
        ("poset", "--name", "chains", "--n", "0"),
        ("poset-check", "--claim", "thm4.2", "--n", "-1"),
        ("verify-all", "--n", "0"),
    ],
)
def test_malformed_env_cap_is_a_usage_error(capsys, monkeypatch, argv):
    """Every command that takes an order reads the cap first, whether or not
    it enumerates, and whatever the order."""
    monkeypatch.setenv("TSSCPP_MAX_N", "abc")
    assert run_cli(capsys, *argv) == (2, "", "error: TSSCPP_MAX_N must be an integer, got 'abc'\n")


def test_malformed_env_cap_is_not_read_without_an_order(capsys, monkeypatch):
    monkeypatch.setenv("TSSCPP_MAX_N", "abc")
    code, out, _ = run_cli(capsys, "stats", "--kind", "permutation", "312")
    assert code == 0 and json.loads(out)["stats"] == {"inversions": 2}
    code, out, _ = run_cli(capsys, "convert", "--from", "permutation", "--to", "permutation", "312")
    assert code == 0 and json.loads(out)["sigma"] == [3, 1, 2]


def test_permutation_with_non_integer_values_is_a_usage_error(capsys):
    for sigma in ("[1.7,2.2]", "[true,2]"):
        blob = '{"kind":"permutation","n":2,"sigma":%s}' % sigma
        code, out, err = run_cli(capsys, "convert", "--from", "permutation", "--to", "boolean", blob)
        assert code == 2 and out == "" and "not an integer" in err


def test_permutation_one_line_that_is_not_digits_is_a_usage_error(capsys):
    for text in ("abc", "-", "1,x"):
        code, out, err = run_cli(capsys, "convert", "--from", "permutation", "--to", "boolean", text)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: permutation:")


@pytest.mark.parametrize("text", ["2,1_0,1,3,4,5,6,7,8,9", "+2,1", "\u0661\u0662", "-1", "2,1.0", "\u00b2,1"])
def test_one_line_notation_is_ascii_digits_only(capsys, text):
    """``int()`` would read an underscore separator, a sign and the digits
    of other scripts, so "2,1_0,1,3,4,5,6,7,8,9" was (2, 10, 1, ...)."""
    with pytest.raises(EntryError, match="is not one-line notation"):
        Permutation.from_one_line(text)
    code, out, err = run_cli(capsys, "stats", "--kind", "permutation", text)
    assert (code, out, err) == (2, "", f"error: permutation: {text!r} is not one-line notation\n")


@pytest.mark.parametrize(
    "text, sigma",
    [("21", (2, 1)), (" 2,1 ", (2, 1)), ("2, 1", (2, 1)), ("10,1,2,3,4,5,6,7,8,9", (10, *range(1, 10)))],
)
def test_one_line_notation_takes_digits_or_commas_between_spaces(text, sigma):
    assert Permutation.from_one_line(text).sigma == sigma


def test_a_statistic_a_family_lacks_is_a_usage_error_without_quotes(capsys):
    code, out, err = run_cli(capsys, "dist", "--family", "tsscpp", "--n", "3", "--statistic", "inversions")
    assert (code, out, err) == (2, "", "error: statistic 'inversions' is not defined for tsscpp\n")


def test_an_unknown_claim_is_a_usage_error_without_quotes(capsys):
    """The parser's choices stop an unknown claim first; ``run_claim``'s own
    ``KeyError`` prints the same way."""
    import argparse

    from gogmagog import claims, cli

    code = cli._run(argparse.Namespace(func=lambda args: claims.run_claim("nope", 3)))
    assert code == 2
    assert capsys.readouterr().err == f"error: unknown claim 'nope'; choose from {', '.join(claims.CLAIMS)}\n"


def test_poset_order_below_one_is_a_usage_error(capsys):
    for name, n in (("tamari", "0"), ("An", "-1"), ("chains", "0")):
        code, out, err = run_cli(capsys, "poset", "--name", name, "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: order must be >= 1, got {n}\n"


def test_empty_permutation_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "stats", "--kind", "permutation", "")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: permutation:")


def test_json_with_a_missing_field_names_kind_and_field(capsys):
    code, out, err = run_cli(capsys, "stats", "--kind", "asm", '{"kind":"asm"}')
    assert code == 2 and out == ""
    assert err == "error: asm JSON is missing the field 'n'\n"


def test_json_of_another_kind_than_requested_is_a_usage_error(capsys):
    asm = json.dumps({"kind": "asm", "n": 3, "rows": [list(r) for r in gold.ASMS_3[3]]})
    for argv in (
        ("convert", "--from", "permutation", "--to", "boolean", asm),
        ("convert", "--from", "monotone", "--to", "asm", asm),
        ("stats", "--kind", "boolean", asm),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "got kind 'asm'" in err
    # Aliases name the same kind.
    code, out, _ = run_cli(capsys, "convert", "--from", "permutation", "--to", "tsscpp", "231")
    assert code == 0
    for kind in ("tsscpp", "plane_partition"):
        code, _, _ = run_cli(capsys, "convert", "--from", kind, "--to", "boolean", out)
        assert code == 0


@pytest.mark.parametrize("n,lines_read", [("7", 1), ("3", 0)])
def test_closed_stdout_pipe_exits_2_without_a_traceback(n, lines_read):
    """As under `| head -1`, the reader goes away while blocks are still being
    written; as under `| head -0`, before the first write, so that the output
    is still buffered when the pipe turns out to be closed."""
    import os
    import subprocess
    import sys

    # Buffered, as stdout into a pipe is by default.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gogmagog", "enumerate", "--family", "boolean", "--n", n],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    lines = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert all(line.startswith(b'{"kind":"boolean_triangle","n":7,') for line in lines)
    assert err == b""


@pytest.mark.parametrize("argv", [("enumerate", "--family", "asm", "--n", "3", "--count-only"),
                                  ("enumerate", "--family", "boolean", "--n", "7"), ("verify-all", "--n", "2")])
def test_a_closed_stdout_exits_2_without_a_traceback(argv):
    """As under ``>&-``: with file descriptor 1 closed the interpreter sets
    ``sys.stdout`` to None, and the command ends as when its reader went
    away."""
    import os
    import subprocess
    import sys

    result = subprocess.run([sys.executable, "-m", "gogmagog", *argv], stderr=subprocess.PIPE,
                            preexec_fn=lambda: os.close(1))
    assert (result.returncode, result.stderr) == (2, b"")


def test_verify_all_order_below_one_is_a_usage_error(capsys):
    for n in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify-all", "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: order must be >= 1, got {n}\n"


def test_kind_lookups_serialise_nothing(monkeypatch):
    from gogmagog import bijections, cli, statistics, triangles

    objects = [from_json(json.dumps({"kind": "permutation", "n": 3, "sigma": [2, 3, 1]}))]
    kinds = ("asm", "boolean_triangle", "nilp_nest", "fundamental_domain")
    objects += [bijections.convert(objects[0], kind) for kind in kinds]
    expected = [statistics.object_statistics(obj) for obj in objects]
    monkeypatch.setattr(triangles, "to_json_dict", None)
    monkeypatch.setattr(cli, "to_json_dict", None)
    assert [statistics.object_statistics(obj) for obj in objects] == expected
    assert bijections.convert(objects[0], "plane_partition") == bijections.convert(objects[1], "plane_partition")


@pytest.mark.parametrize(
    "name, n", [("weak", 9), ("strong", 9), ("Pn", 66), ("Qn", 66), ("tamari", 11), ("catalan", 11)]
)
def test_poset_over_the_size_cap_is_a_usage_error(capsys, monkeypatch, name, n):
    """Refused before anything is enumerated: the Tamari and Catalan vectors
    may not be listed."""
    from gogmagog import orders

    def refuse(n):
        raise AssertionError(f"enumerated order {n}")

    monkeypatch.setattr(orders, "bracket_vectors", refuse)
    monkeypatch.setattr(orders, "catalan_sequences", refuse)
    code, out, err = run_cli(capsys, "poset", "--name", name, "--n", str(n), "--out", "json")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: poset on ")


@pytest.mark.parametrize(
    "domain",
    ['{"kind":"fundamental_domain","n":2,"rows":[[2,0],[0]]}', '{"kind":"fundamental_domain","n":3,"rows":[[3,1,0],[0,0],[0]]}'],
)
def test_inconsistent_domains_are_refused(capsys, domain):
    """A domain that is no TSSCPP's converts to nothing and has no stats."""
    from gogmagog.cli import _KIND_ALIASES

    runs = [("convert", "--from", "fundamental", "--to", kind, domain) for kind in sorted(_KIND_ALIASES)]
    for argv in runs + [("stats", domain)]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: "), argv


@pytest.mark.parametrize(
    "partition",
    ['{"kind":"plane_partition","n":1,"rows":[[2,2],[2,2]]}', '{"kind":"plane_partition","n":2,"rows":[[2,1,0,0],[1,0,0,0],[0,0,0,0],[0,0,0,0]]}'],
)
def test_stats_refuses_a_plane_partition_that_is_no_tsscpp_like_convert(capsys, partition):
    """`stats` on a plane partition that is no TSSCPP exits 2 with the line
    `convert --from tsscpp` prints."""
    code, out, err = run_cli(capsys, "stats", "--kind", "tsscpp", partition)
    assert code == 2 and out == ""
    assert err.startswith("error: array is not a TSSCPP: SymmetryReport(") and err.count("\n") == 1
    assert (code, out, err) == run_cli(capsys, "convert", "--from", "tsscpp", "--to", "boolean", partition)


def test_convert_and_stats_transcript_matches_the_recorded_digests(monkeypatch):
    """stdout, stderr and exit code of `convert` for every pair of kind
    aliases and of `stats`, on every object of orders 1..4 and the golden
    examples (see cli_transcript.py).  Every argv is well-formed, so the
    strict reader reads it and no argparse parser is built."""
    import cli_transcript
    import golden_cli
    from gogmagog import cli

    monkeypatch.setattr(cli, "_build_parser", lambda argv: pytest.fail(f"argparse read {argv}"))
    assert cli_transcript.digests() == golden_cli.DIGESTS


_HUGE = "99999999999999999999"
_LARGE_POSETS = ("chains", "weak", "strong", "TnPerm", "TBoolPerm", "tamari", "catalan")
_PERMUTATION_CLAIMS = ("thm4.4", "thm4.9", "thm4.12", "cor4.16", "cor4.17")


@pytest.mark.parametrize(
    "argv",
    [
        *(("poset", "--name", name, "--n", _HUGE) for name in _LARGE_POSETS),
        *(("poset-check", "--claim", claim, "--n", _HUGE) for claim in _PERMUTATION_CLAIMS),
        ("poset", "--name", "weak", "--n", "5000"),
        ("poset", "--name", "chains", "--n", "2000"),
        ("poset-check", "--claim", "thm4.4", "--n", "5000"),
        ("poset", "--name", "tamari", "--n", "1000000"),
    ],
)
def test_an_order_too_large_to_count_exits_2_at_once(argv):
    """Its size is never built: n! of 10**20, or a count of more than 4300
    digits, which Python does not print."""
    import subprocess
    import sys
    import time

    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "gogmagog", *argv], capture_output=True, text=True)
    assert time.perf_counter() - start < 2
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: poset of order {argv[-1]} needs more than 268435456 bytes of relation\n"


def test_running_out_of_memory_is_one_error_line_with_exit_2():
    """The boolean triangle of a permutation of order 10,000 needs tables of
    hundreds of MiB; under an address-space limit of 384 MiB, which the
    interpreter and numpy start well within (with one BLAS thread), their
    allocation fails at once, and the command reports it instead of a
    traceback."""
    import os
    import resource
    import subprocess
    import sys

    limit = 384 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    sigma = ",".join(map(str, range(10000, 0, -1)))
    argv = [sys.executable, "-m", "gogmagog", "convert", "--from", "permutation", "--to", "boolean", sigma]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(argv, capture_output=True, text=True, env=env, preexec_fn=cap)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: Unable to allocate ") and result.stderr.count("\n") == 1


# Posets and claims at orders whose relation needs more bytes than Python
# prints digits of (10**4300): the relation guard refuses them by order.
_UNPRINTABLE_RELATIONS = {
    "1000": {"chains", "weak", "strong", "TnPerm", "TBoolPerm", "thm4.4", "cor4.16"},
    "3700": {"chains", "weak", "strong", "TnPerm", "TBoolPerm", "tamari", "catalan",
             "thm4.4", "thm4.9", "thm4.12", "cor4.16", "cor4.17"},
}


@pytest.mark.parametrize("n", sorted(_UNPRINTABLE_RELATIONS))
def test_every_poset_and_claim_at_a_large_order_exits_2_with_one_message(capsys, n):
    from gogmagog import claims, cli

    argvs = [("poset", "--name", name, "--n", n) for name in cli._poset_builders()]
    argvs += [("poset-check", "--claim", claim, "--n", n) for claim in claims.CLAIMS]
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, argv
        if argv[2] in _UNPRINTABLE_RELATIONS[n]:
            assert err == f"error: poset of order {n} needs more than 268435456 bytes of relation\n", argv


# -- the process entry point --------------------------------------------------

_ONE_OF_EACH = [
    ("enumerate", "--family", "asm", "--n", "3", "--count-only"),
    ("convert", "--from", "permutation", "--to", "boolean", "312"),
    ("stats", "--kind", "permutation", "312"),
    ("dist", "--family", "boolean", "--n", "3", "--statistic", "zeros"),
    ("poset", "--name", "tamari", "--n", "3"),
    ("poset-check", "--claim", "thm4.9", "--n", "3"),
    ("verify-all", "--n", "2"),
]


def test_main_in_process_freezes_nothing(capsys):
    """``main`` runs inside long-lived processes (tests, library callers),
    so only the process entry point may move objects out of the
    collector's reach."""
    import gc

    frozen = gc.get_freeze_count()
    for argv in _ONE_OF_EACH:
        assert run_cli(capsys, *argv)[0] == 0, argv
        assert gc.get_freeze_count() == frozen, argv


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "boolean", "--n", "3"),
        ("enumerate", "--family", "nope", "--n", "3"),
        ("enumerate", "--family", "asm", "--n", "9", "--count-only"),
        ("verify-all", "--n", "0"),
    ],
    ids=["exit-0", "usage-error", "cap-error", "verify-all-0"],
)
def test_the_module_entry_point_prints_what_main_prints(capsys, monkeypatch, argv):
    import subprocess
    import sys

    monkeypatch.delenv("TSSCPP_MAX_N", raising=False)
    result = subprocess.run([sys.executable, "-m", "gogmagog", *argv], capture_output=True, text=True)
    try:
        code = main(list(argv))
    except SystemExit as exit:  # argparse's usage errors
        code = exit.code
    captured = capsys.readouterr()
    assert (result.stdout, result.stderr, result.returncode) == (captured.out, captured.err, code)


def test_the_entry_point_freezes_the_heap_then_runs_main():
    import subprocess
    import sys

    code = (
        "import gc, sys; from gogmagog import cli; "
        "sys.argv = ['gogmagog', 'enumerate', '--family', 'boolean', '--n', '3', '--count-only']; "
        "status = cli.entry(); print(status, gc.get_freeze_count() > 0, gc.isenabled())"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.stdout, result.stderr) == ("7\n0 True True\n", "")


def _script_target():
    """The (module, function) that ``[project.scripts]`` names."""
    import pathlib

    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    module, _, name = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gogmagog"].partition(":")
    return module, name


@pytest.fixture
def process_exit(monkeypatch):
    """The calls that end the process, in order, recorded instead of made:
    ``atexit._run_exitfuncs`` (the test process's own handlers stay
    registered) and ``os._exit``, which raises SystemExit with its status."""
    import atexit
    import os

    calls = []

    def exit(status):
        calls.append(("_exit", status))
        raise SystemExit(status)

    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: calls.append(("atexit",)))
    monkeypatch.setattr(os, "_exit", exit)
    return calls


def test_the_installed_script_runs_the_entry_point_of_the_module(monkeypatch, process_exit):
    """``[project.scripts]`` names the function that ``python -m gogmagog``
    calls, and that function runs ``cli.entry`` with the collector off, then
    the atexit handlers, then ends the process with the command's status."""
    import gc
    import importlib
    import runpy
    import sys

    from gogmagog import cli

    module, name = _script_target()
    target = getattr(importlib.import_module(module), name)
    sys.modules.pop(module)  # runpy warns when it runs a module already imported
    calls = process_exit
    monkeypatch.setattr(cli, "entry", lambda: calls.append(("entry", gc.isenabled())) or 0)
    monkeypatch.setattr(cli, "main", lambda *args: calls.append(("main", gc.isenabled())) or 0)
    with pytest.raises(SystemExit) as exit:
        target()
    assert exit.value.code == 0
    with pytest.raises(SystemExit) as exit:
        runpy.run_module("gogmagog", run_name="__main__")
    assert exit.value.code == 0 and calls == [("entry", False), ("atexit",), ("_exit", 0)] * 2 and gc.isenabled()
    assert target.__module__ == "gogmagog.__main__"
    assert runpy.run_module("gogmagog")[name].__code__ == target.__code__


def test_the_installed_script_collects_nothing_before_the_command_is_loaded():
    """As pip's generated wrapper does, import the script's function and call
    it: every collection runs after ``cli.entry`` has frozen what the
    command's imports made, none while numpy imports.  The function ends the
    process; the counts are printed by an atexit handler."""
    import subprocess
    import sys

    module, name = _script_target()
    code = (
        "import atexit, gc, sys\n"
        "starts = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(gc.get_freeze_count()))\n"
        f"from {module} import {name}\n"
        "imported = len(starts)\n"
        "sys.argv = ['gogmagog', 'enumerate', '--family', 'asm', '--n', '6', '--count-only']\n"
        "atexit.register(lambda: print(imported, sum(1 for frozen in starts if frozen == 0)))\n"
        f"sys.exit({name}())\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.stdout, result.stderr, result.returncode) == ("7436\n0 0\n", "", 0)


def test_the_installed_script_runs_with_the_collector_enabled_after_it(monkeypatch, process_exit):
    """``python -m gogmagog`` turns the collector off before numpy is
    imported; it is on again however the entry point returns or raises."""
    import gc
    import runpy

    from gogmagog import cli

    def fail():
        raise RuntimeError("entry failed")

    for entry, raised in ((lambda: 0, SystemExit), (fail, RuntimeError)):
        monkeypatch.setattr(cli, "entry", entry)
        with pytest.raises(raised):
            runpy.run_module("gogmagog", run_name="__main__")
        assert gc.isenabled()


# Loaded by the children of the next test at start-up: an atexit handler
# that writes to stderr, and one that writes to stdout when ATEXIT_STDOUT is
# set, each a write that only a flush sends on; and, when FAIL_THM49 is set,
# the claim thm4.9 made to fail.
_SITECUSTOMIZE = """\
import atexit, os, sys
atexit.register(lambda: sys.stderr.write("atexit ran"))
if os.environ.get("ATEXIT_STDOUT"):
    atexit.register(lambda: sys.stdout.write("written at exit\\n"))
if os.environ.get("FAIL_THM49"):
    from gogmagog import claims
    claims.CLAIMS["thm4.9"] = lambda n: {"claim": "thm4.9", "n": n, "ok": False}
"""
_BOOLEAN_7_DIGEST = "c1732c22dbe21332c8b26a1f375b8215b799ecb6895e63ab50228d32fdb2b22d"
_USAGE_ERROR = """\
usage: gogmagog enumerate [-h] --family
                          {asm,monotone,magog,boolean,nilp,tsscpp,permutation,permutation-boolean}
                          --n N [--count-only] [--jsonl]
gogmagog enumerate: error: argument --n: invalid int value: 'x'
"""


@pytest.mark.parametrize(
    "shell,code,out,err",
    [
        ("G enumerate --family boolean --n 7 | sha256sum", 0, f"{_BOOLEAN_7_DIGEST}  -\n", ""),
        ("FAIL_THM49=1 G poset-check --claim thm4.9 --n 3", 1, "thm4.9 n=3: FAIL\n",
         '{"claim": "thm4.9", "n": 3, "ok": false}\n'),
        ("TSSCPP_MAX_N=abc G enumerate --family asm --n 3 --count-only", 2, "",
         "error: TSSCPP_MAX_N must be an integer, got 'abc'\n"),
        ("G enumerate --family asm --n x", 2, "", _USAGE_ERROR),
        ("G enumerate --family boolean --n 7 | head -1 | cut -c 1-34", 2, '{"kind":"boolean_triangle","n":7,"\n', ""),
        ("G enumerate --family boolean --n 7 | head -0", 2, "", ""),
        ("G enumerate --family asm --n 3 --count-only >&-", 2, "", ""),
        ("ATEXIT_STDOUT=1 G enumerate --family boolean --n 3 --count-only", 0, "7\nwritten at exit\n", ""),
    ],
    ids=["exit-0", "exit-1", "cap-error", "usage-error", "head-1", "head-0", "closed-stdout", "atexit-stdout"],
)
def test_the_module_and_the_installed_script_end_the_process_alike(tmp_path, shell, code, out, err):
    """``python -m gogmagog`` and the script's function, called as pip's
    wrapper calls it, give the same bytes, exit code and stderr, whether the
    command ends at ``os._exit`` or (a usage error) at the normal exit; an
    atexit handler the child registered runs either way."""
    import os
    import subprocess
    import sys

    (tmp_path / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    env = {key: value for key, value in os.environ.items() if key not in ("PYTHONUNBUFFERED", "TSSCPP_MAX_N")}
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), *filter(None, [env.get("PYTHONPATH")])])
    env["COLUMNS"] = "80"
    module, name = _script_target()
    sides = {"module": f"{sys.executable} -m gogmagog \"$@\"",
             "script": f"{sys.executable} -c 'import sys; from {module} import {name}; sys.exit({name}())' \"$@\""}
    results = {}
    for side, command in sides.items():
        script = f'G() {{ {command}; }}\n{shell}\necho "exit ${{PIPESTATUS[0]}}"\n'
        result = subprocess.run(["bash", "-c", script], capture_output=True, text=True, env=env)
        results[side] = (result.stdout, result.stderr)
    assert results["module"] == results["script"]
    stdout, stderr = results["module"]
    assert (stdout, stderr) == (f"{out}exit {code}\n", f"{err}atexit ran")


@pytest.mark.parametrize("argv", list(golden_usage.USAGE), ids=" ".join)
def test_help_and_usage_errors_equal_the_recorded_output(capsys, monkeypatch, argv):
    """Each subcommand gets its arguments only when argv names it; the help
    of every command and the usage errors stay as they were."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exit:
        code = exit.code
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == golden_usage.USAGE[argv]


def test_the_first_subcommand_name_is_the_command_and_a_later_one_a_value(capsys):
    code, out, err = run_cli(capsys, "stats", "--kind", "permutation", "dist")
    assert (code, out, err) == (2, "", "error: permutation: 'dist' is not one-line notation\n")


# One well-formed argv per command, as its arguments: an option with its
# value, a bare flag, or the positional value.
_WELL_FORMED = {
    "enumerate": [["--family", "asm"], ["--n", "5"], ["--count-only"], ["--jsonl"]],
    "convert": [["--from", "permutation"], ["--to", "boolean"], ["312"]],
    "stats": [["--kind", "permutation"], ["312"]],
    "dist": [["--family", "asm"], ["--n", "3"], ["--statistic", "zeros"]],
    "poset": [["--name", "tamari"], ["--n", "3"], ["--out", "dot"]],
    "poset-check": [["--claim", "thm4.9"], ["--n", "3"]],
    "verify-all": [["--n", "2"]],
}
_N_VALUES = ["5", "05", "+5", "-5", "-0", "٥", "-٥", "²", "1_0", " 5", "5 ", "x", "", "9" * 4300, "9" * 4301]
# The values of _N_VALUES that are ASCII -?[0-9]+ within int()'s digit limit.
_INTEGERS = {"5": 5, "05": 5, "-5": -5, "-0": 0, "9" * 4300: int("9" * 4300)}
_CHOICE_VALUES = ["", "nope", "-x", "asm", "boolean", "permutation", "zeros", "json", "An", "thm4.4"]
_POSITIONAL_VALUES = ["", "-", "-312", "--", "dist", "{}", "3 1 2"]


def _grammar(command):
    """Argv around the command's well-formed one: every order of its
    arguments and every subset, then one argument changed at a time: given
    as --opt=value, abbreviated, repeated, its value replaced; -h, --help,
    unknown tokens, a command's name and -- at every position."""
    import itertools

    items = _WELL_FORMED[command]
    yield from ([command, *sum(order, [])] for order in itertools.permutations(items))
    for k in range(len(items)):
        yield from ([command, *sum(subset, [])] for subset in itertools.combinations(items, k))
    for i, item in enumerate(items):
        rest = [*items[:i], *items[i + 1 :]]
        variants = [item + item, item + [item[0], "5"]]
        if item[0].startswith("--"):
            variants += [[item[0][:k], *item[1:]] for k in range(3, len(item[0]))]
        if len(item) == 2:
            value = item[1]
            variants.append([f"{item[0]}={value}"] if item[0].startswith("--") else [value, "313"])
            values = _N_VALUES if item[0] == "--n" else _CHOICE_VALUES if item[0].startswith("--") else []
            variants += [[item[0], other] for other in values] + [[item[0]]]
        else:
            variants += [[other] for other in _POSITIONAL_VALUES]
        for variant in variants:
            yield [command, *sum(rest, []), *variant]
            yield [command, *variant, *sum(rest, [])]
    whole = [command, *sum(items, [])]
    for token in ("-h", "--help", "--bogus", "extra", "enumerate", "--"):
        yield from ([*whole[:k], token, *whole[k:]] for k in range(len(whole) + 1))


@pytest.mark.parametrize("command", list(_WELL_FORMED))
def test_the_strict_reader_returns_what_argparse_returns_or_refuses(capsys, command):
    """``_read`` accepts only plainly well-formed argv, every order of a
    command's well-formed arguments among them, and returns exactly the
    namespace of argparse's parser; argparse reads whatever it refuses."""
    import itertools

    from gogmagog import cli

    accepted = 0
    for argv in _grammar(command):
        fast = cli._read(argv)
        try:
            slow = vars(cli._build_parser(argv).parse_args(argv))
        except SystemExit:
            slow = None
        capsys.readouterr()
        assert fast is None or vars(fast) == slow, argv
        accepted += fast is not None
    orders = list(itertools.permutations(_WELL_FORMED[command]))
    assert all(cli._read([command, *sum(order, [])]) for order in orders)
    assert accepted > len(orders)


@pytest.mark.parametrize("value", _N_VALUES, ids=ascii)
def test_every_order_reader_takes_ascii_integers_only(capsys, monkeypatch, value):
    """``--n`` in the strict reader and in argparse, and ``TSSCPP_MAX_N``,
    read the same integers, and refuse the same texts with their messages."""
    from gogmagog import cli, enumeration

    argv = ["verify-all", "--n", value]
    fast = cli._read(argv)
    try:
        slow = cli._build_parser(argv).parse_args(argv).n
    except SystemExit:
        slow = None
        assert capsys.readouterr().err.endswith(f"error: argument --n: invalid int value: {value!r}\n")
    monkeypatch.setenv("TSSCPP_MAX_N", value)
    try:
        cap = enumeration._cap()
    except enumeration.CapExceeded as exc:
        cap = None
        assert str(exc) == f"TSSCPP_MAX_N must be an integer, got {value!r}"
    expected = _INTEGERS.get(value)
    assert (None if fast is None else fast.n, slow, cap) == (expected, expected, expected)


def test_the_package_resolves_its_names_on_first_access():
    import sys

    import gogmagog
    from gogmagog import triangles

    assert gogmagog.Permutation is triangles.Permutation and gogmagog.claims is sys.modules["gogmagog.claims"]
    assert all(hasattr(gogmagog, name) for name in gogmagog.__all__)
    assert not hasattr(gogmagog, "no_such_name")


@pytest.mark.parametrize(
    "name", ["bijections", "claims", "cli", "enumeration", "orders", "poset", "statistics", "triangles"]
)
def test_each_module_lists_exactly_the_public_functions_and_classes_it_defines(name):
    """``__all__`` names every public function and class the module defines
    and no other; ``claims``' checks are reached through ``CHECKS`` and
    ``CLAIMS`` instead."""
    import importlib
    import inspect

    module = importlib.import_module(f"gogmagog.{name}")
    defined = {
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
        and not (name == "claims" and attr.startswith("check_"))
    }
    values = {attr: getattr(module, attr) for attr in module.__all__}
    listed = [attr for attr, value in values.items() if inspect.isfunction(value) or inspect.isclass(value)]
    assert len(values) == len(module.__all__) and set(listed) == defined


def _imports(*argv):
    """The modules that ``python -X importtime -m gogmagog argv`` imports."""
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gogmagog", *argv], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return {line.rpartition("|")[2].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}


def _gogmagog_imports(*argv):
    """The package's modules among :func:`_imports`."""
    return {name for name in _imports(*argv) if name.startswith("gogmagog")}


def test_a_count_imports_only_the_search_and_its_maps():
    """No JSON is read or written, so no ``json`` either, and the argv is
    well-formed, so no ``argparse``."""
    imported = _imports("enumerate", "--family", "asm", "--n", "1", "--count-only")
    assert {name for name in imported if name.startswith("gogmagog")} == {
        "gogmagog", "gogmagog.cli", "gogmagog.enumeration", "gogmagog.bijections", "gogmagog.triangles"
    }
    assert not {name for name in imported if name == "json" or name.startswith("json.")}
    assert not imported & {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv",
    [
        ("poset-check", "--claim", "thm4.4", "--n", "3"),
        ("dist", "--family", "asm", "--n", "3", "--statistic", "inversions"),
        ("convert", "--from", "permutation", "--to", "boolean", "312"),
    ],
    ids=" ".join,
)
def test_a_well_formed_command_imports_no_argparse(argv):
    """Only help, usage errors and unusual argv build argparse's parser."""
    assert not _imports(*argv) & {"argparse", "gettext", "locale"}


def test_a_claim_imports_the_claims_and_what_they_build():
    imported = _gogmagog_imports("poset-check", "--claim", "thm4.9", "--n", "3")
    assert {"gogmagog.claims", "gogmagog.orders", "gogmagog.poset", "gogmagog.statistics"} <= imported


def _peak_rss(*argv):
    """``python tests/peak_rss.py argv``, its output captured."""
    import subprocess
    import sys
    from pathlib import Path

    script = str(Path(__file__).with_name("peak_rss.py"))
    return subprocess.run([sys.executable, script, *argv], capture_output=True, text=True)


@pytest.mark.parametrize("argv", [[], ["48"], ["abc", "true"], ["nan", "true"], ["", "true"]])
def test_peak_rss_prints_its_usage_on_bad_arguments(argv):
    """``tests/peak_rss.py`` without a numeric bound and a command exits 2
    with its usage line, and runs nothing."""
    result = _peak_rss(*argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "usage: python tests/peak_rss.py MIB COMMAND [ARG ...]\n"


def test_peak_rss_passes_the_exit_code_and_checks_the_bound():
    import sys

    codes = [_peak_rss(bound, sys.executable, "-c", f"raise SystemExit({code})").returncode
             for bound, code in (("1000", 0), ("1000", 3), ("0.001", 0), ("0.001", 3))]
    assert codes == [0, 3, 1, 3]
