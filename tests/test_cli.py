"""The command-line surface: flags, formats, determinism, and exit codes."""

import json

import pytest

import golden_data as gold
from gogmagog.cli import main
from gogmagog.triangles import from_json


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
    monkeypatch.setenv("TSSCPP_MAX_N", "3")
    code, out, err = run_cli(capsys, "verify-all", "--n", "4")
    lines = out.splitlines()
    assert code == 2 and lines[-1] == "30/43 checks passed"
    assert len(lines) == 44 and sum(line.endswith("n=4  CAP") for line in lines) == 13
    assert "FAIL" not in out
    assert err.splitlines()[0] == (
        "counts n=4: order 4 exceeds the cap 3 for asm (raise it with TSSCPP_MAX_N)"
    )
    assert len(err.splitlines()) == 13


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
    "name, n", [("weak", 8), ("strong", 8), ("Pn", 50), ("Qn", 50), ("tamari", 11), ("catalan", 11)]
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
    assert err.count("\n") == 1 and err.startswith("error: componentwise poset on ")


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
    examples (see cli_transcript.py)."""
    import functools

    import cli_transcript
    import golden_cli
    from gogmagog import cli

    # One parser serves every run; building it is most of a short run's time.
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
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
    assert result.stderr == f"error: componentwise poset of order {argv[-1]} exceeds 20000 elements\n"
