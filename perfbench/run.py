"""End-to-end benchmark of the gogmagog command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

Every operation is a fresh ``python -m gogmagog ...`` child process, run one at
a time: a closed loop with one client, so nothing queues and the run adds no
parallel load.  A fresh process is what a command-line user pays for, and it
starts the family cache of ``enumeration`` cold.  A workload is a fixed list of
operations; every input is an exhaustive enumeration, so the seed only
shuffles the order of the operations within each pass.  Each operation's
stdout and exit code are checked against an oracle of this file's own, which
calls nothing in ``gogmagog``.

The benchmark and every child it starts run on one CPU, next to ``probe.py``,
which times a fixed piece of work on that CPU every 80 ms.  Each operation's
seconds are scaled by the probe's speed during that operation, to what they
would be at the probe's reference speed: the host is shared, and the speed of
one CPU drifts by a third over minutes, which no median over one run removes.

``--trace 0`` measures set-up time, then repeats passes over the workload for
``--seconds`` (at least one pass), and reports the end-to-end metrics.
``--trace 1`` runs one plain pass and one pass through ``traced.py``, which
times every public function of the package, and reports the per-layer
metrics.  Both print a readable report, and as the last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The metric names and units
come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED = HERE / "traced.py"
PROBE = HERE / "probe.py"
# About the fewest CPU seconds probe.py's fixed work took on the reference
# machine (2-CPU Xeon at 2.1 GHz, Python 3.11), so that adjusted seconds read
# as seconds of a quiet CPU.  Adjusted seconds are raw seconds times
# PROBE_REF_S over the probe's mean cost meanwhile.
PROBE_REF_S = 0.0015
# Probe samples this far outside an operation still count for it, so that a
# set-up run of 0.15 s sees a few of them.
PROBE_MARGIN_S = 0.1
SETUP_PROBES_PER_OP = 2
# Every run must end within 180 s; a child still running at this point of the
# run is killed and counts as failed.
RUN_DEADLINE_S = 170.0
KEEP_STDOUT = 1 << 20


def asm_count(n):
    """Number of n x n alternating sign matrices: prod_k (3k+1)! / (n+k)!."""
    num = math.prod(math.factorial(3 * k + 1) for k in range(n))
    den = math.prod(math.factorial(n + k) for k in range(n))
    return num // den


def family_size(family, n):
    if family in ("permutation", "permutation-boolean"):
        return math.factorial(n)
    return asm_count(n)


# -- output oracles: each returns None when the output is right --------------


def expect_count(total):
    def check(out):
        return None if out.text() == f"{total}\n" else f"expected count {total}"

    return check


def expect_jsonl(lines, sha256):
    def check(out):
        if out.lines != lines:
            return f"expected {lines} lines, got {out.lines}"
        if out.sha256 != sha256:
            return f"stdout sha256 {out.sha256} differs from the recorded {sha256}"
        return None

    return check


def expect_distribution(statistic, n, total):
    def check(out):
        try:
            data = json.loads(out.text())
            counts = list(data["counts"].values())
            ok = data["statistic"] == statistic and data["n"] == n
        except (ValueError, KeyError, TypeError, AttributeError):
            return "stdout is not a distribution object"
        if not ok or not all(isinstance(c, int) and c > 0 for c in counts):
            return "malformed distribution"
        return None if sum(counts) == total else f"counts sum to {sum(counts)}, not {total}"

    return check


def expect_pass(claim, n):
    def check(out):
        return None if out.text() == f"{claim} n={n}: PASS\n" else "claim did not PASS"

    return check


def expect_all_checks(rows):
    def check(out):
        lines = out.text().splitlines()
        if not lines or lines[-1] != f"{rows}/{rows} checks passed":
            return f"last line is not '{rows}/{rows} checks passed'"
        if any(not line.endswith("PASS") for line in lines[:-1]):
            return "a row did not PASS"
        return None

    return check


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    name: str
    args: tuple
    check: object


# The smallest command: interpreter start, import gogmagog (numpy included)
# and argument parsing.
SETUP = Op("setup", ("enumerate", "--family", "asm", "--n", "1", "--count-only"), expect_count(1))


def _count_op(workload, family, n):
    return Op(
        f"{workload}.{family}-{n}",
        ("enumerate", "--family", family, "--n", str(n), "--count-only"),
        expect_count(family_size(family, n)),
    )


COUNT_FAMILIES = (
    ("asm", 7),
    ("boolean", 7),
    ("monotone", 6),
    ("magog", 6),
    ("nilp", 6),
    ("tsscpp", 6),
    ("permutation", 8),
    ("permutation-boolean", 8),
)

# The largest n at which each claim passes on this code; see README.md for
# the limits above it.
CLAIM_N = {
    "thm4.2": 5,
    "thm4.6": 5,
    "thm4.4": 6,
    "thm4.9": 6,
    "thm4.12": 6,
    "cor4.16": 6,
    "cor4.17": 6,
    "lemma4.8": 6,
    "prop-nonlattice": 6,
}
VERIFY_ALL_N = 5
# verify-all prints counts, factorial, statistics and round-trip rows for
# k = 1..n and one row per claim for k = 2..n.
VERIFY_ALL_ROWS = 4 * VERIFY_ALL_N + len(CLAIM_N) * (VERIFY_ALL_N - 1)

WORKLOADS = {
    "count": tuple(_count_op("count", family, n) for family, n in COUNT_FAMILIES),
    "export": (
        Op(
            "export.boolean-7",
            ("enumerate", "--family", "boolean", "--n", "7", "--jsonl"),
            expect_jsonl(
                asm_count(7), "c1732c22dbe21332c8b26a1f375b8215b799ecb6895e63ab50228d32fdb2b22d"
            ),
        ),
        Op(
            "export.tsscpp-6",
            ("enumerate", "--family", "tsscpp", "--n", "6", "--jsonl"),
            expect_jsonl(
                asm_count(6), "5500ce05da316c5be64fcd0222d31abed527fabc79faca9dc75cc2c31e9b40b6"
            ),
        ),
        Op(
            "export.dist-asm-6-inversions",
            ("dist", "--family", "asm", "--n", "6", "--statistic", "inversions"),
            expect_distribution("inversions", 6, family_size("asm", 6)),
        ),
        Op(
            "export.dist-permutation-boolean-8-zeros",
            ("dist", "--family", "permutation-boolean", "--n", "8", "--statistic", "zeros"),
            expect_distribution("zeros", 8, family_size("permutation-boolean", 8)),
        ),
    ),
    "claims": tuple(
        Op(f"claims.{claim}-{n}", ("poset-check", "--claim", claim, "--n", str(n)), expect_pass(claim, n))
        for claim, n in CLAIM_N.items()
    )
    + (
        Op(
            f"claims.verify-all-{VERIFY_ALL_N}",
            ("verify-all", "--n", str(VERIFY_ALL_N)),
            expect_all_checks(VERIFY_ALL_ROWS),
        ),
    ),
}

# Layers each workload is meant to load; the traced run fails its self-test
# when one of them records no calls.
LOADED_LAYERS = {
    "count": ("cli", "enumeration", "triangles", "bijections"),
    "export": ("cli", "enumeration", "triangles", "bijections", "statistics"),
    "claims": ("cli", "enumeration", "triangles", "bijections", "statistics", "poset", "orders", "claims"),
}


# -- running one child --------------------------------------------------------


@dataclass
class Output:
    returncode: int
    started: float  # time.monotonic(), to match the probe's samples
    ended: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    sha256: str
    lines: int
    head: bytes
    stderr: str

    def text(self):
        return self.head.decode("utf-8", "replace")


def run_child(argv, env, scratch, deadline):
    """Run one child to completion; CPU time and peak RSS come from wait4 on
    that child alone, so they do not depend on the other operations."""
    err_path = Path(scratch) / "stderr.txt"
    digest = hashlib.sha256()
    lines = 0
    head = bytearray()
    with open(err_path, "wb") as err:
        started = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        # os.kill, not Popen.kill: Popen polls first, and that poll could reap
        # the child before wait4 sees it.
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill, (proc.pid,))
        killer.start()
        try:
            while chunk := proc.stdout.read(1 << 16):
                digest.update(chunk)
                lines += chunk.count(b"\n")
                if len(head) < KEEP_STDOUT:
                    head += chunk
        except BaseException:
            _kill(proc.pid)
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            ended = time.monotonic()
            killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Output(
        returncode=proc.returncode,
        started=started,
        ended=ended,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        sha256=digest.hexdigest(),
        lines=lines,
        head=bytes(head),
        stderr=err_path.read_text(errors="replace")[-500:],
    )


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class SpeedProbe:
    """probe.py running on the benchmark's CPU, and the samples it wrote."""

    def __init__(self, scratch):
        path = Path(scratch) / "probe.txt"
        path.touch()
        self.file = open(path)
        self.partial = ""
        self.samples = []  # (time.monotonic(), CPU seconds of the fixed work)
        self.proc = subprocess.Popen([sys.executable, str(PROBE), str(path)], cwd=ROOT)

    def speed(self, started, ended):
        """PROBE_REF_S over the probe's mean cost from ``started`` to ``ended``:
        above 1 when the CPU ran faster than the reference, below when slower."""
        lines = (self.partial + self.file.read()).split("\n")
        self.partial = lines.pop()
        self.samples += [tuple(map(float, line.split())) for line in lines]
        self.samples = [s for s in self.samples if s[0] >= started - PROBE_MARGIN_S]
        costs = [cost for t, cost in self.samples if t <= ended + PROBE_MARGIN_S]
        if not costs:
            raise SystemExit(f"perfbench: the speed probe wrote nothing (exit code {self.proc.poll()})")
        return PROBE_REF_S / statistics.fmean(costs)

    def close(self):
        self.proc.terminate()
        self.proc.wait()
        self.file.close()


@dataclass
class Result:
    op: Op
    out: Output
    error: str | None
    speed: float
    stats: dict | None = None

    @property
    def adj_wall_s(self):
        return self.out.wall_s * self.speed

    @property
    def adj_cpu_s(self):
        return self.out.cpu_s * self.speed


class Runner:
    def __init__(self, scratch, deadline, probe):
        self.scratch = scratch
        self.deadline = deadline
        self.probe = probe
        self.env = child_environment()
        self.results = []

    def run(self, op, traced=False):
        if traced:
            stats = Path(self.scratch) / "stats.json"
            stats.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACED), str(stats), *op.args]
        else:
            argv = [sys.executable, "-m", "gogmagog", *op.args]
        out = run_child(argv, self.env, self.scratch, self.deadline)
        if out.returncode != 0:
            error = f"exit code {out.returncode}: {out.stderr.strip()[-200:]}"
        else:
            error = op.check(out)
        result = Result(op, out, error, self.probe.speed(out.started, out.ended))
        if traced and stats.exists():
            result.stats = json.loads(stats.read_text())
        self.results.append(result)
        return result

    def run_pass(self, ops, rng, traced=False, setup_probes=0):
        """One pass over the operations in seeded order; before each one,
        ``setup_probes`` runs of the set-up command."""
        order = list(ops)
        rng.shuffle(order)
        results = []
        for op in order:
            for _ in range(setup_probes):
                self.run(SETUP)
            results.append(self.run(op, traced))
        return results


def child_environment():
    env = dict(os.environ)
    # TSSCPP_MAX_N overrides every enumeration cap; bytecode must be cached
    # as it is for an installed package; hash order is fixed for repeatability;
    # the children share one CPU, where a second BLAS thread only waits.
    env.pop("TSSCPP_MAX_N", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


ENV_PROBE = """
import json, os, sys, numpy, gogmagog
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": f"{blas['name']} {blas['version']}",
    "package": gogmagog.__file__,
}))
"""


def environment(child_env, nproc):
    """What the numbers depend on; the probe also compiles the bytecode cache
    before anything is timed."""
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], cwd=ROOT, env=child_env, capture_output=True, text=True
    )
    if probe.returncode != 0:
        raise SystemExit(f"perfbench: cannot import gogmagog from {SRC}:\n{probe.stderr}")
    env = json.loads(probe.stdout)
    if Path(env.pop("package")).parent.parent != SRC:
        raise SystemExit(f"perfbench: gogmagog was not imported from {SRC}")
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or sha
    env.update(
        git_sha=sha,
        nproc=nproc,
        pinned_to_cpu=sorted(os.sched_getaffinity(0)),
        blas_threads={k: child_env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        TSSCPP_MAX_N="removed from the child environment"
        + (f" (was {os.environ['TSSCPP_MAX_N']!r})" if "TSSCPP_MAX_N" in os.environ else " (was unset)"),
        PYTHONHASHSEED=child_env["PYTHONHASHSEED"],
        probe_ref_s=PROBE_REF_S,
    )
    return env


# -- reports ------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_ops(results, label):
    by_op = {}
    for r in results:
        by_op.setdefault(r.op.name, []).append(r)
    print(f"{label}: op_s per operation, adjusted (raw), median of {len(results) // max(1, len(by_op))} runs")
    for name in sorted(by_op):
        rs = by_op[name]
        wall = statistics.median(r.adj_wall_s for r in rs)
        raw = statistics.median(r.out.wall_s for r in rs)
        cpu = statistics.median(r.adj_cpu_s for r in rs)
        speed = statistics.median(r.speed for r in rs)
        rss = max(r.out.peak_rss_mb for r in rs)
        bad = [r.error for r in rs if r.error]
        status = "ok" if not bad else "FAILED: " + bad[0]
        print(
            f"  op_s.{name:<40} {wall:8.3f} s ({raw:7.3f} s)  cpu {cpu:8.3f} s  "
            f"speed {speed:5.3f}  rss {rss:7.1f} MiB  {status}"
        )


def end_to_end(workload, runner, seconds, rng):
    """Passes over the workload until ``seconds`` would run out, at least one.
    The set-up probes are spread over the whole run, so that they see the
    same machine as the operations do."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(map(pass_wall, passes)) <= seconds:
        passes.append(runner.run_pass(WORKLOADS[workload], rng, setup_probes=SETUP_PROBES_PER_OP))
    setups = [r for r in runner.results if r.op is SETUP]
    print_ops([r for p in passes for r in p], "plain")
    samples = {
        "wall_s": [pass_adjusted(p) for p in passes],
        "setup_s": [r.adj_wall_s for r in setups],
        "cpu_s": [sum(r.adj_cpu_s for r in p) for p in passes],
    }
    raw = {
        "wall_s": [pass_wall(p) for p in passes],
        "setup_s": [r.out.wall_s for r in setups],
        "cpu_s": [sum(r.out.cpu_s for r in p) for p in passes],
    }
    for name, values in samples.items():
        lo, hi = quartiles(values)
        print(
            f"{name} samples: {len(values)}, adjusted quartiles {lo:.4f} .. {hi:.4f} s, "
            f"raw median {statistics.median(raw[name]):.4f} s"
        )
    print(f"CPU speed over the run, as a share of the reference: median {statistics.median(r.speed for r in runner.results):.3f}")
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = max(r.out.peak_rss_mb for p in passes for r in p)
    return values


def pass_wall(results):
    return sum(r.out.wall_s for r in results)


def pass_adjusted(results):
    return sum(r.adj_wall_s for r in results)


def merge_stats(results):
    spans = {}
    merged = {"spans": spans, "max_poset_elements": 0, "hits": 0, "misses": 0, "unwrapped": set()}
    for r in results:
        stats = r.stats
        if stats is None:
            continue
        if Path(stats["package"]).parent.parent != SRC:
            merged["unwrapped"].add(f"package imported from {stats['package']}")
        for name, (calls, total, own, yields) in stats["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
            acc[3] += yields
        merged["max_poset_elements"] = max(merged["max_poset_elements"], stats["max_poset_elements"])
        merged["hits"] += stats["family_cache"]["hits"]
        merged["misses"] += stats["family_cache"]["misses"]
        merged["unwrapped"].update(stats["unwrapped"])
    return merged


def layer_metrics(merged, overhead, traced_wall):
    spans = merged["spans"]
    values = {
        "enumeration.objects": spans.get("enumeration.generate", (0, 0, 0, 0))[3],
        "enumeration.family_cache.hits": merged["hits"],
        "enumeration.family_cache.misses": merged["misses"],
        "poset.max_elements": merged["max_poset_elements"],
        # Seconds in the claim logic: run_claim and the check functions it
        # dispatches to, without the calls they make into other layers.
        "claims.run_claim.self_s": sum(
            s[2] for name, s in spans.items() if name == "claims.run_claim" or name.startswith("claims.check_")
        ),
        "trace.overhead": overhead,
        "trace.wall_s": traced_wall,
    }
    for name, (calls, total, own, _) in spans.items():
        values.setdefault(f"{name}.calls", calls)
        values.setdefault(f"{name}.self_s", own)
        values.setdefault(f"{name}.us_per_call", 1e6 * total / calls if calls else 0.0)
    return values


def per_layer(workload, runner, rng):
    """One plain pass and one traced pass in the same order; returns the
    layer metrics and the self-test failures."""
    ops = WORKLOADS[workload]
    order_seed = rng.random()
    plain = runner.run_pass(ops, random.Random(order_seed))
    traced = runner.run_pass(ops, random.Random(order_seed), traced=True)
    plain_wall, traced_wall = pass_adjusted(plain), pass_adjusted(traced)
    merged = merge_stats(traced)
    problems = [f"still unwrapped: {ref}" for ref in sorted(merged["unwrapped"])]
    problems += [f"{r.op.name}: traced run wrote no stats" for r in traced if r.stats is None]
    plain_digest = {r.op.name: r.out.sha256 for r in plain}
    problems += [
        f"{r.op.name}: traced stdout differs from the plain run"
        for r in traced
        if r.out.sha256 != plain_digest[r.op.name]
    ]
    for layer in LOADED_LAYERS[workload]:
        if not any(s[0] for name, s in merged["spans"].items() if name.startswith(layer + ".")):
            problems.append(f"layer {layer} recorded no calls on workload {workload}")
    print_ops(plain, "plain")
    print_ops(traced, "traced")
    overhead = traced_wall / plain_wall
    print(f"tracing overhead: traced {traced_wall:.3f} s / plain {plain_wall:.3f} s (adjusted) = {overhead:.3f}")
    print("spans (calls, self seconds, microseconds per call):")
    for name, (calls, total, own, _) in sorted(merged["spans"].items()):
        if calls:
            print(f"  {name:<48} {calls:>9}  {own:10.4f} s  {1e6 * total / calls:12.2f} us")
    return layer_metrics(merged, overhead, traced_wall), problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "gogmagog" / "__main__.py").is_file():
        print(f"perfbench: no gogmagog sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    rng = random.Random(args.seed)
    # One CPU for the benchmark, its children and the probe: the CPUs of a
    # shared host change speed independently, so the probe must share the
    # CPU it measures.  The last one takes fewer device interrupts.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        probe = SpeedProbe(scratch)
        try:
            runner = Runner(scratch, deadline, probe)
            env = environment(runner.env, len(cpus))
            print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
            print("environment: " + json.dumps(env, sort_keys=True))
            if args.trace:
                values, problems = per_layer(args.workload, runner, rng)
            else:
                values, problems = end_to_end(args.workload, runner, args.seconds, rng), []
        finally:
            probe.close()

    failed = [r for r in runner.results if r.error]
    attempted = len(runner.results)
    for r in failed:
        print(f"FAILED {r.op.name}: {r.error}")
    for problem in problems:
        print(f"SELF-TEST FAILED {problem}")
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise SystemExit(f"perfbench: BENCHMARK.json names {metric['name']}, which this run does not measure")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        if not args.trace:
            print(f"{metric['name']:<12} {values[metric['name']]:.4f} {metric['unit']}")
    print(f"{'failed_ratio':<12} {len(failed) / attempted:.4f} ratio ({len(failed)} of {attempted} operations)")
    print(
        json.dumps(
            {
                "correct": not failed and not problems,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
