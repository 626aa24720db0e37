"""Closed-loop benchmark of the versalp command line, one client, in process.

    python3 bench/run.py --workload homotopy-p2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

The seed expands into a list of CLI argv queries (workloads.py). Each query
runs through ``versalp.cli.main`` in this process with stdout captured, and
each report is checked (checks.py) outside the timed region; the list is
repeated in whole passes for up to ``--seconds``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports per-layer ones from spans recorded
around calls into each layer (tracing.py). Metric names and units come from
BENCHMARK.json. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the run and its spans are also
written under bench/results/. ``--workload all`` runs every workload, each
in its own process, and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing
from workloads import SETUP_ARGV, WORKLOADS, queries

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
EXPECTED = BENCH / "expected.json"

SETUP_LAUNCHES = 15
WARMUP_REPORTS = 3

# Seconds ``reference`` takes, Python 3.11, on the 2-core x86-64 machine the
# benchmark was tuned on, while nothing else slows that machine down.
REFERENCE_S = 0.0055


class _Node:
    __slots__ = ("degree", "label")

    def __init__(self, degree: int, label: int):
        self.degree = degree
        self.label = label


def reference() -> int:
    """Fixed pure-Python work of the kinds versalp does: big-integer
    arithmetic on lists, and building small objects, tuples, dicts and
    strings.

    The machine's speed drifts by as much as half, for stretches of seconds
    to minutes, whatever code runs; timing this next to every report measures
    that drift, and report times are scaled to the speed at which this takes
    REFERENCE_S.
    """
    acc, x = 0, 1
    row = [0] * 64
    for i in range(10000):
        x = (x * 6364136223846793005 + 1442695040888963407) & ((1 << 127) - 1)
        row[i & 63] += x >> 100
        acc ^= row[(i * 7) & 63]
    nodes, labels = [], {}
    for i in range(4000):
        node = _Node(i, (i * 7919) % 1000)
        nodes.append(node)
        labels[(node.label, i & 15)] = f"Q^{node.degree} a"
    return acc ^ len(",".join(labels.values())) ^ len(nodes)


def time_reference() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


class Tally:
    """Outcomes of the reports of one measured loop.

    Each report's seconds are scaled by REFERENCE_S over the mean of the
    reference times measured just before and just after it.
    """

    def __init__(self):
        self.latencies: list[float] = []  # scaled seconds; inf for a failed report
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0  # wall seconds inside reports
        self.scaled_s = 0.0  # the same, scaled
        self.output_bytes = 0
        self.failures: list[str] = []
        self._reference_s = time_reference()

    def add(self, argv, elapsed: float, reason: "str | None", output_bytes: int) -> None:
        after = time_reference()
        scaled = elapsed * REFERENCE_S * 2 / (self._reference_s + after)
        self._reference_s = after
        self.attempted += 1
        self.timed_s += elapsed
        self.scaled_s += scaled
        self.output_bytes += output_bytes
        if reason is not None:
            # A failed report never counts as a fast one.
            scaled = math.inf
            self.failed += 1
            self.failures.append(f"{checks.query_key(argv)}: {reason}")
        self.latencies.append(scaled)

    def rate(self) -> float:
        """Correct reports per scaled second of timed wall time."""
        return (self.attempted - self.failed) / self.scaled_s

    def speed(self) -> float:
        """How much faster than the reference speed the machine ran."""
        return self.timed_s and self.scaled_s / self.timed_s


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile of ``values`` and how many lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_report(main, argv) -> tuple[float, object, bytes]:
    """Seconds taken, exit status and stdout bytes of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # the program crashing is a failed report
            status = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed, status, out.getvalue().encode("utf-8")


def run_cycle(qs, main, checker, tally: Tally) -> None:
    for argv in qs:
        gc.collect()
        elapsed, status, stdout = run_report(main, argv)
        tally.add(argv, elapsed, checker.check(argv, status, stdout), len(stdout))


def run_cycles(qs, main, checker, seconds: float) -> Tally:
    """Run all of ``qs`` once, and again while another pass as long as the
    last still fits in ``seconds``. Whole passes weigh every query alike, so
    the mix measured is the same in every run of a seed, and per-report
    counts repeat exactly."""
    tally = Tally()
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        run_cycle(qs, main, checker, tally)
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            return tally


def measure_setup(checker) -> Tally:
    """Fresh interpreters answering the smallest report, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    tally = Tally()
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "versalp.cli", *SETUP_ARGV], cwd=ROOT,
                                  env=env, capture_output=True, timeout=60)
            status, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            status, stdout = "timeout", b""
        tally.add(SETUP_ARGV, perf_counter() - start, checker.check(SETUP_ARGV, status, stdout),
                  len(stdout))
    return tally


def end_to_end(args, qs, checker) -> tuple[dict, list[Tally], dict]:
    from versalp import cli

    setup = measure_setup(checker)
    run_cycle(qs[:WARMUP_REPORTS], cli.main, checker, Tally())
    tally = run_cycles(qs, cli.main, checker, args.seconds)
    p50, above50 = percentile(tally.latencies, 0.5)
    p90, above90 = percentile(tally.latencies, 0.9)
    metrics = {
        "setup_s": (statistics.median(setup.latencies), "s"),
        "report_s.p50": (p50, "s"),
        "report_s.p90": (p90, "s"),
        "reports_per_s": (tally.rate(), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "setup_s": {"launches": setup.attempted, "speed": setup.speed()},
        "report_s.p50": {"reports": tally.attempted, "above": above50},
        "report_s.p90": {"reports": tally.attempted, "above": above90},
        "reports_per_s": {"reports": tally.attempted, "wall_s": tally.timed_s, "speed": tally.speed()},
    }
    return metrics, [setup, tally], samples


def per_layer(args, qs, checker) -> tuple[dict, list[Tally], dict]:
    from versalp import cli

    run_cycle(qs[:WARMUP_REPORTS], cli.main, checker, Tally())
    untraced = run_cycles(qs, cli.main, checker, args.seconds / 2)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as traced_main:
        traced = run_cycles(qs, traced_main, checker, args.seconds / 2)
    RESULTS.mkdir(exist_ok=True)
    tracer.write_spans(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")
    metrics = tracing.metrics(tracer, traced.speed(), traced.output_bytes, untraced.rate() / traced.rate())
    samples = {"traced_reports": traced.attempted, "untraced_reports": untraced.attempted,
               "spans": len(tracer.spans), "speed": traced.speed()}
    print_split(tracer, WORKLOADS[args.workload])
    return metrics, [untraced, traced], samples


def print_split(tracer: tracing.Tracer, workload) -> None:
    self_s, calls = tracer.self_times()
    total = sum(self_s.values())
    print(f"# self time by layer, {tracer.reports} traced reports, {total:.3f} s in all")
    print(f"#   {'layer':<40} {'share':>7} {'calls/report':>13}")
    for layer, names in tracing.LAYERS.items():
        share = sum(self_s[s] for s in names) / total
        print(f"#   {layer:<40} {share:>7.1%}")
        for s in names:
            print(f"#     {s:<38} {self_s[s] / total:>7.1%} {calls[s] / tracer.reports:>13.2f}")
    names, floor = workload.dominant
    share = sum(self_s[s] for s in names) / total
    verdict = "holds" if share >= floor else "does not hold"
    print(f"# expected split: {' + '.join(names)} >= {floor:.0%} of self time: {share:.1%}, {verdict}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args) -> int:
    checker = checks.Checker(checks.load_expected(EXPECTED))
    qs = queries(WORKLOADS[args.workload], args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, tallies, samples = measure(args, qs, checker)

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    emitted = {}
    for spec in listed:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} is measured in {unit}, BENCHMARK.json says {spec['unit']}")
        emitted[spec["name"]] = {"value": value, "unit": unit}
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": emitted}
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "python": platform.python_version(), "git_sha": git_sha(),
           "nproc": len(os.sched_getaffinity(0)), "queries": len(qs), "reports": attempted}

    for t in tallies:
        for failure in t.failures[:5]:
            print(f"failed: {failure}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# samples: {json.dumps(samples)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(f"{'fail_ratio':<48} {failed / attempted:>14.6g} ratio")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"env": env, "samples": samples, "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            return 1
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    first = next(iter(results.values()))
    print(f"{'metric':<40} {'unit':<6}" + "".join(f" {w:>14}" for w in results))
    for m, spec in first["metrics"].items():
        unit = spec["unit"]
        print(f"{m:<40} {unit:<6}" + "".join(f" {r['metrics'][m]['value']:>14.6g}" for r in results.values()))
    print(f"{'fail_ratio':<40} {'ratio':<6}"
          + "".join(f" {r['failed'] / r['attempted']:>14.6g}" for r in results.values()))
    print(json.dumps(results))
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


if __name__ == "__main__":
    args = parse_args()
    if not (SRC / "versalp" / "cli.py").is_file():
        sys.exit(f"bench: no versalp sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.exit(run_all(args) if args.workload == "all" else run_workload(args))
