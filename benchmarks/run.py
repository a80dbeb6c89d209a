"""oretower benchmark: one workload, one seed, checked answers, JSON result.

    python3 benchmarks/run.py --workload products --seed 1 --seconds 25 --trace 0

A run is single-process and single-threaded: a closed loop with one caller.
It times set-up (import, towers, inputs) several times and reports the
median, runs one untimed warm-up pass that also fills the towers' memo
tables, then runs whole passes over the workload's ops until ``--seconds``
have elapsed.  Every op is timed between two probes (probe.py) and its time
normalised to the probe; an op's time is its median over the passes.  Every
answer is checked; ops with a wrong answer, an exception or an unexpected
exit code count as failed.

With ``--trace 1`` the same timed passes are followed by one pass with
spans around the package's public calls, and by the microbenchmarks in
micro.py; the result then holds the per-layer metrics.  The last line of
standard output is the JSON result; the full result, with the environment,
is also written under benchmarks/results/.  NOTES.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 11


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(root),
    }


def fresh_import():
    for name in [n for n in sys.modules if n == "oretower" or n.startswith("oretower.")]:
        del sys.modules[name]
    return importlib.import_module("oretower")


def timed_setup(setup, seed: int):
    """Import the package and build the inputs SETUP_REPEATS times.

    Returns the package, the ops, and the median normalised and wall times.
    """
    wall, normalised = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = probe.probe()
        start = time.perf_counter()
        ot = fresh_import()
        ops = setup(ot, seed, ROOT)
        elapsed = time.perf_counter() - start
        wall.append(elapsed)
        normalised.append(elapsed * probe.scale(before, probe.probe()))
    return ot, ops, statistics.median(normalised), statistics.median(wall)


class Runner:
    """Runs ops, checks answers and keeps the tallies of the measured passes.

    Every op is timed between two probes (probe.py); its time is kept both
    as wall time and normalised to the probe.
    """

    def __init__(self, tracer=None):
        self.answers = {}  # op key -> (fingerprint, problem) from the first pass
        self.correct = True
        self.tracer = tracer
        self.reset()

    def reset(self):
        self.failures = {}  # description -> count
        self.attempted = 0
        self.failed = 0
        self.times = {}  # op key -> [(wall s, normalised s)] for every run
        self.scales = []  # probe scale factor of every run
        self.failed_keys = set()
        self.report_bytes = 0

    def run(self, op, op_id: int) -> None:
        if self.tracer is not None:
            self.tracer.op = op_id
        before = probe.probe()
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # any failure of the program is counted, not fatal
            self._record(op, time.perf_counter() - start, before)
            known = op.known_failure is not None and isinstance(exc, op.known_failure)
            label = "known" if known else "unexpected"
            self._fail(op, f"{label} {type(exc).__name__}: {op.key}", known)
            return
        self._record(op, time.perf_counter() - start, before)
        fingerprint = op.fingerprint(out)
        if op.key not in self.answers:
            self.answers[op.key] = (fingerprint, op.check(out))
        first, problem = self.answers[op.key]
        if problem is None and fingerprint != first:
            problem = "answer differs from the first pass"
        if problem is not None:
            self._fail(op, f"wrong answer: {op.key}: {problem}", False)
            return
        self.report_bytes += op.report_bytes(out)

    def _record(self, op, elapsed: float, before: float) -> None:
        if self.tracer is not None:
            self.tracer.end_op()
        factor = probe.scale(before, probe.probe())
        self.scales.append(factor)
        self.attempted += 1
        self.times.setdefault(op.key, []).append((elapsed, elapsed * factor))

    def _fail(self, op, description: str, known: bool) -> None:
        self.correct = self.correct and known
        self.failures[description] = self.failures.get(description, 0) + 1
        self.failed += 1
        self.failed_keys.add(op.key)

    def per_op(self, normalised: bool = True) -> dict:
        """Median time of each op over its runs."""
        return {
            key: statistics.median(run[normalised] for run in runs)
            for key, runs in self.times.items()
        }

    def latencies(self, normalised: bool = True) -> list:
        """Sorted per-op times of the ops that never failed."""
        per_op = self.per_op(normalised)
        return sorted(t for key, t in per_op.items() if key not in self.failed_keys)

    def ops_per_s(self, normalised: bool = True) -> float:
        """Checked ops per second of op time; failed ops' time is included."""
        total = sum(self.per_op(normalised).values())
        return len(self.latencies(normalised)) / total if total else 0.0


def run_passes(runner: Runner, ops: list, rng: random.Random, seconds: float) -> int:
    """Whole shuffled passes until `seconds` have elapsed; returns the pass count."""
    passes = 0
    deadline = time.perf_counter() + seconds
    op_id = 0
    while passes == 0 or time.perf_counter() < deadline:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            runner.run(op, op_id)
            op_id += 1
        passes += 1
    return passes


def end_to_end(runner: Runner, setup_s: float, normalised: bool = True) -> dict:
    lat = runner.latencies(normalised)
    return {
        "ops_per_s": (runner.ops_per_s(normalised), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_ratio": (runner.failed / runner.attempted, "1"),
    }


def group_ms(runner: Runner, ops: list) -> dict:
    """Sum of the per-op normalised times, per tower or fixture, in ms."""
    per_op = runner.per_op()
    out = {}
    for op in ops:
        out[op.group] = out.get(op.group, 0.0) + per_op[op.key] * 1e3
    return out


def traced_pass(ot, ops: list, runner: Runner, seed: int):
    """One traced pass over every op; returns (per-layer metrics, tracer)."""
    import micro
    import tracing

    untraced_ops_per_s = runner.ops_per_s()
    tracer = tracing.Tracer()
    traced = Runner(tracer)
    traced.answers = runner.answers  # traced answers must match untraced ones
    restore = tracing.install(tracer)
    try:
        run_passes(traced, ops, random.Random(f"trace:{seed}"), 0)
    finally:
        restore()
    runner.attempted += traced.attempted
    runner.failed += traced.failed
    runner.correct = runner.correct and traced.correct
    for description, count in traced.failures.items():
        runner.failures[description] = runner.failures.get(description, 0) + count

    # span times are wall times; scale them like the op times
    factor = statistics.median(traced.scales)
    metrics = {
        name: (value * factor if unit == "s" else value, unit)
        for name, (value, unit) in tracing.per_layer(tracer).items()
    }
    metrics["cli.json_bytes"] = (traced.report_bytes, "B")
    metrics["trace.overhead_ratio"] = (untraced_ops_per_s / traced.ops_per_s(), "1")
    metrics.update(micro.all_metrics(ot, seed))
    return metrics, tracer


def write_spans(path: Path, tracer) -> None:
    names = sorted({span[1] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    with path.open("w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["id", "name", "start", "end", "parent", "op"],
                "names": names,
                "spans": [
                    [s[0], index[s[1]], round(s[2], 9), round(s[3], 9), s[4], s[5]]
                    for s in tracer.spans
                ],
                "total_spans": tracer.next_id,
                "kept_spans": len(tracer.spans),
                "unbalanced_ops": tracer.unbalanced,
            },
            fh,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oretower" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'oretower'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "fixtures").is_dir():
        print(f"error: no fixture towers at {ROOT / 'tests' / 'fixtures'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.SETUPS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = environment(ROOT)
    ot, ops, setup_s, setup_wall_s = timed_setup(workloads.SETUPS[args.workload], args.seed)
    rng = random.Random(args.seed)
    runner = Runner()
    run_passes(runner, ops, rng, 0)  # warm-up: fills memo tables, checks answers
    runner.reset()
    passes = run_passes(runner, ops, rng, args.seconds)
    samples = len(runner.latencies())
    wall = end_to_end(runner, setup_wall_s, normalised=False)
    probe_ms = statistics.median(probe.REFERENCE_S / f for f in runner.scales) * 1e3
    group = group_ms(runner, ops)
    if args.trace:
        metrics, tracer = traced_pass(ot, ops, runner, args.seed)
    else:
        metrics, tracer = end_to_end(runner, setup_s), None
    env["loadavg_after"] = list(os.getloadavg())

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "passes": passes,
        "ops_per_pass": len(ops),
        "samples": samples,
        "probe_ms": probe_ms,
        "group_ms": group,
        "wall_metrics": {name: {"value": v, "unit": u} for name, (v, u) in wall.items()},
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        write_spans(RESULTS_DIR / f"{stem}-spans.json", tracer)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    for description, count in sorted(runner.failures.items()):
        print(f"failed x{count}: {description}")
    print(f"samples {samples}, passes {passes}, commit {env['commit']}")

    reported = _reported_metrics(args.trace)
    print(
        json.dumps(
            {
                "correct": runner.correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: v for k, v in result["metrics"].items() if k in reported},
            }
        )
    )
    return 0


def _reported_metrics(trace: int) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
