"""Compare two sets of benchmark results, workload by workload.

    python3 benchmarks/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by run.py (its
benchmarks/results/).  Runs are paired by seed.  For every end-to-end
metric the row shows each side's median and quartiles and a verdict:

* better: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's own
  quartile spread; or, when a spread exceeds the bound, every change run
  beats every parent run.
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json.
* unresolved: either side's quartile spread exceeds the bound.
* same: none of the above.

Failed ops are compared as a share of ops attempted; any increase is worse.
Traced runs, when both sides have them, are listed per layer without a
verdict: per-layer metrics have no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """(workload, trace) -> {seed: result}."""
    out: dict = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault((result["workload"], result["trace"]), {})[result["seed"]] = result
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list, b: list, pairs: list, better: str, bound: float) -> tuple:
    """(verdict, pairs the change won) for one metric on one workload."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if len(a) < 2 or len(b) < 2:
        return "unresolved", wins
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if (a3 - a1) / am > bound or (b3 - b1) / bm > bound:
        all_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
        return ("better" if all_better else "unresolved"), wins
    if pairs and wins >= 0.9 * len(pairs) and sign * (bm - am) > a3 - a1:
        return "better", wins
    if sign * (am - bm) / am > bound:
        return "worse", wins
    return "same", wins


def fmt(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(d)) for d in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    header = f"{'workload':12s} {'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'change':>8s} {'wins':>6s}  verdict"
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs = parent.get((workload, 0), {})
        b_runs = change.get((workload, 0), {})
        if not a_runs or not b_runs:
            print(f"{workload:12s} (no untraced results on one side)")
            continue
        seeds = sorted(set(a_runs) & set(b_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs.values()]
            b = [r["metrics"][name]["value"] for r in b_runs.values()]
            pairs = [
                (a_runs[s]["metrics"][name]["value"], b_runs[s]["metrics"][name]["value"])
                for s in seeds
            ]
            word, wins = verdict(a, b, pairs, metric["better"], metric["bound"])
            am, bm = statistics.median(a), statistics.median(b)
            print(
                f"{workload:12s} {name:16s} {fmt(a):>34s} {fmt(b):>34s} "
                f"{(bm - am) / am:+8.1%} {wins:>3d}/{len(pairs):<2d}  {word}"
            )
        a_failed = sum(r["failed"] for r in a_runs.values()) / sum(r["attempted"] for r in a_runs.values())
        b_failed = sum(r["failed"] for r in b_runs.values()) / sum(r["attempted"] for r in b_runs.values())
        word = "worse" if b_failed > a_failed else "better" if b_failed < a_failed else "same"
        print(f"{workload:12s} {'failed/attempted':16s} {a_failed:34.4g} {b_failed:34.4g} {'':8s} {'':6s}  {word}")

    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs = parent.get((workload, 1), {})
        b_runs = change.get((workload, 1), {})
        if not a_runs or not b_runs:
            continue
        print(f"\nper layer, {workload} (traced runs: {len(a_runs)} parent, {len(b_runs)} change)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in a_runs.values())
            b = statistics.median(r["metrics"][name]["value"] for r in b_runs.values())
            change_pct = f"{(b - a) / a:+8.1%}" if a else f"{'':8s}"
            print(f"  {name:36s} {a:14.6g} {b:14.6g} {change_pct} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
