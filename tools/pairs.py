"""Alternating pairs of benchmark runs in two source trees, the evidence a performance claim needs.

    python3 tools/pairs.py --parent ../parent --change . --workload crowd_quadratic --pairs 10 --seconds 30 --seed 1

Each pair runs `benchmarks/run.py --workload W --seconds S --seed K --trace 0` once in each
tree, each run in its own process; the parent goes first in even pairs and the change in odd
ones, so a drift of the machine's speed over the session does not favour either tree.  For
each end-to-end metric that the change tree's BENCHMARK.json lists, it prints the median and
quartiles of each tree's runs, the change in the median, and in how many pairs the change was
better.  A metric is marked "resolved" when the change won at least 9 pairs in 10 and its
median differs from the parent's by more than the parent's interquartile distance.  A run
that prints "correct": false or a failed op stops the comparison with exit code 1.  Nothing
under either tree is changed.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1800


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """The result line of one `benchmarks/run.py --trace 0` run in tree."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seconds", str(seconds), "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct") or result.get("failed"):
        raise SystemExit(f"{tree}: the benchmark run failed (exit {proc.returncode}):\n{proc.stderr}{proc.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile, interpolated between the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's comparison over pairs of runs, parent[k] and change[k] being pair k."""
    sign = 1 if better == "lower" else -1
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change, strict=True))
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "delta": (cm - pm) / pm if pm else None,
        "won": won,
        "pairs": len(parent),
        "resolved": 10 * won >= 9 * len(parent) and sign * (cm - pm) < -(p3 - p1),
    }


def line(name: str, unit: str, summary: dict) -> str:
    (p1, pm, p3), (c1, cm, c3) = summary["parent"], summary["change"]
    delta = "n/a" if summary["delta"] is None else f"{100 * summary['delta']:+.1f} %"
    return (
        f"{name:<14} parent {pm:.4f} [{p1:.4f}, {p3:.4f}]  change {cm:.4f} [{c1:.4f}, {c3:.4f}] {unit:<4} {delta:>8}"
        f"  won {summary['won']}/{summary['pairs']}{'  resolved' if summary['resolved'] else ''}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent commit's source tree")
    parser.add_argument("--change", required=True, type=Path, help="the changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = json.loads((args.change / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for tree in order:
            runs[tree].append(run_once(getattr(args, tree), args.workload, args.seconds, args.seed))
        print(f"pair {k + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{args.workload} seed={args.seed} --seconds {args.seconds:g}: {args.pairs} alternating pairs")
    for metric in metrics:
        name = metric["name"]
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        print(line(name, metric["unit"], summarize(parent, change, metric["better"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
