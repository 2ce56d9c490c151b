"""govlab benchmark: seeded scenario workloads driven through the public CLI.

    python3 benchmarks/run.py --workload crowd_quadratic --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with nothing patched; `--trace 1`
runs the same ops with span recorders installed (see spans.py) and reports
per-layer metrics.  Every op's output is checked; the last stdout line is a
JSON object {correct, attempted, failed, metrics}, and the exit code is 1
when any check failed.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PINNED = json.loads((HERE / "pinned.json").read_text("utf-8"))

import calibrate  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402

# Fewest cold starts and warm rounds a measured run takes, however short --seconds is.
MIN_SAMPLES = 3
COLD_START_TIMEOUT_S = 60
TERMINAL_PHASES = {"passed", "rejected", "quorum_failed", "executed"}

govlab = None  # imported from SRC by main(), never from an installed copy


class CheckFailed(Exception):
    """An op's output differs from what it must be."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Gate:
    """Counts ops (run, verify, replay calls) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {message}", file=sys.stderr)

    def op(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed op is counted and reported; the run goes on
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None


class Files:
    """Scenario and output paths for one scenario in the work directory."""

    def __init__(self, directory: Path, tag: str, text: str):
        directory.mkdir(parents=True, exist_ok=True)
        self.scenario = directory / f"{tag}.scenario.json"
        self.report = directory / f"{tag}.report.json"
        self.ledger = directory / f"{tag}.ledger.jsonl"
        self.csv = directory / f"{tag}.agents.csv"
        self.scenario.write_text(text, encoding="utf-8")

    def run_argv(self) -> list[str]:
        return ["run", "--scenario", str(self.scenario), "--out", str(self.report),
                "--ledger", str(self.ledger), "--csv", str(self.csv)]

    def outputs(self, stdout: str) -> dict:
        """Digest of a finished run; checks the printed head against the report."""
        report = json.loads(self.report.read_bytes())
        head = stdout.strip()
        check(report["ledger_head"] == head, f"printed head {head!r} != report head {report['ledger_head']!r}")
        return {
            "ledger_head": head,
            "report_sha256": sha256_file(self.report),
            "ledger_sha256": sha256_file(self.ledger),
            "csv_sha256": sha256_file(self.csv),
            "phases": {p["id"]: p["phase"] for p in report["proposals"]},
            "bytes_written": sum(p.stat().st_size for p in (self.report, self.ledger, self.csv)),
        }


DIGEST_KEYS = ("ledger_head", "report_sha256", "ledger_sha256", "csv_sha256")


def digest(outputs: dict) -> dict:
    return {key: outputs[key] for key in DIGEST_KEYS}


def expect_same(got: dict, expected: dict | None, label: str) -> None:
    for key, want in (expected or {}).items():
        check(got.get(key) == want, f"{label}: {key} is {got.get(key)!r}, expected {want!r}")


def cli(argv: list[str]) -> tuple[str, float]:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # each op starts from a collected heap, as a fresh CLI process does
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = govlab.cli.main(argv)
    seconds = time.perf_counter() - start
    check(code == 0, f"govlab {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue(), seconds


def op_run(files: Files, expected: dict | None) -> tuple[float, dict]:
    stdout, seconds = cli(files.run_argv())
    outputs = files.outputs(stdout)
    expect_same(outputs, expected, "run")
    return seconds, outputs


def op_verify(files: Files) -> float:
    stdout, seconds = cli(["verify", "--ledger", str(files.ledger)])
    check(stdout.strip() == "ok", f"govlab verify printed {stdout.strip()!r}")
    return seconds


def op_replay(files: Files, phases: dict) -> float:
    gc.collect()
    start = time.perf_counter()
    engine = govlab.replay(govlab.ledger.read_ndjson(files.ledger))
    seconds = time.perf_counter() - start
    replayed = {str(pid): p.phase.value for pid, p in engine.proposals.items()}
    check(replayed == phases, f"replayed phases {replayed} != reported {phases}")
    check(set(replayed.values()) <= TERMINAL_PHASES, f"replay left non-terminal phases {replayed}")
    return seconds


def round_trip(gate: Gate, files: Files, expected: dict | None, calibrated: bool = False) -> dict | None:
    """run, verify and replay one scenario; None when an op failed.

    With `calibrated`, a calibration sample is taken just before each op and
    returned under the op's metric name in `speed`.
    """
    speed = {}

    def timed(name, label, fn, *args):
        if calibrated:
            speed[name] = calibrate.sample()
        return gate.op(label, fn, *args)

    done = timed("run_s", "run", op_run, files, expected)
    if done is None:
        return None
    run_s, outputs = done
    verify_s = timed("verify_s", "verify", op_verify, files)
    replay_s = timed("replay_s", "replay", op_replay, files, outputs["phases"])
    if verify_s is None or replay_s is None:
        return None
    return {"run_s": run_s, "verify_s": verify_s, "replay_s": replay_s, "outputs": outputs, "speed": speed}


def cold_start(files: Files, expected: dict | None) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "cold_start.py"), str(SRC), str(files.scenario),
         str(files.report), str(files.ledger), str(files.csv)],
        capture_output=True, text=True, timeout=COLD_START_TIMEOUT_S, cwd=ROOT,
    )
    check(proc.returncode == 0, f"cold start exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    check(Path(result["module"]).resolve().is_relative_to(SRC), f"cold start imported {result['module']}")
    check(result["code"] == 0, f"cold govlab run exited {result['code']}")
    outputs = files.outputs(result["stdout"])
    expect_same(outputs, expected, "cold run")
    return result, outputs


def check_pinned(gate: Gate, workload: str, seed: int, work: Path) -> None:
    """Once per invocation: the shipped presets and the default-seed scenario
    of this workload reproduce the hashes pinned from main."""
    for name, want in PINNED["presets"].items():
        def preset_run(name=name, want=want):
            result = govlab.run(govlab.load_preset(name))
            got = {"ledger_head": result.head_hash,
                   "report_sha256": hashlib.sha256(result.report_json.encode("ascii")).hexdigest()}
            expect_same(got, want, f"preset {name}")
        gate.op(f"preset {name}", preset_run)
    if seed != PINNED["default_seed"]:
        files = Files(work, "pinned", scenario_text(workload, PINNED["default_seed"]))
        gate.op("pinned run", op_run, files, PINNED["workloads"][workload])


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(gate: Gate, workload: str, seed: int, seconds: float, work: Path) -> dict:
    files = Files(work, "full", scenario_text(workload, seed))
    expected = PINNED["workloads"][workload] if seed == PINNED["default_seed"] else None

    # Per metric: (op seconds, seconds of the calibration sample taken just before it).
    samples = {"run_s": [], "verify_s": [], "replay_s": [], "setup_s": []}
    peak_rss = []

    def cold():
        speed = calibrate.sample()
        done = gate.op("cold run", cold_start, files, expected)
        if done is not None:
            samples["setup_s"].append((done[0]["setup_s"], speed))
            peak_rss.append(done[0]["peak_rss_mib"])
        return done

    first = cold()
    if first is not None:
        expected = digest(first[1])  # every later op must reproduce these bytes
    check_pinned(gate, workload, seed, work)
    round_trip(gate, files, expected)  # warm-up: caches filled, lazy set-up done

    # One cold start per two warm rounds, so both sample the same stretch of
    # machine time; the window closes once it has MIN_SAMPLES of each.
    deadline = time.perf_counter() + seconds
    while gate.failed == 0 and (
        time.perf_counter() < deadline
        or min(len(samples["setup_s"]), len(samples["run_s"])) < MIN_SAMPLES
    ):
        if 2 * len(samples["setup_s"]) <= len(samples["run_s"]):
            cold()
            continue
        done = round_trip(gate, files, expected, calibrated=True)
        if done is not None:
            for key, speed in done["speed"].items():
                samples[key].append((done[key], speed))

    # Each time is reported at reference machine speed: the median of its
    # ratios to the paired calibration samples, times REFERENCE_S.
    print(f"{workload} seed={seed}: {len(samples['run_s'])} warm rounds, {len(samples['setup_s'])} cold starts")
    print(f"  op_failure_rate  {gate.failed}/{gate.attempted} ops failed")
    print("  raw medians      " + ", ".join(
        f"{key} {median([t for t, _ in pairs]):.6f} s" for key, pairs in samples.items()))
    print(f"  calibration      median {median([c for pairs in samples.values() for _, c in pairs]):.6f} s")
    metrics = {
        key: (median([t / c for t, c in pairs]) * calibrate.REFERENCE_S, "s") for key, pairs in samples.items()
    }
    metrics["peak_rss_mib"] = (median(peak_rss), "MiB")
    return metrics


def traced_round(gate: Gate, files: Files, reference: dict) -> tuple[dict, Tracer] | None:
    govlab.mechanisms._decay_factor.cache_clear()
    tracer = Tracer()
    with tracer.installed():
        done = round_trip(gate, files, reference)
    if done is None:
        return None
    metrics = layer_metrics(tracer)
    cache = govlab.mechanisms._decay_factor.cache_info()
    lookups = cache.hits + cache.misses
    metrics["mechanisms.decay_cache_hit_ratio"] = cache.hits / lookups if lookups else 0.0
    metrics["cli.bytes_written"] = done["outputs"]["bytes_written"]
    return {"metrics": metrics, "run_s": done["run_s"]}, tracer


def src_lines() -> int:
    total = 0
    for path in sorted((SRC / "govlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            total += sum(1 for line in path.read_text("utf-8").splitlines() if line.strip())
    return total


def per_layer(gate: Gate, workload: str, seed: int, seconds: float, work: Path) -> dict:
    full = Files(work, "full", scenario_text(workload, seed))
    half = Files(work, "half", scenario_text(workload, seed, scale=0.5))
    check_pinned(gate, workload, seed, work)

    pinned = PINNED["workloads"][workload] if seed == PINNED["default_seed"] else None
    reference = {}
    for tag, files, expected in (("full", full, pinned), ("half", half, None)):
        done = round_trip(gate, files, expected)
        if done is None:
            return {}
        reference[tag] = digest(done["outputs"])

    untraced_run_s, traced = [], {"full": [], "half": []}
    spans = None
    deadline = time.perf_counter() + seconds
    while not traced["full"] or (time.perf_counter() < deadline and gate.failed == 0):
        govlab.mechanisms._decay_factor.cache_clear()
        done = round_trip(gate, full, reference["full"])
        if done is None:
            break
        untraced_run_s.append(done["run_s"])
        for tag, files in (("full", full), ("half", half)):
            done = traced_round(gate, files, reference[tag])
            if done is None:
                break
            traced[tag].append(done[0])
            if tag == "full":
                spans = done[1]
        if gate.failed:
            break
    if gate.failed:
        return {}

    def layer_median(tag: str, name: str) -> float:
        return median([r["metrics"][name] for r in traced[tag]])

    names = list(traced["full"][0]["metrics"])
    for tag in traced:
        for name in names:
            if not name.endswith("_s"):
                values = {r["metrics"][name] for r in traced[tag]}
                if len(values) != 1:
                    gate.fail(f"{tag} traced rounds", f"count {name} differs across rounds: {values}")
    # Counts repeat exactly (checked above); times are medians over rounds.
    metrics = {
        name: layer_median("full", name) if name.endswith("_s") else traced["full"][0]["metrics"][name]
        for name in names
    }
    for name in names:
        if name.endswith("_s"):
            half_value = layer_median("half", name)
            metrics[f"growth.{name}"] = metrics[name] / half_value if half_value else 0.0
    metrics["trace.overhead_ratio"] = median([r["run_s"] for r in traced["full"]]) / median(untraced_run_s)
    metrics["code.src_lines"] = src_lines()

    WORK.mkdir(exist_ok=True)
    spans.write_spans(WORK / f"spans-{workload}.tsv")
    print(f"{workload} seed={seed}: {len(traced['full'])} traced rounds (full and half size)")
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name: str) -> str:
    if name.startswith("growth.") or name.endswith(("_ratio", "_per_vote")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Every workload, each in its own process; metrics are prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=PINNED["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "govlab" / "__init__.py").is_file():
        print(f"error: no govlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    global govlab
    import govlab  # noqa: F401
    import govlab.cli  # noqa: F401
    import govlab.ledger  # noqa: F401

    if not Path(govlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported govlab from {govlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    gate = Gate()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(gate, args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = gate.failed == 0 and bool(metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
