"""Span tracing for the per-layer run, installed from outside the package.

A Tracer replaces public functions and methods of govlab with wrappers that
record one span per call: name, start, end and the span that was open when
the call began.  Modules import each other with `from .x import y`, so a
function is replaced under every name that is bound to it in any govlab
module, which is where its callers look it up.  Methods are replaced on
their class.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("scenario", "simulation", "governance", "mechanisms", "identity", "rng", "ledger", "core", "cli")


def _count_tally_votes(counters, args, kwargs, result):
    counters["tally_votes"] += len(args[0])


def _count_filter(counters, args, kwargs, result):
    counters["filter_votes_in"] += len(args[0])
    counters["filter_votes_kept"] += len(result.votes)


def _count_payload(counters, args, kwargs, result):
    counters["payload_bytes"] += len(result.payload)


def _count_csv_rows(counters, args, kwargs, result):
    counters["csv_rows"] += result.count("\n") - 1


# (module, attribute, observer) for module-level functions.
FUNCTIONS = (
    ("cli", "main", None),
    ("cli", "cmd_run", None),
    ("cli", "cmd_verify", None),
    ("scenario", "load_scenario", None),
    ("simulation", "run", None),
    ("simulation", "build_setup", None),
    ("simulation", "_build_report", None),
    ("simulation", "report_csv", _count_csv_rows),
    ("governance", "replay", None),
    ("mechanisms", "tally", _count_tally_votes),
    ("mechanisms", "power_quadratic", None),
    ("mechanisms", "power_token", None),
    ("mechanisms", "conviction_power", None),
    ("identity", "filter_and_collapse", _count_filter),
    ("ledger", "entry_hash", None),
    ("ledger", "verify_chain", None),
    ("ledger", "dump_ndjson", None),
    ("ledger", "load_ndjson", None),
    ("ledger", "write_ndjson", None),
    ("ledger", "read_ndjson", None),
    ("core", "canonical_json", None),
)

# (module, class, method, observer).
METHODS = (
    ("governance", "GovernanceEngine", "__init__", None),
    ("governance", "GovernanceEngine", "submit", None),
    ("governance", "GovernanceEngine", "advance_to", None),
    ("governance", "GovernanceEngine", "cast", None),
    ("governance", "GovernanceEngine", "finalize", None),
    ("identity", "IdentityRegistry", "bind", None),
    ("rng", "Xoshiro256StarStar", "next_u64", None),
    ("ledger", "Ledger", "append", _count_payload),
)

POWER_SPANS = ("mechanisms.power_quadratic", "mechanisms.power_token", "mechanisms.conviction_power")


def _missing(name: str) -> None:
    # A renamed or deleted target leaves its metrics at 0 instead of stopping the run.
    print(f"warning: govlab.{name} not found; its spans are not recorded", file=sys.stderr)


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent span or -1]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def _wrap(self, name, fn, observe):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        modules = [m for n, m in list(sys.modules.items()) if n == "govlab" or n.startswith("govlab.")]
        undo = []
        try:
            for module, attr, observe in FUNCTIONS:
                original = getattr(importlib.import_module(f"govlab.{module}"), attr, None)
                if original is None:
                    _missing(f"{module}.{attr}")
                    continue
                wrapper = self._wrap(f"{module}.{attr}", original, observe)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            for module, cls_name, method, observe in METHODS:
                cls = getattr(importlib.import_module(f"govlab.{module}"), cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is None:
                    _missing(f"{module}.{cls_name}.{method}")
                    continue
                undo.append((cls, method, original))
                setattr(cls, method, self._wrap(f"{module}.{cls_name}.{method}", original, observe))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def self_times(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{self.names[name]}\t{start}\t{end}\t{parent}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times (seconds) for one traced round.

    Times ending in `_self_s` and the `<layer>.self_s` totals are self time.
    `scenario.parse_s`, `simulation.setup_s`, `identity.filter_s`,
    `ledger.dump_s`, `ledger.load_s` and `ledger.verify_chain_s` are the full
    span of that stage.  `simulation.csv_s` and `simulation.report_s` are
    self time (their power calls are in `mechanisms.power_s`).
    """
    names = tracer.names
    own = tracer.self_times()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    encode_s = hash_s = 0.0
    for i, (name_index, start, end, parent) in enumerate(tracer.spans):
        name = names[name_index]
        seconds = own[i] / 1e9
        self_s[name] += seconds
        total_s[name] += (end - start) / 1e9
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += seconds
        if parent >= 0 and names[tracer.spans[parent][0]] == "ledger.Ledger.append":
            if name == "core.canonical_json":
                encode_s += seconds
            elif name == "ledger.entry_hash":
                hash_s += seconds
    c = tracer.counters
    power_calls = sum(calls[n] for n in POWER_SPANS)
    metrics = {
        "ledger.events": calls["ledger.Ledger.append"],
        "ledger.append_self_s": self_s["ledger.Ledger.append"],
        "ledger.encode_s": encode_s,
        "ledger.hash_s": hash_s,
        "ledger.payload_bytes": c["payload_bytes"],
        "core.canonical_json_calls": calls["core.canonical_json"],
        "core.canonical_json_s": self_s["core.canonical_json"],
        "governance.cast_calls": calls["governance.GovernanceEngine.cast"],
        "governance.cast_self_s": self_s["governance.GovernanceEngine.cast"],
        "governance.finalize_self_s": self_s["governance.GovernanceEngine.finalize"],
        "governance.advance_to_calls": calls["governance.GovernanceEngine.advance_to"],
        "governance.advance_to_self_s": self_s["governance.GovernanceEngine.advance_to"],
        "governance.replay_self_s": self_s["governance.replay"],
        "simulation.loop_self_s": self_s["simulation.run"],
        "simulation.setup_s": total_s["simulation.build_setup"],
        "simulation.report_s": self_s["simulation._build_report"],
        "simulation.csv_s": self_s["simulation.report_csv"],
        "simulation.csv_rows": c["csv_rows"],
        "mechanisms.power_calls": power_calls,
        "mechanisms.power_s": sum(self_s[n] for n in POWER_SPANS),
        "mechanisms.power_calls_per_vote": power_calls / c["tally_votes"] if c["tally_votes"] else 0.0,
        "mechanisms.tally_votes": c["tally_votes"],
        "mechanisms.tally_self_s": self_s["mechanisms.tally"],
        "identity.bind_calls": calls["identity.IdentityRegistry.bind"],
        "identity.bind_s": self_s["identity.IdentityRegistry.bind"],
        "identity.filter_s": total_s["identity.filter_and_collapse"],
        "identity.votes_kept_ratio": (
            c["filter_votes_kept"] / c["filter_votes_in"] if c["filter_votes_in"] else 0.0
        ),
        "rng.draws": calls["rng.Xoshiro256StarStar.next_u64"],
        "scenario.parse_s": total_s["scenario.load_scenario"],
        "ledger.dump_s": total_s["ledger.dump_ndjson"],
        "ledger.load_s": total_s["ledger.load_ndjson"],
        "ledger.verify_chain_s": total_s["ledger.verify_chain"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
