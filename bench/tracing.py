"""Spans around the calls into each p4filter module, recorded from outside.

`traced(recorder)` swaps each public function listed in `PATCHES` for a
wrapper that records a span, and puts the originals back on exit. A name
is patched where its caller looks it up: `decrement_ttl` is read from
`p4filter.switch`'s globals and `make_packet` from `p4filter.sim`'s, so
patching `p4filter.packet` alone would time nothing. Methods are patched
on their class.

A span is (name, start, end, parent). Spans stay in flat arrays until the
run ends; `layer_stats` then turns them into per-function calls, self
time and latency percentiles. Self time is a span's duration minus the
part of it that its child spans cover. A wrapper's bookkeeping lies
inside its own span, so a function's self time and call latency include
the cost of its own wrapper, and its caller's self time includes none.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

PERCENTILE_MIN_CALLS = 1000


class SpanRecorder:
    """In-memory span store plus counters fed by the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.counters: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append a finished span; used by tests to build span trees."""
        self.name_id.append(self.intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def wrap(self, fn, name: str, label=None, observe=None):
        """`fn` recording one span per call.

        `label(args)` splits the span name as `name[label]` by a property
        of the call (for `process_packet`, the switch's feature set).
        `observe(counters, args, result)` adds counts taken from the
        call's arguments and result.
        """
        fixed = self.intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_spans, intern, counters = self._open, self.intern, self.counters
        clock = time.perf_counter_ns

        # The span opens at the wrapper's first statement and closes at its
        # last, so the wrapper's own bookkeeping falls inside its span and
        # never into the caller's self time.
        @wraps(fn)
        def traced_call(*args, **kwargs):
            t0 = clock()
            idx = len(start)
            name_id.append(fixed if label is None else intern(f"{name}[{label(args)}]"))
            parent.append(open_spans[-1] if open_spans else -1)
            start.append(t0)
            end.append(t0)
            open_spans.append(idx)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counters, args, result)
                return result
            finally:
                open_spans.pop()
                end[idx] = clock()

        return traced_call


def self_times(rec: SpanRecorder) -> list[int]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    start, end, parent = rec.start, rec.end, rec.parent
    covered = [0] * len(start)
    reach: dict[int, int] = {}      # parent -> latest instant covered so far
    for i in sorted(range(len(start)), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        r = reach.get(p, start[p])
        lo, hi = max(start[i], r), min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(r, hi)
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def _percentile(sorted_values: list, q: float):
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_stats(rec: SpanRecorder) -> dict[str, float]:
    """calls, total time `s` and `self_s` per function, with p50_us and
    p99_us of one call where a function or one of its labels has enough
    calls."""
    own = self_times(rec)
    durations: dict[str, list[int]] = defaultdict(list)
    self_ns: Counter = Counter()
    for i, nid in enumerate(rec.name_id):
        name = rec.names[nid]
        durations[name].append(rec.end[i] - rec.start[i])
        self_ns[name] += own[i]
    functions: dict[str, list[str]] = defaultdict(list)
    for name in durations:
        functions[name.partition("[")[0]].append(name)

    stats: dict[str, float] = {}
    for function, names in sorted(functions.items()):
        calls = [d for n in names for d in durations[n]]
        stats[f"{function}.calls"] = len(calls)
        stats[f"{function}.s"] = sum(calls) / 1e9
        stats[f"{function}.self_s"] = sum(self_ns[n] for n in names) / 1e9
        groups = [(function, calls)] + [
            (n.replace("[", ".").rstrip("]"), durations[n]) for n in names if n != function]
        for group, values in groups:
            if len(values) >= PERCENTILE_MIN_CALLS:
                values = sorted(values)
                stats[f"{group}.p50_us"] = _percentile(values, 50) / 1e3
                stats[f"{group}.p99_us"] = _percentile(values, 99) / 1e3
    return stats


# -- what gets patched -----------------------------------------------------

def _feature_set(args) -> str:
    features = args[0].config.features
    if not features:
        return "plain"
    if len(features) == 3:
        return "all"
    return "+".join(sorted(features))


def _lookup_hits(counters, args, result):
    counters["tables.lookup.hits"] += result[1]


def _rules_installed(counters, args, result):
    counters["switch.rules_installed"] += len(args[1])


def _punt_outcome(counters, args, result):
    counters["controller.installs"] += len(result)
    counters["controller.replays"] += not result


# (owner, attribute, span name, wrap options). The owner is the module or
# class the caller reads the name from at call time.
PATCHES = [
    ("p4filter.sim", "make_packet", "packet.make_packet", {}),
    ("p4filter.switch", "decrement_ttl", "packet.decrement_ttl", {}),
    ("p4filter.controller", "parse_packet", "packet.parse_packet", {}),
    ("p4filter.sim", "serialize_packet", "packet.serialize_packet", {}),
    ("p4filter.tables:Table", "lookup", "tables.lookup", {"observe": _lookup_hits}),
    ("p4filter.tables:Table", "insert", "tables.insert", {}),
    ("p4filter.bloom", "bloom_hash", "bloom.bloom_hash", {}),
    ("p4filter.stateful", "stateful_process", "stateful.stateful_process", {}),
    ("p4filter.stateless", "stateless_check", "stateless.stateless_check", {}),
    ("p4filter.switch", "knock_step", "knocking.knock_step", {}),
    ("p4filter.switch:P4Switch", "process_packet", "switch.process_packet",
     {"label": _feature_set}),
    ("p4filter.switch:P4Switch", "apply_rule_install", "switch.apply_rule_install",
     {"observe": _rules_installed}),
    ("p4filter.controller:Controller", "handle_packet_in",
     "controller.handle_packet_in", {"observe": _punt_outcome}),
    ("p4filter.controller", "save_store", "controller.save_store", {}),
    ("p4filter.sim:Simulator", "run", "sim.run", {}),
    ("p4filter.sim:RunReport", "canonical_text", "sim.canonical_text", {}),
    ("p4filter.scenario", "parse_scenario", "scenario.parse_scenario", {}),
    ("p4filter.topology", "parse_topology", "topology.parse_topology", {}),
    ("p4filter.sim", "compute_routes", "topology.compute_routes", {}),
    ("p4filter.topology", "compute_routes", "topology.compute_routes", {}),
    ("p4filter.sim", "build_network", "topology.build_network", {}),
]


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def traced(recorder: SpanRecorder):
    """Patch every target with a recording wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, options in PATCHES:
            obj = resolve(owner)
            original = vars(obj)[attr]
            saved.append((obj, attr, original))
            setattr(obj, attr, recorder.wrap(original, name, **options))
        yield recorder
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
