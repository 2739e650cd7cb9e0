"""Measurement loops behind `bench/run.py`.

Every run goes through the public API the way `p4filter run` does:
parse the topology, scenario and ACL text, construct `Simulator`, call
`Simulator.run`, render `RunReport.canonical_text()` and hash it. The
store is the in-memory `SequenceStore`, as `p4filter run` uses without
`--store`, so disk noise never reads as a program regression; only the
traced run gives the store a file, to time `save_store`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from p4filter import controller, scenario, topology
from p4filter.bundled import SCENARIOS, data_file, default_topology_path, scenario_path
from p4filter.sim import Simulator, run_scenario

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIGESTS = BENCH_DIR / "golden_digests.json"

# Each size takes 0.6-1 s of host time per run on a shared 2-vCPU x86-64
# VM, so one measurement holds dozens of runs; a median over many short
# runs is much steadier there than one over a few long ones.
SIZES = {
    "stateful_forward": 600,        # flows; 5 packets each
    "knock_admission": 300,         # clients
    "authorized_service": 30,       # rounds of 5 client sessions
}
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120


def generate(name: str, seed: int) -> workloads.Workload:
    return workloads.GENERATORS[name](seed, SIZES[name])


@dataclass
class Run:
    """One workload run: host times, report digest and check results."""

    setup_s: float
    run_s: float
    wall_s: float
    packets: int
    digest: str
    report_bytes: int
    failures: list
    leak_rate: float

    @property
    def packets_per_s(self) -> float:
        return self.packets / self.run_s


def run_once(wl: workloads.Workload, store: controller.SequenceStore):
    """(Run, simulator, report) for one fresh Simulator over the workload.

    Module attributes are looked up at call time so that a traced run
    times the same calls.
    """
    gc.collect()
    t0 = time.perf_counter()
    topo = topology.parse_topology(json.loads(wl.topology_text))
    spec = scenario.parse_scenario(json.loads(wl.scenario_text))
    acl = controller.parse_acl(json.loads(wl.acl_text))
    sim = Simulator(topo, acl, store, seed=spec.seed)
    t1 = time.perf_counter()
    report = sim.run(spec)
    t2 = time.perf_counter()
    text = report.canonical_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    t3 = time.perf_counter()
    failures, leak = workloads.check_report(wl, report)
    run = Run(setup_s=t1 - t0, run_s=t2 - t1, wall_s=t3 - t0,
              packets=sum(c["sent"] for c in report.hosts.values()),
              digest=digest, report_bytes=len(text), failures=failures,
              leak_rate=leak)
    return run, sim, report


@dataclass
class Tally:
    """Attempted and failed runs, with the reason for each failure."""

    attempted: int = 0
    problems: list = field(default_factory=list)
    digest: str | None = None

    @property
    def failed(self) -> int:
        return len(self.problems)

    def note(self, what: str, failures: list) -> None:
        self.attempted += 1
        if failures:
            self.problems.append(f"{what}: " + "; ".join(failures))

    def check_digest(self, digest: str) -> list:
        """The report of one seed must hash the same on every run."""
        if self.digest is None:
            self.digest = digest
        return [] if digest == self.digest else [
            f"report digest {digest[:12]} differs from first run's {self.digest[:12]}"]

    def guarded(self, what: str, fn, *args):
        """fn(*args), counting an exception as a failed run."""
        try:
            return fn(*args)
        except Exception:   # a run that raises is a failed run, not a crash
            traceback.print_exc()
            self.note(what, ["raised " + traceback.format_exc().splitlines()[-1]])
            return None


def bundled_guard(tally: Tally) -> None:
    """Run the four bundled scenarios and compare against golden digests."""
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    topo = topology.load_topology(default_topology_path())
    for name in SCENARIOS:
        def one(name=name):
            spec = scenario.load_scenario(scenario_path(name))
            acl = controller.load_acl(data_file(spec.acl_path)) if spec.acl_path else {}
            report = run_scenario(topo, spec, acl, controller.SequenceStore())
            return hashlib.sha256(report.canonical_text().encode()).hexdigest()
        digest = tally.guarded(f"bundled {name}", one)
        if digest is not None:
            tally.note(f"bundled {name}", [] if digest == golden.get(name) else [
                f"digest {digest[:12]} != recorded {str(golden.get(name))[:12]}"])


def measured_runs(wl: workloads.Workload, seconds: float, tally: Tally) -> list[Run]:
    """Untraced runs back to back until `seconds` have passed."""
    runs: list[Run] = []
    started = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - started < seconds:
        result = tally.guarded("run", run_once, wl, controller.SequenceStore())
        if result is None:
            break
        run = result[0]
        del result
        tally.note("run", run.failures + tally.check_digest(run.digest))
        runs.append(run)
    return runs


def child_peak_rss(name: str, seed: int, tally: Tally) -> list[float]:
    """Peak RSS of a fresh single-threaded child process that runs the
    workload once; empty if the child failed."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--rss-child",
               "--workload", name, "--seed", str(seed)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True)
        out = json.loads(done.stdout.splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as e:
        tally.note("rss child", [f"{type(e).__name__}: {e}"])
        return []
    tally.note("rss child", out["failures"] + tally.check_digest(out["digest"]))
    return [out["peak_rss_mib"]]


def _peak_rss_kib() -> int:
    """High-water RSS of this process image. On Linux, ru_maxrss of a child
    also counts the parent's pages it mapped between fork and exec."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def rss_child_main(name: str, seed: int) -> None:
    """Body of one child process: run once, print peak RSS and digest."""
    run, _, _ = run_once(generate(name, seed), controller.SequenceStore())
    print(json.dumps({"peak_rss_mib": _peak_rss_kib() / 1024, "digest": run.digest,
                      "failures": run.failures}))


# -- traced run --------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(rec: tracing.SpanRecorder, sim, report, spec_events: int) -> dict:
    stats = tracing.layer_stats(rec)
    for _, _, name, _ in tracing.PATCHES:
        stats.setdefault(f"{name}.calls", 0)
        stats.setdefault(f"{name}.s", 0.0)
        stats.setdefault(f"{name}.self_s", 0.0)
    c = rec.counters
    stats["tables.lookup.hit_ratio"] = _ratio(c["tables.lookup.hits"],
                                              stats["tables.lookup.calls"])
    stats["switch.rules_per_install"] = _ratio(c["switch.rules_installed"],
                                               stats["switch.apply_rule_install.calls"])
    stats["controller.installs_per_punt"] = _ratio(c["controller.installs"],
                                                   stats["controller.handle_packet_in.calls"])
    stats["controller.replay_ratio"] = _ratio(c["controller.replays"],
                                              stats["controller.handle_packet_in.calls"])
    verdicts = Counter(r["verdict"] for r in report.trace)
    for verdict in ("Forwarded", "Dropped", "Punted", "Consumed"):
        stats[f"switch.verdict.{verdict}"] = verdicts[verdict]
    fills, fps = [], []
    for sid, switch in sorted(sim.network.items()):
        if "Stateful" in switch.config.features:
            f1, f2 = switch.blooms.f1, switch.blooms.f2
            fill = (f1.popcount() + f2.popcount()) / (f1.m + f2.m)
            fp = (f1.popcount() / f1.m) * (f2.popcount() / f2.m)
            stats[f"bloom.fill.{sid}"], stats[f"bloom.est_fp_rate.{sid}"] = fill, fp
            fills.append(fill)
            fps.append(fp)
    stats["bloom.fill"] = max(fills, default=0.0)
    stats["bloom.est_fp_rate"] = max(fps, default=0.0)
    stats["sim.trace_records"] = len(report.trace)
    stats["sim.queue_events"] = (spec_events + len(report.trace)
                                 + sum(h["delivered"] for h in report.hosts.values()))
    return stats


def traced_pairs(wl: workloads.Workload, seconds: float, tally: Tally) -> tuple[dict, int]:
    """Alternate untraced and traced runs until `seconds` have passed.

    Returns the median of each per-layer metric over the traced runs, and
    their number.
    """
    samples: list[dict] = []
    spec_events = len(json.loads(wl.scenario_text)["events"])
    started = time.perf_counter()
    # the benchmark writes nowhere outside its checkout, so the store's
    # file goes in a temporary directory there (ignored by git)
    with tempfile.TemporaryDirectory(prefix=".benchtmp-", dir=ROOT) as tmp:
        while len(samples) < 1 or time.perf_counter() - started < seconds:
            plain = tally.guarded("run", run_once, wl, controller.SequenceStore())
            if plain is None:
                break
            plain_run = plain[0]
            del plain
            tally.note("run", plain_run.failures + tally.check_digest(plain_run.digest))
            rec = tracing.SpanRecorder()
            with tracing.traced(rec):
                store = controller.SequenceStore(os.path.join(tmp, "store.json"))
                result = tally.guarded("traced run", run_once, wl, store)
            if result is None:
                break
            run, sim, report = result
            # the traced run's report must be the untraced one, byte for byte
            tally.note("traced run", run.failures + tally.check_digest(run.digest))
            stats = _layer_metrics(rec, sim, report, spec_events)
            stats["sim.canonical_text.bytes"] = run.report_bytes
            stats["leak_rate"] = run.leak_rate
            # the untraced run keeps its store in memory, so leave the file
            # writes out of the tracing cost
            stats["trace.overhead_ratio"] = (
                (run.wall_s - stats["controller.save_store.s"]) / plain_run.wall_s)
            samples.append(stats)
            del rec, result, run, sim, report
    keys = sorted(set().union(*samples))
    return {k: statistics.median(s.get(k, 0) for s in samples) for k in keys}, len(samples)


# -- reporting ---------------------------------------------------------------

UNITS = {
    "switch.rules_per_install": "rules/call",
    "controller.installs_per_punt": "rules/call",
    "leak_rate": "fraction",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if name in UNITS:
        return UNITS[name]
    if last in ("s", "self_s"):
        return "s"
    if last.endswith("_us"):
        return "us"
    if last == "bytes":
        return "bytes"
    if last.endswith("ratio"):
        return "ratio"
    if name.startswith(("bloom.fill", "bloom.est_fp_rate")):
        return "fraction"
    return "count"


def end_to_end(runs: list[Run], rss: list[float], tally: Tally) -> dict:
    """name -> (median, unit, samples) for every end-to-end metric."""
    def med(values):
        return statistics.median(values) if values else float("nan")
    return {
        "setup_s": (med([r.setup_s for r in runs]), "s", len(runs)),
        "packets_per_s": (med([r.packets_per_s for r in runs]), "packets/s", len(runs)),
        "wall_s": (med([r.wall_s for r in runs]), "s", len(runs)),
        "peak_rss_mib": (med(rss), "MiB", len(rss)),
        "leak_rate": (med([r.leak_rate for r in runs]), "fraction", len(runs)),
        "failed_frac": (_ratio(tally.failed, tally.attempted), "fraction", tally.attempted),
    }
