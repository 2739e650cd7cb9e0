"""p4filter benchmark: seeded workloads run through the public API.

    python3 bench/run.py --workload stateful_forward --seed 1 --seconds 55 --trace 0

`--trace 0` times untraced runs for `--seconds` and prints the end-to-end
metrics; `--trace 1` alternates untraced and traced runs and prints the
per-layer metrics. `--workload all` runs the three workloads in turn.
Every run's report is checked (see workloads.py), the four bundled
scenarios are compared with their recorded digests, and the last line of
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the ones BENCHMARK.json names for the chosen mode.
Exit status is 0 when every check held, 1 when one failed, and 2 when the
checkout has no p4filter source to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _use_checkout_source() -> None:
    """Import p4filter from this checkout's src/ or exit 2 without a result."""
    problem = None
    if (SRC / "p4filter" / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        import p4filter
        if Path(p4filter.__file__).resolve().parent != SRC / "p4filter":
            problem = f"imported p4filter from {p4filter.__file__}, not {SRC}"
    else:
        problem = f"no p4filter source at {SRC}"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        sys.exit(2)


def _declared_metrics(key: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[key]]


def _print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    print(f"  {'metric':40} {'value':>16}  {'unit':12} {'n':>5}")
    for name, value, unit, n in rows:
        text = f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"
        print(f"  {name:40} {text:>16}  {unit:12} {n:>5}")


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    """Measure one workload and print its table and JSON result line."""
    import harness

    tally = harness.Tally()
    harness.bundled_guard(tally)
    wl = harness.generate(name, seed)
    title = (f"{name}: seed {seed}, size {wl.size}, {wl.packets} packets per run, "
             f"{'traced' if trace else 'untraced'}")
    if trace:
        stats, n = harness.traced_pairs(wl, seconds, tally)
        rows = [(k, v, harness.unit_of(k), n) for k, v in stats.items()]
    else:
        runs = harness.measured_runs(wl, seconds, tally)
        rss = harness.child_peak_rss(name, seed, tally)
        rows = [(k, *row) for k, row in harness.end_to_end(runs, rss, tally).items()]
    _print_table(title, rows)
    for problem in tally.problems:
        print(f"FAILED {problem}")

    found = {k: {"value": v, "unit": unit} for k, v, unit, _ in rows if math.isfinite(v)}
    declared = _declared_metrics("per_layer" if trace else "end_to_end")
    missing = [k for k in declared if k not in found]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return False
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: found[k] for k in declared}}))
    return correct


def main() -> int:
    _use_checkout_source()
    import harness
    from workloads import GENERATORS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", action="store_true",
                        help="internal: run the workload once, print peak RSS")
    args = parser.parse_args()
    if args.rss_child:
        harness.rss_child_main(args.workload, args.seed)
        return 0
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    results = [bench_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
