"""Command-line entry point.

`p4filter run` executes one scenario against a topology and writes the run
report; the exit code reflects the scenario's expect block. `p4filter
validate` checks a topology file without running anything. Exit codes:
0 success, 1 expectation failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import os
import sys

from .controller import (MalformedAcl, MalformedStore, PersistenceFailure,
                         SequenceStore, load_acl, load_store)
from .scenario import InvalidScenario, NoSequence, load_scenario
from .sim import evaluate_expect, run_scenario
from .topology import InvalidTopology, load_topology

EXIT_OK = 0
EXIT_EXPECT_FAILED = 1
EXIT_BAD_INPUT = 2


class ReportNotWritten(Exception):
    """The run report could not be written to the --out path."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p4filter",
        description="Layered-firewall switch pipeline simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and report per-host outcomes")
    run.add_argument("--topology", required=True, help="topology JSON file")
    run.add_argument("--scenario", required=True, help="scenario JSON file")
    run.add_argument("--acl", help="ACL JSON file (default: the scenario's 'acl' entry)")
    run.add_argument("--store", help="knock-sequence store JSON file (created if missing)")
    run.add_argument("--seed", type=int, help="override the scenario's seed")
    run.add_argument("--out", help="write the run report JSON here")

    validate = sub.add_parser("validate", help="check a topology file")
    validate.add_argument("--topology", required=True, help="topology JSON file")
    return parser


def _cmd_validate(args) -> int:
    topo = load_topology(args.topology)
    print(f"ok: {len(topo.switches)} switches, {len(topo.hosts)} hosts, "
          f"{len(topo.links)} links")
    return EXIT_OK


def _cmd_run(args) -> int:
    topo = load_topology(args.topology)
    scenario = load_scenario(args.scenario)

    acl_path = args.acl
    if acl_path is None and scenario.acl_path is not None:
        # scenario-relative reference
        acl_path = os.path.join(os.path.dirname(os.path.abspath(args.scenario)),
                                scenario.acl_path)
    acl = load_acl(acl_path) if acl_path is not None else {}

    store = load_store(args.store) if args.store else SequenceStore()

    report = run_scenario(topo, scenario, acl, store, seed=args.seed)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(report.canonical_text())
        except OSError as e:
            raise ReportNotWritten(f"cannot write report file {args.out}: {e}") from e

    failures = evaluate_expect(report, scenario.expect)
    for line in failures:
        print(f"expect failed: {line}", file=sys.stderr)
    summary = ", ".join(
        f"{host}: " + "/".join(str(c[k]) for k in ("sent", "delivered", "dropped",
                                                   "punted", "consumed"))
        for host, c in report.hosts.items() if c["sent"]
    )
    print(f"{report.scenario}: {summary or 'no traffic'}")
    print("hosts report sent/delivered/dropped/punted/consumed; "
          + ("FAIL" if failures else "all expectations hold"))
    return EXIT_EXPECT_FAILED if failures else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_run(args)
    except (InvalidTopology, InvalidScenario, MalformedAcl, MalformedStore,
            PersistenceFailure, NoSequence, ReportNotWritten) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
