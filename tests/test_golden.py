"""Guards that the benchmark relies on, run with the main suite.

The four bundled scenarios must keep the report bytes recorded in
bench/golden_digests.json, the benchmark's seed-1 workloads the ones
recorded here, and every name bench/tracing.py patches must still live
where it looks for it; otherwise a refactor could change report bytes,
or silently stop timing a layer, and still pass here.
"""

import hashlib
import json
import os

import pytest

from conftest import BENCH, load_bench, run_bundled, workload_report
from p4filter.bundled import SCENARIOS

# The seed-1 report digests of the benchmark's workloads, at the sizes
# bench/harness.py runs them.
WORKLOAD_DIGESTS = {
    ("stateful_forward", 600):
        "854089bd8a0b55ea83b5bd825ae79e8c1e706d610b72b71af90ea243b6f519ea",
    ("knock_admission", 300):
        "e24cc5087108763889a2b6a0dc9f79bda125127005d3db66d71151855b9da7f7",
    ("authorized_service", 30):
        "5da5eb84298ab7317760efee1ab0b8211d47d0ad89115d69ac75965f8a59f4b4",
}


def load_tracing():
    return load_bench("tracing")


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(BENCH, "golden_digests.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_report_matches_golden_digest(name, golden, default_topology):
    report, _ = run_bundled(name, default_topology)
    digest = hashlib.sha256(report.canonical_text().encode()).hexdigest()
    assert digest == golden[name]


@pytest.mark.parametrize("name, size", WORKLOAD_DIGESTS,
                         ids=[name for name, _ in WORKLOAD_DIGESTS])
def test_workload_report_matches_recorded_digest(name, size):
    report = workload_report(name, size)
    digest = hashlib.sha256(report.canonical_text().encode()).hexdigest()
    assert digest == WORKLOAD_DIGESTS[name, size]


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracing.PATCHES
               if attr not in vars(tracing.resolve(owner))]
    assert missing == []
