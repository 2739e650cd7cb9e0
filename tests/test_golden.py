"""Guards that the benchmark relies on, run with the main suite.

The four bundled scenarios must keep the report bytes recorded in
bench/golden_digests.json, and every name bench/tracing.py patches must
still live where it looks for it; otherwise a refactor could change
report bytes, or silently stop timing a layer, and still pass here.
"""

import hashlib
import importlib.util
import json
import os

import pytest

from conftest import run_bundled
from p4filter.bundled import SCENARIOS

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(BENCH, "golden_digests.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_report_matches_golden_digest(name, golden, default_topology):
    report, _ = run_bundled(name, default_topology)
    digest = hashlib.sha256(report.canonical_text().encode()).hexdigest()
    assert digest == golden[name]


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracing.PATCHES
               if attr not in vars(tracing.resolve(owner))]
    assert missing == []
