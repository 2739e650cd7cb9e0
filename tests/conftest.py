import importlib.util
import json
import os
import sys

import pytest

from p4filter.bloom import bloom_hash
from p4filter.bundled import data_file, default_topology_path, scenario_path
from p4filter.controller import SequenceStore, load_acl, parse_acl
from p4filter.packet import make_packet
from p4filter.scenario import load_scenario, parse_scenario
from p4filter.sim import Simulator
from p4filter.topology import load_topology, parse_topology
from p4filter.verdict import CONSUMED, DROPPED, FORWARDED

import knock_reference

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="session")
def default_topology():
    return load_topology(default_topology_path())


@pytest.fixture
def fresh_store(tmp_path):
    return SequenceStore(str(tmp_path / "store.json"))


def load_bundled_scenario(name):
    """(scenario, acl) pair for a packaged scenario name."""
    scenario = load_scenario(scenario_path(name))
    acl = load_acl(data_file(scenario.acl_path)) if scenario.acl_path else {}
    return scenario, acl


def run_bundled(name, topo, store=None, seed=None):
    scenario, acl = load_bundled_scenario(name)
    sim = Simulator(topo, acl, store if store is not None else SequenceStore(),
                    seed=seed if seed is not None else scenario.seed)
    return sim.run(scenario), scenario


# The single-filter reference: one Bloom filter's bit for a key, set and
# tested as BloomPair does for each of its members.
def filter_insert(f, key):
    f.bits |= 1 << bloom_hash(key, f.hash_id, f.m)
    f.inserted_count += 1


def filter_contains(f, key):
    return bool(f.bits >> bloom_hash(key, f.hash_id, f.m) & 1)


def syn(src="10.0.1.1", dst="10.0.9.9", sport=1000, dport=80,
        src_mac="02:00:00:00:01:01", dst_mac="02:00:00:00:09:09", **kw):
    return make_packet(src_ip=src, dst_ip=dst, src_mac=src_mac, dst_mac=dst_mac,
                       sport=sport, dport=dport, **kw)


_REFERENCE_LABELS = {
    CONSUMED: knock_reference.CONSUME,
    FORWARDED: knock_reference.FORWARD,
    DROPPED: knock_reference.DROP,
}


def reference_label(kind):
    """knock_reference's label for a knock_step verdict kind."""
    if kind not in _REFERENCE_LABELS:
        raise ValueError(f"verdict kind {kind!r} has no knock_reference label")
    return _REFERENCE_LABELS[kind]


def fixture_json(name):
    with open(os.path.join(FIXTURES, name)) as f:
        return json.load(f)


def load_bench(name):
    """Load bench/<name>.py in place, as the benchmark itself runs it."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def workload_report(name, size, seed=1):
    """The report of one of the benchmark's workloads, generated at `size`."""
    wl = load_bench("workloads").GENERATORS[name](seed, size)
    spec = parse_scenario(json.loads(wl.scenario_text))
    return Simulator(parse_topology(json.loads(wl.topology_text)),
                     parse_acl(json.loads(wl.acl_text)), SequenceStore(),
                     seed=spec.seed).run(spec)
