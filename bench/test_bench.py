"""Self-tests of the benchmark: generators, span arithmetic, patching and
output checks. Run with `python3 -m pytest bench -q` from the repo root."""

import dataclasses
import json
from pathlib import Path

import pytest

from p4filter import controller, scenario, topology

import harness
import tracing
import workloads

SMALL = {"stateful_forward": 60, "knock_admission": 40, "authorized_service": 4}
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def small(name, seed=3):
    return workloads.GENERATORS[name](seed, SMALL[name])


def fresh_run(wl):
    return harness.run_once(wl, controller.SequenceStore())


# -- generators ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_a_pure_function_of_seed_and_size(name):
    assert small(name, 5) == small(name, 5)
    assert small(name, 5).scenario_text != small(name, 6).scenario_text
    bigger = workloads.GENERATORS[name](5, SMALL[name] + 1)
    assert bigger.packets > small(name, 5).packets


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_output_is_accepted_by_the_parsers(name):
    wl = small(name)
    topo = topology.parse_topology(json.loads(wl.topology_text))
    spec = scenario.parse_scenario(json.loads(wl.scenario_text))
    acl = controller.parse_acl(json.loads(wl.acl_text))
    assert spec.events and topo.hosts
    assert set(wl.sent) <= {h.name for h in topo.hosts}
    assert all(entry.mac is not None for entry in acl.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_run_passes_every_check(name):
    run, _, report = fresh_run(small(name))
    assert run.failures == []
    assert run.packets == small(name).packets
    if name != "stateful_forward":
        assert run.leak_rate == 0


def test_knock_admission_topology_avoids_the_cpu_port():
    topo = json.loads(workloads.knock_admission(1, 1500).topology_text)
    ports = [p for s in topo["switches"] for p in s["ports"]]
    assert 55 not in ports


# -- span arithmetic -------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_intervals():
    rec = tracing.SpanRecorder()
    root = rec.record("a.root", 0, 100)
    first = rec.record("a.child", 10, 30, root)
    rec.record("a.child", 20, 40, root)          # overlaps the first child
    second = rec.record("a.child", 50, 80, root)
    rec.record("a.leaf", 55, 60, second)
    rec.record("a.leaf", 25, 35, first)          # runs past its parent's end
    assert tracing.self_times(rec) == [100 - 30 - 30, 20 - 5, 20, 30 - 5, 5, 10]


def test_layer_stats_fold_labels_and_gate_percentiles():
    rec = tracing.SpanRecorder()
    for i in range(1, tracing.PERCENTILE_MIN_CALLS + 1):     # 1..1000 us
        rec.record("m.f[x]", 0, 1000 * i)
    rec.record("m.f[y]", 0, 4000)
    rec.record("m.g", 0, 7000)
    stats = tracing.layer_stats(rec)
    assert stats["m.f.calls"] == tracing.PERCENTILE_MIN_CALLS + 1
    assert (stats["m.f.x.p50_us"], stats["m.f.x.p99_us"]) == (500, 990)
    assert (stats["m.f.p50_us"], stats["m.f.p99_us"]) == (500, 990)
    assert "m.f.y.p50_us" not in stats and "m.g.p50_us" not in stats
    assert stats["m.g.s"] == stats["m.g.self_s"] == pytest.approx(7e-6)


# -- tracing ---------------------------------------------------------------

def patched_names():
    """(owner, attribute, current value) for every patch target."""
    out = []
    for owner, attr, _, _ in tracing.PATCHES:
        obj = tracing.resolve(owner)
        out.append((obj, attr, getattr(obj, attr)))
    return out


def test_traced_run_restores_every_patched_name_and_keeps_the_digest():
    wl = small("knock_admission")
    before = patched_names()
    plain, _, _ = fresh_run(wl)
    rec = tracing.SpanRecorder()
    with tracing.traced(rec):
        assert all(getattr(o, a) is not v for o, a, v in before)
        traced, _, _ = fresh_run(wl)
    after = patched_names()
    assert all(a[2] is b[2] for a, b in zip(before, after))
    assert traced.digest == plain.digest
    assert {rec.names[i] for i in rec.name_id} >= {
        "packet.make_packet", "packet.decrement_ttl", "packet.parse_packet",
        "tables.lookup", "knocking.knock_step", "controller.handle_packet_in",
        "sim.run", "topology.build_network"}


def test_names_are_restored_when_the_traced_run_raises():
    before = patched_names()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.SpanRecorder()):
            raise RuntimeError("boom")
    assert all(a[2] is b[2] for a, b in zip(before, patched_names()))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_declared_per_layer_metric(name):
    # full size: percentiles need 1,000 calls
    tally = harness.Tally()
    stats, n = harness.traced_pairs(harness.generate(name, 3), 0, tally)
    assert n == 1 and tally.failed == 0 and tally.attempted == 2
    for metric in BENCHMARK["per_layer"]:
        assert metric["name"] in stats, metric["name"]
        assert metric["unit"] == harness.unit_of(metric["name"]), metric["name"]


def test_end_to_end_units_match_the_declared_ones():
    table = harness.end_to_end([], [], harness.Tally())
    for metric in BENCHMARK["end_to_end"]:
        assert table[metric["name"]][1] == metric["unit"]


# -- planted faults --------------------------------------------------------

def _report_copy(report, **changes):
    return dataclasses.replace(
        report, hosts={h: dict(c) for h, c in report.hosts.items()},
        trace=[dict(r) for r in report.trace], **changes)


def test_check_fires_on_a_host_counter_off_by_one():
    wl = small("stateful_forward")
    _, _, report = fresh_run(wl)
    bad = _report_copy(report)
    bad.hosts["h1"]["sent"] += 1
    failures, _ = workloads.check_report(wl, bad)
    assert any("conserve" in f for f in failures)
    assert any("h1: sent" in f for f in failures)


def test_check_fires_on_a_dropped_legitimate_packet():
    wl = small("authorized_service")
    _, _, report = fresh_run(wl)
    bad = _report_copy(report)
    record = next(r for r in bad.trace if r["verdict"] == "Forwarded"
                  and r["switch"] == "s6" and r["dport"] == 22)
    record["verdict"] = "Dropped"
    host = wl.classes[(record["src"], record["sport"])][1]
    bad.hosts[host]["delivered"] -= 1
    bad.hosts[host]["dropped"] += 1
    failures, _ = workloads.check_report(wl, bad)
    assert failures == ["1 legitimate packets were not delivered"]


def test_check_fires_on_a_delivered_blocked_packet():
    wl = small("knock_admission")
    _, _, report = fresh_run(wl)
    bad = _report_copy(report)
    record = next(r for r in bad.trace if r["verdict"] == "Dropped"
                  and wl.classes[(r["src"], r["sport"])][0] == workloads.BLOCK)
    record["verdict"] = "Forwarded"
    host = wl.classes[(record["src"], record["sport"])][1]
    bad.hosts[host]["delivered"] += 1
    bad.hosts[host]["dropped"] -= 1
    failures, leak = workloads.check_report(wl, bad)
    assert failures == ["1 block packets were delivered"]
    assert leak > 0


def test_check_fires_on_a_delivery_nobody_sent():
    wl = small("stateful_forward")
    _, _, report = fresh_run(wl)
    bad = _report_copy(report)
    stray = dict(next(r for r in bad.trace if r["verdict"] == "Forwarded"
                      and r["switch"] == wl.host_switch[r["dst"]]), sport=9)
    bad.trace.append(stray)
    failures, _ = workloads.check_report(wl, bad)
    assert any("never emitted" in f for f in failures)


def test_digest_check_fires_on_a_flipped_digest():
    tally = harness.Tally()
    assert tally.check_digest("ab" * 32) == []
    assert tally.check_digest("ab" * 32) == []
    assert tally.check_digest("ba" * 32) != []


def test_bundled_guard_passes_and_fires_on_a_flipped_golden_digest(tmp_path, monkeypatch):
    tally = harness.Tally()
    harness.bundled_guard(tally)
    assert (tally.attempted, tally.failed) == (4, 0)

    golden = json.loads(harness.GOLDEN_DIGESTS.read_text())
    golden["spoof"] = golden["spoof"][::-1]
    flipped = tmp_path / "golden.json"
    flipped.write_text(json.dumps(golden))
    monkeypatch.setattr(harness, "GOLDEN_DIGESTS", flipped)
    tally = harness.Tally()
    harness.bundled_guard(tally)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert "bundled spoof" in tally.problems[0]


def test_check_catches_the_h5_double_punt_pitfall():
    wl = small("authorized_service")
    spec = json.loads(wl.scenario_text)
    second_hello = {"host": "h5", "sport": workloads.HELLO_SPORT + 1}
    spec["events"] = [e for e in spec["events"]
                      if {k: e.get(k) for k in second_hello} != second_hello]
    without = dataclasses.replace(wl, scenario_text=json.dumps(spec),
                                  sent=dict(wl.sent, h5=wl.sent["h5"] - 1))
    run, _, _ = fresh_run(without)
    assert "legitimate packets were not delivered" in " ".join(run.failures)
