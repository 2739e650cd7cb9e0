import dataclasses
import json
from collections import Counter

import pytest

from conftest import load_bench, load_bundled_scenario, run_bundled, workload_report
from p4filter import sim as sim_module
from p4filter import tables, topology
from p4filter.bundled import SCENARIOS
from p4filter.controller import SequenceStore, load_store, parse_acl
from p4filter.packet import parse_packet, serialize_packet
from p4filter.scenario import (InvalidScenario, NoSequence, ScenarioEvent, ScenarioSpec,
                               SendAction, parse_scenario)
from p4filter.sim import (CountersNotConserved, RunReport, Simulator, TimeReversal,
                         evaluate_expect, run_scenario)
from p4filter.switch import FEAT_KNOCKING, P4Switch
from p4filter.topology import compute_routes, parse_topology


def simulate(default_topology, obj, acl_entries=(), store=None, seed=None):
    scenario = parse_scenario(obj)
    return run_scenario(default_topology, scenario,
                        acl=parse_acl(list(acl_entries)),
                        store=store if store is not None else SequenceStore(),
                        seed=seed)


@pytest.mark.parametrize("name", SCENARIOS)
class TestBundledScenarios:
    def test_expectations_met(self, name, default_topology):
        report, scenario = run_bundled(name, default_topology)
        assert evaluate_expect(report, scenario.expect) == []

    def test_packet_conservation(self, name, default_topology):
        report, _ = run_bundled(name, default_topology)
        assert report.conservation_holds()

    def test_reruns_are_byte_identical(self, name, default_topology):
        first, _ = run_bundled(name, default_topology)
        second, _ = run_bundled(name, default_topology)
        assert first.canonical_text() == second.canonical_text()


# the keys of a trace record, in the order the simulator has always built them
RECORD_KEYS = ["time", "switch", "verdict", "stage", "src", "dst", "sport", "dport",
               "reason"]


@pytest.mark.parametrize("name", SCENARIOS)
class TestTraceRows:
    """The report keeps its trace as rows; `report.trace` still reads as the
    list of record dicts it used to be."""

    def test_records_are_the_reports_in_key_order(self, name, default_topology):
        report, _ = run_bundled(name, default_topology)
        records = list(report.trace)
        # the digests pin the text, so its records are the old dicts' values
        assert records == json.loads(report.canonical_text())["trace"]
        assert all(list(r) == RECORD_KEYS for r in records)
        assert [report.trace[i] for i in range(len(records))] == records
        assert report.trace[-1] == records[-1]
        with pytest.raises(TypeError):
            report.trace[1:4]
        assert report.to_json_dict()["trace"] == records

    def test_each_read_is_a_fresh_dict(self, name, default_topology):
        report, _ = run_bundled(name, default_topology)
        first = report.trace[0]
        first["verdict"] = "changed"
        assert report.trace[0] is not first
        assert report.trace[0]["verdict"] != "changed"

    def test_len_is_the_record_count(self, name, default_topology):
        report, _ = run_bundled(name, default_topology)
        assert len(report.trace) == sum(1 for _ in report.trace) == len(
            json.loads(report.canonical_text())["trace"])

    def test_a_list_of_records_renders_the_same_bytes(self, name, default_topology):
        report, _ = run_bundled(name, default_topology)
        as_dicts = dataclasses.replace(report, trace=[dict(r) for r in report.trace])
        assert as_dicts.canonical_text() == report.canonical_text()
        assert as_dicts.to_json_dict() == report.to_json_dict()
        assert as_dicts == report == run_bundled(name, default_topology)[0]

    def test_rows_share_one_text_per_address(self, name, default_topology):
        report, _ = run_bundled(name, default_topology)
        assert_rows_share_address_text(report.trace.rows)


@pytest.mark.parametrize("name", SCENARIOS)
class TestRuleRows:
    """The report keeps each switch's rules as rows; `report.rules` still
    reads as the lists of rule dicts it used to hold."""

    def test_records_are_the_reports(self, name, default_topology):
        report, _ = run_bundled(name, default_topology)
        rules = json.loads(report.canonical_text())["rules"]
        assert {sid: list(rows) for sid, rows in report.rules.items()} == rules
        for sid, rows in report.rules.items():
            assert [rows[i] for i in range(len(rows))] == rules[sid]
            with pytest.raises(TypeError):
                rows[1:4]
        assert report.to_json_dict()["rules"] == rules

    def test_each_read_is_a_fresh_dict(self, name, default_topology):
        report, _ = run_bundled(name, default_topology)
        text = report.canonical_text()
        sid, i = next((sid, i) for sid, rows in report.rules.items()
                      for i, record in enumerate(rows) if record["params"])
        first = report.rules[sid][i]
        kept = json.loads(json.dumps(first))
        first["action"] = "changed"
        first["key"].append("changed")
        first["params"]["changed"] = 1
        assert report.rules[sid][i] is not first
        assert report.rules[sid][i] == kept
        assert report.canonical_text() == text

    def test_len_is_the_entry_count(self, name, default_topology):
        report, _ = run_bundled(name, default_topology)
        rules = json.loads(report.canonical_text())["rules"]
        for sid, rows in report.rules.items():
            assert len(rows) == sum(1 for _ in rows) == len(rules[sid])

    def test_lists_of_records_compare_equal(self, name, default_topology):
        report, _ = run_bundled(name, default_topology)
        as_lists = dataclasses.replace(
            report, rules={sid: list(rows) for sid, rows in report.rules.items()})
        assert as_lists == report == run_bundled(name, default_topology)[0]
        assert as_lists.to_json_dict() == report.to_json_dict()


def assert_rows_share_address_text(rows):
    """Every row names an address by the one string that address renders, so
    a long trace holds one copy of each host's text, not one per row."""
    first = {}
    for row in rows:
        for text in row[4:6]:
            assert first.setdefault(text, text) is text
    assert len(first) < len(rows)


def test_workload_rows_share_one_text_per_address():
    rows = workload_report("stateful_forward", 20).trace.rows
    from_h1 = [row for row in rows if row[4] == "10.0.1.1"]
    # a row of another packet (another source port) from the same host
    other = next(row for row in from_h1 if row[6] != from_h1[0][6])
    assert other[4] is from_h1[0][4]
    assert_rows_share_address_text(rows)


def test_workload_lookups_per_table(monkeypatch):
    """Table lookups of seed-1 stateful_forward, by switch and table. A
    switch without knocking never looks up its empty presence table, and a
    pass looks its route up once, also where the stateful stage needs it."""
    networks, looked_up = [], Counter()
    build, lookup = sim_module.build_network, tables.Table.lookup

    def keep_network(*args):
        networks.append(build(*args))
        return networks[-1]

    def count_lookup(table, key):
        looked_up[id(table)] += 1
        return lookup(table, key)

    monkeypatch.setattr(sim_module, "build_network", keep_network)
    monkeypatch.setattr(tables.Table, "lookup", count_lookup)
    workload_report("stateful_forward", 600)
    (network,) = networks
    per_table = {(sid, table.name): looked_up[id(table)]
                 for sid, switch in network.items() for table in switch.tables.values()
                 if looked_up[id(table)]}
    assert not [sid for sid, switch in network.items()
                if FEAT_KNOCKING not in switch.config.features
                and (sid, "present_table") in per_table]
    assert per_table == {("s1", "check_ports"): 3600, ("s1", "ipv4_forward"): 2411,
                         ("s3", "ipv4_forward"): 3000, ("s4", "ipv4_forward"): 3000,
                         ("s5", "ipv4_forward"): 3000}


@pytest.mark.parametrize("name", SCENARIOS)
def test_hot_path_calls_the_names_the_tracer_times(name, default_topology):
    """The benchmark's per-layer metrics come from wrappers that
    bench/tracing.py puts on each name where its caller reads it. A fast
    path that skipped one of those names would leave its metrics empty, so
    the counts must still be the report's."""
    tracing = load_bench("tracing")
    recorder = tracing.SpanRecorder()
    with tracing.traced(recorder):
        report, _ = run_bundled(name, default_topology)
    calls = tracing.layer_stats(recorder)
    records = list(report.trace)
    assert calls["switch.process_packet.calls"] == len(records) > 0
    assert calls.get("packet.decrement_ttl.calls", 0) == sum(
        r["reason"] in ("forwarded", "ttl expired") for r in records)
    assert calls["packet.make_packet.calls"] == sum(
        counters["sent"] for counters in report.hosts.values())


class TestNoTeleportation:
    """Unique flow tuples let the trace be split into per-packet journeys;
    each journey must start at the sender's own switch and advance one
    topology link per tick."""

    SCENARIO = {
        "name": "journeys", "seed": 1, "events": [
            {"time": 0, "host": "h1", "action": "send", "dst": "h4",
             "dport": 80, "sport": 5001},
            {"time": 0, "host": "h3", "action": "send", "dst": "h5",
             "dport": 81, "sport": 5002},
            {"time": 2, "host": "h5", "action": "send", "dst": "h1",
             "dport": 82, "sport": 5003},
            {"time": 3, "host": "h2", "action": "send", "dst": "h3",
             "dport": 83, "sport": 5004},
        ],
    }

    def test_every_journey_walks_links(self, default_topology):
        report = simulate(default_topology, self.SCENARIO)
        linked = set()
        for link in default_topology.links:
            linked.add((link.switch_a, link.switch_b))
            linked.add((link.switch_b, link.switch_a))
        host_switch = {str(h.ip): h.switch
                       for h in default_topology.hosts}

        journeys = {}
        for record in report.trace:
            tup = (record["src"], record["dst"], record["sport"],
                   record["dport"])
            journeys.setdefault(tup, []).append(record)

        assert len(journeys) == 4
        for tup, records in journeys.items():
            assert records[0]["switch"] == host_switch[tup[0]], tup
            for a, b in zip(records, records[1:]):
                assert b["time"] == a["time"] + 1, tup
                assert (a["switch"], b["switch"]) in linked, tup
            for record in records[:-1]:
                assert record["verdict"] == "Forwarded"

    def test_h1_to_h4_path_and_delivery(self, default_topology):
        report = simulate(default_topology, self.SCENARIO)
        hops = [r["switch"] for r in report.trace if r["sport"] == 5001]
        assert hops == ["s1", "s3", "s4", "s5"]
        assert report.hosts["h1"]["delivered"] == 1


class TestSameTickPuntResolution:
    """The controller answers a punt within the punting tick, so a second
    packet arriving at that same tick already sees the installed rules."""

    SCENARIO = {
        "name": "burst", "seed": 3, "events": [
            {"time": 0, "host": "h6", "action": "send", "dst": "h7",
             "dport": 9999},
            {"time": 0, "host": "h6", "action": "send", "dst": "h7",
             "dport": 9999},
        ],
    }
    ACL = [{"ip": "10.0.6.1", "mac": "02:00:00:00:06:01",
            "verdict": "allow"}]

    def test_second_packet_hits_installed_rules(self, default_topology):
        report = simulate(default_topology, self.SCENARIO, self.ACL)
        assert report.hosts["h6"] == {"sent": 2, "delivered": 0,
                                      "dropped": 1, "punted": 1,
                                      "consumed": 0}
        reasons = [r["reason"] for r in report.trace]
        assert reasons == ["present_table punt", "wrong knock"]
        assert "punt pending" not in reasons

    def test_rules_visible_in_report(self, default_topology):
        report = simulate(default_topology, self.SCENARIO, self.ACL)
        s6 = report.rules["s6"]
        assert {"table": "present_table", "key": ["10.0.6.1"],
                "action": "SetAllowed", "params": {}} in s6
        assert sum(r["table"] == "knock_rules" for r in s6) == 4


class TestKnockAuthEndState:
    def test_sequence_store_and_stages(self, default_topology):
        report, _ = run_bundled("knock_auth", default_topology)
        assert report.sequences == {
            "10.0.1.2": {"knocks": [30671, 57761, 37709], "service": 22}}
        assert report.knock_stages == {"s6": {"10.0.1.2": 3}}

    def test_denied_host_rule_installed(self, default_topology):
        """h5 punts at its own switch (s2, stateless stage), so that is
        where the deny lands; it never reaches s6."""
        report, _ = run_bundled("knock_auth", default_topology)
        assert {"table": "present_table", "key": ["10.0.2.1"],
                "action": "Drop", "params": {}} in report.rules["s2"]
        assert not any(r["switch"] == "s6" and r["src"] == "10.0.2.1"
                       for r in report.trace)

    def test_store_file_written_during_run(self, default_topology, tmp_path):
        path = str(tmp_path / "store.json")
        report, _ = run_bundled("knock_auth", default_topology,
                                store=SequenceStore(path))
        loaded = load_store(path)
        assert loaded.to_json_dict() == report.sequences

    def test_seed_override_changes_sequences(self, default_topology):
        default, _ = run_bundled("knock_auth", default_topology)
        other, _ = run_bundled("knock_auth", default_topology, seed=99)
        assert default.sequences != other.sequences
        again, _ = run_bundled("knock_auth", default_topology, seed=99)
        assert other.canonical_text() == again.canonical_text()


class TestScenarioErrors:
    def test_unknown_sender(self, default_topology):
        with pytest.raises(InvalidScenario, match="unknown host"):
            simulate(default_topology, {
                "name": "x", "seed": 1, "events": [
                    {"time": 0, "host": "h9", "action": "send",
                     "dst": "h1", "dport": 80}]})

    def test_unknown_destination(self, default_topology):
        with pytest.raises(InvalidScenario, match="unknown host"):
            simulate(default_topology, {
                "name": "x", "seed": 1, "events": [
                    {"time": 0, "host": "h1", "action": "send",
                     "dst": "h9", "dport": 80}]})

    def test_unknown_spoof_identity(self, default_topology):
        with pytest.raises(InvalidScenario, match="unknown host"):
            simulate(default_topology, {
                "name": "x", "seed": 1, "events": [
                    {"time": 0, "host": "h1", "action": "send",
                     "dst": "h3", "dport": 80, "src_ip_of": "h9"}]})

    def test_later_unknown_host_stops_the_run_before_tick_zero(self, default_topology):
        store = SequenceStore()
        with pytest.raises(InvalidScenario, match="unknown host 'h9'"):
            simulate(default_topology, {
                "name": "x", "seed": 1, "events": [
                    {"time": 0, "host": "h2", "action": "send", "dst": "h7",
                     "dport": 22},
                    {"time": 10, "host": "h2", "action": "knock", "dst": "h7",
                     "sequence_of": "h9"}]},
                acl_entries=[{"ip": "10.0.1.2", "mac": "02:00:00:00:01:02",
                              "verdict": "allow"}], store=store)
        assert store.sequences == {}

    def test_unknown_host_in_a_send_of_no_packets(self, default_topology):
        with pytest.raises(InvalidScenario, match="unknown host 'h9'"):
            simulate(default_topology, {
                "name": "x", "seed": 1, "events": [
                    {"time": 0, "host": "h1", "action": "send", "dst": "h3",
                     "dport": 80, "src_mac_of": "h9", "repeat": 0}]})

    def test_knock_without_stored_sequence(self, default_topology):
        with pytest.raises(NoSequence):
            simulate(default_topology, {
                "name": "x", "seed": 1, "events": [
                    {"time": 0, "host": "h2", "action": "knock",
                     "dst": "h7"}]})

    def test_knock_owner_never_allowed_stops_the_run_before_tick_zero(
            self, default_topology):
        store = SequenceStore()
        with pytest.raises(NoSequence, match="no stored sequence for 10.0.2.1"):
            simulate(default_topology, {
                "name": "x", "seed": 1, "events": [
                    {"time": 0, "host": "h2", "action": "send", "dst": "h7",
                     "dport": 22},
                    {"time": 10, "host": "h5", "action": "knock", "dst": "h7"}]},
                acl_entries=[{"ip": "10.0.1.2", "verdict": "allow"}], store=store)
        assert store.sequences == {}

    def test_allowed_knock_owner_not_yet_admitted_fails_at_its_tick(
            self, default_topology):
        """An allow entry could still store h1's sequence during the run,
        so its knock fails only when its tick comes, after h2's admission."""
        store = SequenceStore()
        with pytest.raises(NoSequence, match="no stored sequence for 10.0.1.1"):
            simulate(default_topology, {
                "name": "x", "seed": 1, "events": [
                    {"time": 0, "host": "h2", "action": "send", "dst": "h7",
                     "dport": 22},
                    {"time": 10, "host": "h1", "action": "knock", "dst": "h7"}]},
                acl_entries=[{"ip": "10.0.1.1", "verdict": "allow"},
                             {"ip": "10.0.1.2", "verdict": "allow"}], store=store)
        assert list(store.to_json_dict()) == ["10.0.1.2"]

    def test_preinstall_unknown_switch(self, default_topology):
        with pytest.raises(InvalidScenario, match="unknown switch"):
            simulate(default_topology, {
                "name": "x", "seed": 1, "events": [],
                "preinstall": [{"switch": "s9", "table": "check_ip",
                                "key": ["10.0.1.1"],
                                "action": "SetAllowed"}]})

    def test_preinstall_unknown_table(self, default_topology):
        with pytest.raises(InvalidScenario, match="on s1: no table named 'nat'"):
            simulate(default_topology, {
                "name": "x", "seed": 1, "events": [],
                "preinstall": [{"switch": "s1", "table": "nat",
                                "key": ["10.0.1.1"],
                                "action": "SetAllowed"}]})

    def test_preinstall_params_may_share_a_name_with_an_argument(self, default_topology):
        """An action takes only its kind's declared parameter, as a P4
        action does: a name such as `kind` or `cls` is refused by name,
        never a crash in how the action is built."""
        for table, kind, params, given in (
                ("ipv4_forward", "Forward", {"kind": 1, "port": 3}, "kind"),
                ("check_ip", "SetAllowed", {"cls": 1}, "cls")):
            with pytest.raises(InvalidScenario, match=(
                    f"bad preinstall rule {table} \\['10.0.1.1'\\] on s1: "
                    f"action {kind} has no parameter '{given}'")):
                simulate(default_topology, {
                    "name": "x", "seed": 1, "events": [],
                    "preinstall": [{"switch": "s1", "table": table,
                                    "key": ["10.0.1.1"], "action": kind,
                                    "params": params}]})


class TestEmittedFrames:
    """A packet carries no IPv4 checksum; the one the deparser writes must
    still be right. Every packet a switch forwards or punts serializes to a
    frame that parse_packet accepts, checksum included, and that parses back
    to the same packet."""

    @staticmethod
    def check_emitted_frames(monkeypatch, run):
        """Run, check every packet a switch pass emitted, and count them."""
        emitted = []
        process = P4Switch.process_packet

        def keep_out(switch, ingress_port, packet):
            result = process(switch, ingress_port, packet)
            if result[2] is not None:
                emitted.append(result[2].packet)
            return result

        monkeypatch.setattr(P4Switch, "process_packet", keep_out)
        run()
        for packet in emitted:
            assert parse_packet(serialize_packet(packet)) == packet
        return len(emitted)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_bundled_scenario(self, name, default_topology, monkeypatch):
        self.check_emitted_frames(monkeypatch, lambda: run_bundled(name, default_topology))

    @pytest.mark.parametrize("name", sorted(load_bench("workloads").GENERATORS))
    def test_bench_workload(self, name, monkeypatch):
        assert self.check_emitted_frames(monkeypatch, lambda: workload_report(name, 40))


class TestTimeOrder:
    """The parser refuses a negative gap; a spec built without it must
    still not schedule packets before the tick being processed."""

    @staticmethod
    def run_events(topo, *events):
        spec = ScenarioSpec(name="t", seed=0, acl_path=None, events=events)
        return run_scenario(topo, spec, acl={}, store=SequenceStore())

    def test_scheduling_into_the_past_raises(self, default_topology):
        send = SendAction(dst="h3", dport=80, repeat=3, gap=-5)
        with pytest.raises(TimeReversal, match="tick 0 while processing tick 5"):
            self.run_events(default_topology, ScenarioEvent(5, "h1", send))

    def test_negative_start_time_raises(self, default_topology):
        send = SendAction(dst="h3", dport=80)
        with pytest.raises(TimeReversal, match="tick -1 while processing tick 0"):
            self.run_events(default_topology, ScenarioEvent(-1, "h1", send))

    def test_a_tick_runs_its_items_in_push_order(self, default_topology):
        """h1's event expands into two packets at tick 0; they queue behind
        h3's event, which is already waiting at that tick."""
        report = self.run_events(
            default_topology,
            ScenarioEvent(0, "h1", SendAction(dst="h3", dport=80, repeat=2, gap=0)),
            ScenarioEvent(0, "h3", SendAction(dst="h5", dport=81)))
        assert [(r["src"], r["sport"]) for r in report.trace if r["time"] == 0] == [
            ("10.0.1.1", 40000), ("10.0.1.1", 40001), ("10.0.5.1", 40000)]

    def test_same_tick_is_allowed(self, default_topology):
        send = SendAction(dst="h3", dport=80, repeat=3, gap=0)
        report = self.run_events(default_topology, ScenarioEvent(5, "h1", send))
        assert report.hosts["h1"]["sent"] == 3


class TestEphemeralPorts:
    def test_sports_count_up_per_host(self, default_topology):
        report = simulate(default_topology, {
            "name": "x", "seed": 1, "events": [
                {"time": 0, "host": "h1", "action": "send", "dst": "h4",
                 "dport": 80, "repeat": 3},
                {"time": 10, "host": "h3", "action": "send", "dst": "h4",
                 "dport": 80}]})
        h1_sports = sorted({r["sport"] for r in report.trace
                            if r["src"] == "10.0.1.1"})
        h3_sports = sorted({r["sport"] for r in report.trace
                            if r["src"] == "10.0.5.1"})
        assert h1_sports == [40000, 40001, 40002]
        assert h3_sports == [40000]

    def test_sports_wrap_to_40000_after_65535(self, default_topology):
        """The 25,537th packet of one host reuses 40000; it once ran past
        65535 and the TCP header refused it."""
        report = simulate(default_topology, {
            "name": "x", "seed": 1, "events": [
                {"time": 0, "host": "h1", "action": "send", "dst": "h3",
                 "dport": 80, "repeat": 25537, "gap": 0}]})
        sports = [r["sport"] for r in report.trace if r["switch"] == "s1"]
        assert sports == [*range(40000, 65536), 40000]
        assert report.hosts["h1"]["sent"] == report.hosts["h1"]["delivered"] == 25537


class TestReportChecks:
    def test_evaluate_expect_reports_mismatches(self, default_topology):
        report, scenario = run_bundled("stateful_iperf", default_topology)
        failures = evaluate_expect(report, {"hosts": {
            "h1": {"delivered": 99, "sent": 5},
            "h3": {"dropped": 7},
        }})
        assert set(failures) == {
            "h1: expected delivered=99, got 5",
            "h3: expected dropped=7, got 3",
        }

    def test_conservation_detects_losses(self):
        report = RunReport(scenario="x", seed=0, trace=[], rules={},
                           sequences={}, knock_stages={},
                           hosts={"h1": {"sent": 3, "delivered": 1,
                                         "dropped": 1, "punted": 0,
                                         "consumed": 0}})
        assert not report.conservation_holds()

    def test_report_refuses_counters_that_do_not_conserve(
            self, default_topology, monkeypatch):
        scenario, _ = load_bundled_scenario("stateless_block")
        sim = Simulator(default_topology, {}, SequenceStore(), seed=0)
        monkeypatch.setitem(sim._stats["h2"], "sent", 1)
        with pytest.raises(CountersNotConserved, match="'h2': {'sent': 1, "):
            sim.run(scenario)

    def test_canonical_text_is_valid_sorted_json(self, default_topology):
        report, _ = run_bundled("spoof", default_topology)
        text = report.canonical_text()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        assert parsed["scenario"] == "spoof" and parsed["seed"] == 23


class TestRouteHandOut:
    def test_routes_are_computed_once_per_simulator(self, default_topology,
                                                    monkeypatch):
        """One route computation feeds both the static routes and the
        controller's hand-out."""
        calls = []

        def counting(spec):
            calls.append(spec)
            return original(spec)
        original = topology.compute_routes
        monkeypatch.setattr(topology, "compute_routes", counting)
        monkeypatch.setattr(sim_module, "compute_routes", counting)
        sim = Simulator(default_topology, {}, SequenceStore(), seed=0)
        assert calls == [default_topology]
        assert sim.controller.routes == original(default_topology)

    def test_knock_admission_hands_each_switch_its_routes_once(self):
        """At the benchmark's size: every switch with an allowed punt ends
        with exactly its computed routes, and was handed each route once."""
        wl = load_bench("workloads").GENERATORS["knock_admission"](1, 300)
        spec = parse_scenario(json.loads(wl.scenario_text))
        topo = parse_topology(json.loads(wl.topology_text))
        sim = Simulator(topo, parse_acl(json.loads(wl.acl_text)), SequenceStore(),
                        seed=spec.seed)
        handed, allowed = Counter(), set()
        handle = sim.controller.handle_packet_in

        def counting(switch_id, raw):
            installs = handle(switch_id, raw)
            for table, rule in installs:
                if table == "ipv4_forward":
                    handed[switch_id, rule.key[0]] += 1
                elif table == "present_table" and rule.action.kind == tables.SET_ALLOWED:
                    allowed.add(switch_id)
            return installs

        sim.controller.handle_packet_in = counting
        sim.run(spec)
        routes = compute_routes(topo)
        assert allowed
        for sid in allowed:
            installed = sim.network[sid].ipv4_forward.rules
            assert {key[0]: rule.action.data
                    for key, rule in installed.items()} == routes[sid]
        assert handed == Counter({(sid, dst): 1 for sid in allowed for dst in routes[sid]})
