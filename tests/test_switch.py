import itertools

import pytest

from p4filter import tables as tb
from p4filter.controller import SequenceStore
from p4filter.packet import (Ipv4Address, MacAddr, make_packet,
                             parse_packet, serialize_packet, tcp_flags)
from p4filter.scenario import parse_scenario
from p4filter.sim import run_scenario
from p4filter.switch import (CPU_PORT, FEAT_KNOCKING, FEAT_STATEFUL,
                             FEAT_STATELESS, P4Switch, SwitchConfig,
                             UnknownPort)
from p4filter.topology import parse_topology
from p4filter.verdict import CONSUMED, DROPPED, FORWARDED, PUNTED, Verdict

A_IP, A_MAC = "10.0.9.1", "02:00:00:00:09:01"
B_IP, B_MAC = "10.0.9.2", "02:00:00:00:09:02"
D_IP, D_MAC = "10.0.9.99", "02:00:00:00:09:63"


def switch(features=(), internal=()):
    return P4Switch(SwitchConfig(switch_id="s9", ports=(1, 2, 3),
                                 features=frozenset(features),
                                 internal_ports=tuple(internal)))


def pkt(src_ip=A_IP, src_mac=A_MAC, dst_ip=D_IP, dport=80, sport=40000,
        flags="SYN", ttl=64):
    return make_packet(src_mac=src_mac, dst_mac=D_MAC, src_ip=src_ip,
                       dst_ip=dst_ip, sport=sport, dport=dport,
                       flags=tcp_flags(*flags.split("|")), ttl=ttl)


def ip(text):
    return Ipv4Address.from_text(text)


def route(sw, dst, port):
    sw.tables["ipv4_forward"].insert(tb.Rule((ip(dst),), tb.forward(port)))


def allow_stateless(sw, host_ip, host_mac):
    sw.tables["check_ip"].insert(tb.Rule((ip(host_ip),), tb.set_allowed()))
    sw.tables["check_mac"].insert(
        tb.Rule((ip(host_ip), MacAddr.from_text(host_mac)), tb.set_allowed()))


def knock_installs(host_ip, knocks=(2222, 3333, 4444), service=80):
    ports = list(knocks) + [service]
    return [("knock_rules", tb.Rule((ip(host_ip), port),
                                    tb.set_allowed(pos=pos)))
            for pos, port in enumerate(ports)]


class TestPlainForwarder:
    def test_forwards_on_route(self):
        sw = switch()
        route(sw, D_IP, 3)
        _, _, out = sw.process_packet(1, pkt(ttl=64))
        assert out.egress_port == 3
        assert out.packet.ip.ttl == 63

    def test_ttl_checksum_recomputed(self):
        sw = switch()
        route(sw, D_IP, 3)
        original = serialize_packet(pkt(ttl=64))
        _, _, out = sw.process_packet(1, parse_packet(original))
        forwarded = serialize_packet(out.packet)
        # the emitted header must checksum to zero when re-verified
        assert parse_packet(forwarded).ip.ttl == 63
        # the IPv4 checksum's two bytes
        assert forwarded[24:26] != original[24:26]

    def test_no_route_drops(self):
        sw = switch()
        assert sw.process_packet(1, pkt()) == (
            "forward", Verdict(DROPPED, "no route"), None)

    def test_expired_ttl_drops(self):
        sw = switch()
        route(sw, D_IP, 3)
        assert sw.process_packet(1, pkt(ttl=0)) == (
            "forward", Verdict(DROPPED, "ttl expired"), None)

    def test_unknown_ingress_port_raises(self):
        sw = switch()
        with pytest.raises(UnknownPort):
            sw.process_packet(9, pkt())

    def test_no_punts_without_knocking(self):
        """present_table stays NoAction on non-knocking switches: unknown
        sources are never sent to the controller from stage 1."""
        sw = switch()
        route(sw, D_IP, 3)
        _, verdict, out = sw.process_packet(1, pkt())
        assert out.egress_port == 3
        assert verdict.kind != PUNTED

    def test_present_table_rules_act_without_knocking(self):
        """The switch skips the presence lookup while the table is empty;
        a rule installed there acts as on a knocking switch."""
        sw = switch()
        route(sw, D_IP, 3)
        sw.apply_rule_install([
            ("present_table", tb.Rule((ip(A_IP),), tb.drop())),
            ("present_table", tb.Rule((ip(B_IP),), tb.set_allowed()))])
        assert sw.process_packet(1, pkt()) == (
            "present", Verdict(DROPPED, "present_table drop"), None)
        _, verdict, out = sw.process_packet(1, pkt(src_ip=B_IP, src_mac=B_MAC))
        assert verdict == Verdict(FORWARDED, "forwarded") and out.egress_port == 3


class TestPuntOnce:
    def test_first_packet_punts_to_cpu(self):
        sw = switch(features=[FEAT_KNOCKING])
        p = pkt()
        assert sw.process_packet(1, p) == (
            "present", Verdict(PUNTED, "present_table punt"), (CPU_PORT, p))

    def test_pending_is_per_source(self):
        sw = switch(features=[FEAT_KNOCKING])
        sw.process_packet(1, pkt(src_ip=A_IP))
        _, _, out = sw.process_packet(2, pkt(src_ip=B_IP, src_mac=B_MAC))
        assert out is not None and out.egress_port == CPU_PORT

    def test_deny_rule_drops_without_punt(self):
        sw = switch(features=[FEAT_KNOCKING])
        sw.apply_rule_install([("present_table",
                                tb.Rule((ip(A_IP),), tb.drop()))])
        for _ in range(3):
            _, verdict, out = sw.process_packet(1, pkt())
            assert out is None
            assert verdict.reason == "present_table drop"


class TestStatelessStage:
    def test_unknown_source_punts_from_check_ip(self):
        sw = switch(features=[FEAT_STATELESS])
        stage, verdict, out = sw.process_packet(1, pkt())
        assert out is not None and out.egress_port == CPU_PORT
        assert stage == "stateless"
        assert verdict.reason == "check_ip punt"

    def test_denied_source_drops(self):
        sw = switch(features=[FEAT_STATELESS])
        sw.tables["check_ip"].insert(tb.Rule((ip(A_IP),), tb.drop()))
        _, verdict, out = sw.process_packet(1, pkt())
        assert out is None
        assert verdict.reason == "check_ip drop"

    def test_allowed_source_forwards(self):
        sw = switch(features=[FEAT_STATELESS])
        allow_stateless(sw, A_IP, A_MAC)
        route(sw, D_IP, 3)
        _, _, out = sw.process_packet(1, pkt())
        assert out.egress_port == 3

    def test_wrong_mac_drops(self):
        sw = switch(features=[FEAT_STATELESS])
        allow_stateless(sw, A_IP, A_MAC)
        route(sw, D_IP, 3)
        _, verdict, out = sw.process_packet(1, pkt(src_mac=B_MAC))
        assert out is None
        assert verdict.reason == "check_mac drop"


class TestStatefulStage:
    def setup_switch(self):
        sw = switch(features=[FEAT_STATEFUL], internal=(1, 2))
        route(sw, A_IP, 1)
        route(sw, B_IP, 2)
        route(sw, D_IP, 3)
        return sw

    def test_reply_admitted_only_after_internal_syn(self):
        sw = self.setup_switch()
        reply = make_packet(src_mac=D_MAC, dst_mac=A_MAC, src_ip=D_IP,
                            dst_ip=A_IP, sport=80, dport=40000,
                            flags=tcp_flags("SYN", "ACK"))
        _, verdict, out = sw.process_packet(3, reply)
        assert out is None
        assert verdict.reason == "stateful drop"
        sw.process_packet(1, pkt())                      # opens the flow
        _, _, out = sw.process_packet(3, reply)
        assert out is not None and out.egress_port == 1

    def test_internal_to_internal_bypasses_flow_state(self):
        sw = self.setup_switch()
        before = (sw.blooms.f1.bits, sw.blooms.f2.bits)
        _, _, out = sw.process_packet(1, pkt(dst_ip=B_IP))
        assert out is not None and out.egress_port == 2
        assert (sw.blooms.f1.bits, sw.blooms.f2.bits) == before

    def test_internal_to_external_registers(self):
        sw = self.setup_switch()
        sw.process_packet(1, pkt())
        assert sw.blooms.f1.popcount() == 1

    def test_unrouted_destination_counts_as_external(self):
        """A SYN toward a destination with no route still registers (the
        bypass applies only to traffic provably staying internal)."""
        sw = self.setup_switch()
        _, verdict, _ = sw.process_packet(1, pkt(dst_ip="10.0.9.50"))
        assert sw.blooms.f1.popcount() == 1
        assert verdict.reason == "no route"


class TestKnockingStage:
    def authorized(self):
        sw = switch(features=[FEAT_KNOCKING])
        sw.apply_rule_install(
            [("present_table", tb.Rule((ip(A_IP),), tb.set_allowed()))]
            + knock_installs(A_IP))
        route(sw, D_IP, 3)
        return sw

    def test_full_knock_then_service(self):
        sw = self.authorized()
        for dport in (2222, 3333, 4444):
            _, verdict, out = sw.process_packet(1, pkt(dport=dport))
            assert out is None
            assert verdict.kind == CONSUMED
        stage, verdict, out = sw.process_packet(1, pkt(dport=80))
        assert out is not None and out.egress_port == 3
        # authenticated service traffic ends its pass at the forward stage
        # like any other forwarded packet; knocking ends one only to
        # absorb or drop
        assert stage == "forward"
        assert verdict.reason == "forwarded"

    def test_present_without_knock_rules_drops(self):
        sw = switch(features=[FEAT_KNOCKING])
        sw.apply_rule_install([("present_table",
                                tb.Rule((ip(A_IP),), tb.set_allowed()))])
        _, verdict, out = sw.process_packet(1, pkt(dport=80))
        assert out is None
        assert verdict.reason == "no knock state"

    def test_wrong_knock_logged(self):
        sw = self.authorized()
        sw.process_packet(1, pkt(dport=2222))
        _, verdict, _ = sw.process_packet(1, pkt(dport=4444))
        assert verdict.reason == "wrong knock"


def knock_positions(sw):
    """knock_rules as {(source text, port): pos}."""
    return {(str(src), port): rule.action.data
            for (src, port), rule in sw.knock_rules.rules.items()}


class TestKnockStateAssembly:
    def test_state_materializes_when_all_positions_present(self):
        sw = switch(features=[FEAT_KNOCKING])
        installs = knock_installs(A_IP, knocks=(5555, 6666, 7777), service=22)
        sw.apply_rule_install(installs[:3])
        assert ip(A_IP) not in sw.knock_stages
        sw.apply_rule_install(installs[3:])
        assert sw.knock_stages[ip(A_IP)] == 0
        assert knock_positions(sw) == {
            (A_IP, 5555): 0, (A_IP, 6666): 1, (A_IP, 7777): 2, (A_IP, 22): 3}

    def test_reinstalling_same_sequence_keeps_progress(self):
        sw = self.progressed()
        sw.apply_rule_install(knock_installs(A_IP))
        assert sw.knock_stages[ip(A_IP)] == 2

    def test_changing_sequence_resets_progress(self):
        sw = self.progressed()
        sw.apply_rule_install(knock_installs(A_IP,
                                             knocks=(5555, 6666, 7777)))
        assert sw.knock_stages[ip(A_IP)] == 0
        # the new rules replace the old ones position by position
        assert knock_positions(sw) == {
            (A_IP, 5555): 0, (A_IP, 6666): 1, (A_IP, 7777): 2, (A_IP, 80): 3}
        for dport in (2222, 3333):
            _, verdict, out = sw.process_packet(1, pkt(dport=dport))
            assert out is None
            assert verdict.reason == "wrong knock"
            assert sw.knock_stages[ip(A_IP)] == 0

    def test_swapped_positions_keep_one_rule_per_position(self):
        sw = self.progressed()
        sw.apply_rule_install(knock_installs(A_IP, knocks=(3333, 2222, 4444)))
        assert knock_positions(sw) == {
            (A_IP, 3333): 0, (A_IP, 2222): 1, (A_IP, 4444): 2, (A_IP, 80): 3}
        assert sw.knock_stages[ip(A_IP)] == 0
        for dport in (3333, 2222, 4444):
            sw.process_packet(1, pkt(dport=dport))
        _, _, out = sw.process_packet(1, pkt(dport=80))
        assert out.egress_port == 3

    def test_moving_a_port_displaces_the_rule_at_its_new_position(self):
        sw = self.progressed()
        sw.apply_rule_install([("knock_rules", tb.Rule(
            (ip(A_IP), 3333), tb.set_allowed(pos=0)))])
        # 2222 lost position 0 and position 1 is now empty
        assert knock_positions(sw) == {
            (A_IP, 3333): 0, (A_IP, 4444): 2, (A_IP, 80): 3}
        assert ip(A_IP) not in sw.knock_stages
        _, verdict, out = sw.process_packet(1, pkt(dport=3333))
        assert out is None
        assert verdict.reason == "no knock state"

    def test_knock_rule_without_pos_rejected(self):
        sw = switch(features=[FEAT_KNOCKING])
        with pytest.raises(tb.SchemaMismatch):
            sw.apply_rule_install([("knock_rules",
                                    tb.Rule((ip(A_IP), 2222),
                                            tb.set_allowed()))])

    @pytest.mark.parametrize("pos", [7, -1, True, "0", None],
                             ids=["seven", "negative", "bool", "text", "none"])
    def test_knock_rule_pos_outside_0_to_3_rejected_untouched(self, pos):
        sw = self.progressed()
        with pytest.raises(tb.SchemaMismatch, match="'pos' in 0..3"):
            sw.apply_rule_install([("knock_rules", tb.Rule(
                (ip(A_IP), 2222), tb.set_allowed(pos=pos)))])
        assert knock_positions(sw) == {
            (A_IP, 2222): 0, (A_IP, 3333): 1, (A_IP, 4444): 2, (A_IP, 80): 3}
        assert sw.knock_stages[ip(A_IP)] == 2

    def progressed(self):
        sw = switch(features=[FEAT_KNOCKING])
        sw.apply_rule_install(
            [("present_table", tb.Rule((ip(A_IP),), tb.set_allowed()))]
            + knock_installs(A_IP))
        route(sw, D_IP, 3)
        sw.process_packet(1, pkt(dport=2222))
        sw.process_packet(1, pkt(dport=3333))
        assert sw.knock_stages[ip(A_IP)] == 2
        return sw


def trace_of(features, events):
    """The run trace of `events` on s9 alone, with host a on port 1 and d
    on port 3: the simulator's record of each switch pass."""
    topo = parse_topology({
        "switches": [{"id": "s9", "ports": [1, 2, 3], "features": list(features)}],
        "hosts": [{"name": "a", "ip": A_IP, "mac": A_MAC, "switch": "s9", "port": 1},
                  {"name": "d", "ip": D_IP, "mac": D_MAC, "switch": "s9", "port": 3}],
        "links": []})
    spec = parse_scenario({"events": [
        {"time": time, "host": "a", "action": "send", "dst": "d", **fields}
        for time, fields in events]})
    return run_scenario(topo, spec, acl={}, store=SequenceStore()).trace


class TestEventLog:
    def test_exactly_one_terminal_event_per_packet(self):
        # a's first packet punts; with no ACL entry the controller answers
        # with a presence drop, which ends a's next two passes
        trace = trace_of([FEAT_KNOCKING], [
            (0, {"dport": 80}), (0, {"dport": 80, "sport": 40001}), (1, {"dport": 22})])
        assert [(r["verdict"], r["dport"]) for r in trace] == [
            (PUNTED, 80), (DROPPED, 80), (DROPPED, 22)]

    def test_records_carry_simulation_time(self):
        trace = trace_of([], [(41, {"dport": 80})])
        assert [(r["time"], r["verdict"]) for r in trace] == [(41, FORWARDED)]

    def test_record_field_set_is_fixed(self):
        [record] = trace_of([FEAT_STATELESS], [(0, {"dport": 80})])
        assert list(record) == ["time", "switch", "verdict", "stage", "src",
                                "dst", "sport", "dport", "reason"]
        assert record == {
            "time": 0, "switch": "s9", "verdict": PUNTED, "stage": "stateless",
            "src": A_IP, "dst": D_IP, "sport": 40000, "dport": 80,
            "reason": "check_ip punt"}


class TestConfigValidation:
    def test_rejects_duplicate_ports(self):
        with pytest.raises(ValueError):
            SwitchConfig(switch_id="s", ports=(1, 1))

    def test_rejects_cpu_port_collision(self):
        with pytest.raises(ValueError):
            SwitchConfig(switch_id="s", ports=(1, CPU_PORT))

    def test_rejects_unknown_feature(self):
        with pytest.raises(ValueError):
            SwitchConfig(switch_id="s", ports=(1,),
                         features=frozenset({"Quantum"}))

    def test_rejects_internal_ports_outside_ports(self):
        with pytest.raises(ValueError):
            SwitchConfig(switch_id="s", ports=(1, 2), internal_ports=(3,))


ALL_FEATURES = (FEAT_STATELESS, FEAT_STATEFUL, FEAT_KNOCKING)


@pytest.mark.parametrize("subset",
                         [frozenset(c) for n in range(4)
                          for c in itertools.combinations(ALL_FEATURES, n)],
                         ids=lambda s: "+".join(sorted(s)) or "none")
class TestFeatureComposition:
    """Every one of the eight feature combinations must pass fully
    authorized traffic and stop (or punt) unknown traffic whenever at
    least one filter stage is active."""

    def build(self, subset):
        sw = switch(features=subset, internal=(1,))
        route(sw, D_IP, 3)
        installs = [("present_table", tb.Rule((ip(A_IP),), tb.set_allowed()))]
        if FEAT_STATELESS in subset:
            installs += [
                ("check_ip", tb.Rule((ip(A_IP),), tb.set_allowed())),
                ("check_mac", tb.Rule((ip(A_IP), MacAddr.from_text(A_MAC)),
                                      tb.set_allowed())),
            ]
        if FEAT_KNOCKING in subset:
            installs += knock_installs(A_IP)
        sw.apply_rule_install(installs)
        if FEAT_KNOCKING in subset:
            for dport in (2222, 3333, 4444):
                _, _, out = sw.process_packet(1, pkt(dport=dport))
                assert out is None
        return sw

    def test_authorized_traffic_is_forwarded(self, subset):
        sw = self.build(subset)
        _, _, out = sw.process_packet(1, pkt(dport=80))
        assert out.egress_port == 3

    def test_unknown_traffic_never_silently_forwarded(self, subset):
        sw = self.build(subset)
        stranger = pkt(src_ip=B_IP, src_mac=B_MAC, dport=80)
        _, _, out = sw.process_packet(2, stranger)
        if subset:
            assert out is None or out.egress_port == CPU_PORT
        else:
            assert out is not None and out.egress_port == 3
