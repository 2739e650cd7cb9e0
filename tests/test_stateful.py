import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import filter_contains
from p4filter import tables as tb
from p4filter.bloom import BloomPair
from p4filter.packet import flow_key, make_packet, tcp_flags
from p4filter.stateful import (EXTERNAL, INTERNAL, classify_direction,
                               stateful_process)
from p4filter.verdict import DROPPED, FORWARDED

INSIDE_IP = "10.0.1.1"
OUTSIDE_IP = "10.0.5.3"


def ports_table(internal=(1, 2)):
    t = tb.Table("check_ports", (tb.KIND_PORT_ID,), tb.set_direction(1))
    for port in internal:
        t.insert(tb.Rule((port,), tb.set_direction(0)))
    return t


def outbound(flags="SYN", sport=1000, dport=80):
    return make_packet(src_mac="02:00:00:00:01:01",
                       dst_mac="02:00:00:00:05:03",
                       src_ip=INSIDE_IP, dst_ip=OUTSIDE_IP,
                       sport=sport, dport=dport,
                       flags=tcp_flags(*flags.split("|")))


def inbound(flags="SYN|ACK", sport=80, dport=1000):
    return make_packet(src_mac="02:00:00:00:05:03",
                       dst_mac="02:00:00:00:01:01",
                       src_ip=OUTSIDE_IP, dst_ip=INSIDE_IP,
                       sport=sport, dport=dport,
                       flags=tcp_flags(*flags.split("|")))


class TestDirection:
    def test_internal_ports(self):
        t = ports_table()
        assert classify_direction(1, t) == INTERNAL
        assert classify_direction(2, t) == INTERNAL

    def test_external_by_default(self):
        t = ports_table()
        assert classify_direction(3, t) == EXTERNAL
        assert classify_direction(99, t) == EXTERNAL


class TestHandshake:
    def test_outbound_syn_registers_and_forwards(self):
        pair = BloomPair()
        v = stateful_process(outbound("SYN"), INTERNAL, pair)
        assert v.kind == FORWARDED and v.reason == "stateful forward"
        assert pair.contains(flow_key(outbound(), INTERNAL))

    def test_reply_admitted_after_syn(self):
        pair = BloomPair()
        stateful_process(outbound("SYN"), INTERNAL, pair)
        v = stateful_process(inbound("SYN|ACK"), EXTERNAL, pair)
        assert v.kind == FORWARDED and v.reason == "stateful reply"

    def test_unsolicited_inbound_dropped(self):
        pair = BloomPair()
        v = stateful_process(inbound("SYN"), EXTERNAL, pair)
        assert v.kind == DROPPED and v.reason == "stateful drop"
        v = stateful_process(inbound("ACK"), EXTERNAL, pair)
        assert v.kind == DROPPED

    def test_same_hosts_different_ports_not_admitted(self):
        """State is per 4-tuple: an open 1000<->80 flow does not admit
        2000<->80 between the same pair of hosts."""
        pair = BloomPair()
        stateful_process(outbound("SYN", sport=1000), INTERNAL, pair)
        v = stateful_process(inbound(sport=80, dport=2000), EXTERNAL, pair)
        assert v.kind == DROPPED

    def test_outbound_non_syn_forwards_without_registering(self):
        pair = BloomPair()
        v = stateful_process(outbound("ACK"), INTERNAL, pair)
        assert v.kind == FORWARDED
        assert pair.f1.popcount() == 0
        v = stateful_process(inbound(), EXTERNAL, pair)
        assert v.kind == DROPPED

    def test_syn_ack_outbound_does_not_register(self):
        """SYN+ACK is not a pure SYN; only connection opens create state."""
        pair = BloomPair()
        stateful_process(outbound("SYN|ACK"), INTERNAL, pair)
        assert pair.f1.popcount() == 0


class TestFalsePositiveBehaviour:
    def test_engineered_collision_is_forwarded(self):
        """A flow whose reversed key collides in BOTH filters is (wrongly
        but by design) admitted: search nearby tuples for a double
        collision and confirm the tracker forwards it."""
        pair = BloomPair.sized(256)
        for n in range(170):
            p = outbound("SYN", sport=1024 + n, dport=80)
            stateful_process(p, INTERNAL, pair)
        found = None
        for sport in range(2, 60000):
            probe = inbound(sport=4321, dport=sport)
            key = flow_key(probe, EXTERNAL)
            if pair.contains(key):
                found = probe
                break
        assert found is not None, "no double collision in 60k probes"
        v = stateful_process(found, EXTERNAL, pair)
        assert v.kind == FORWARDED and v.reason == "stateful reply"

    def test_single_filter_collision_still_dropped(self):
        """A key colliding in only one filter must be rejected — the AND is
        what buys the squared false-positive rate."""
        pair = BloomPair.sized(256)
        for n in range(170):
            stateful_process(outbound("SYN", sport=1024 + n, dport=80),
                             INTERNAL, pair)
        found = None
        for sport in range(2, 60000):
            probe = inbound(sport=4321, dport=sport)
            key = flow_key(probe, EXTERNAL)
            one = filter_contains(pair.f1, key)
            two = filter_contains(pair.f2, key)
            if one != two:
                found = probe
                break
        assert found is not None
        v = stateful_process(found, EXTERNAL, pair)
        assert v.kind == DROPPED


class TestProperties:
    @given(st.integers(1024, 65535), st.integers(1, 65535),
           st.sampled_from(["SYN", "ACK", "SYN|ACK", "RST", "FIN|ACK",
                            "PSH|ACK"]))
    @settings(max_examples=200)
    def test_external_packets_never_mutate_state(self, sport, dport, flags):
        pair = BloomPair()
        before = (pair.f1.bits, pair.f2.bits)
        stateful_process(inbound(flags, sport=sport, dport=dport),
                         EXTERNAL, pair)
        assert (pair.f1.bits, pair.f2.bits) == before

    @given(st.lists(st.tuples(st.integers(1024, 65535),
                              st.integers(1, 65535)), max_size=40))
    @settings(max_examples=100)
    def test_every_opened_flow_gets_its_reply(self, flows):
        """No false negatives end to end: every outbound SYN's exact reply
        tuple is admitted afterwards."""
        pair = BloomPair()
        for sport, dport in flows:
            stateful_process(outbound("SYN", sport=sport, dport=dport),
                             INTERNAL, pair)
        for sport, dport in flows:
            v = stateful_process(inbound("ACK", sport=dport, dport=sport),
                                 EXTERNAL, pair)
            assert v.kind == FORWARDED

    def test_reply_key_is_reversed_initiator_key(self):
        """flow_key(outbound, 0) and flow_key(matching reply, 1) agree, so
        membership transfers exactly and only to the reversed tuple."""
        rng = random.Random(3)
        for _ in range(100):
            sport = rng.randrange(1024, 65536)
            dport = rng.randrange(1, 65536)
            k0 = flow_key(outbound(sport=sport, dport=dport), INTERNAL)
            k1 = flow_key(inbound(sport=dport, dport=sport), EXTERNAL)
            assert k0 == k1
