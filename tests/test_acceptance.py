"""Acceptance gate: the eight end-to-end guarantees this package makes.

Each criterion is one test, so `pytest -v` emits exactly one pass/fail
line per criterion; the body also prints an ACCEPTANCE line for humans
running with -s. Tolerances are stated inline; everything else is exact.
"""

import itertools
import math
import random
import time

from conftest import reference_label, run_bundled
from knock_reference import reference_run
from p4filter.bloom import BloomPair
from p4filter.bundled import SCENARIOS
from p4filter.controller import SequenceStore, load_store, parse_acl, save_store
from p4filter.knocking import KnockSequence, knock_step
from p4filter.packet import (FlowKey, Ipv4Address, make_packet,
                             parse_packet, serialize_packet)
from p4filter.scenario import parse_scenario
from p4filter.sim import Simulator, evaluate_expect


def passed(criterion, label):
    print(f"ACCEPTANCE {criterion} ({label}): PASS")


def test_criterion_1_stateful_asymmetry(default_topology):
    """Internal-initiated flow delivers 100% both directions; the
    external-initiated flow delivers 0 packets. Exact counts, < 1 s."""
    started = time.monotonic()
    report, scenario = run_bundled("stateful_iperf", default_topology)

    assert evaluate_expect(report, scenario.expect) == []
    assert report.hosts["h1"] == {"sent": 5, "delivered": 5, "dropped": 0,
                                  "punted": 0, "consumed": 0}
    assert report.hosts["h3"] == {"sent": 8, "delivered": 5, "dropped": 3,
                                  "punted": 0, "consumed": 0}

    # the internal flow's replies (h3:80 -> h1:5001) all cross s1
    replies = [r for r in report.trace
               if r["switch"] == "s1" and r["sport"] == 80]
    assert [r["verdict"] for r in replies] == ["Forwarded"] * 5

    # the external-initiated flow (h3:6000 -> h1:9000) dies at s1, every time
    external = [r for r in report.trace
                if r["switch"] == "s1" and r["sport"] == 6000]
    assert len(external) == 3
    assert all(r["verdict"] == "Dropped" and r["stage"] == "stateful"
               and r["reason"] == "stateful drop" for r in external)

    assert time.monotonic() - started < 1.0
    passed(1, "stateful asymmetry")


def test_criterion_2_stateless_block(default_topology):
    """h5 delivers 0 packets, its terminal events all at s2 with reason
    "check_ip drop"; the MAC-spoof variant also delivers 0. Exact."""
    report, scenario = run_bundled("stateless_block", default_topology)

    assert evaluate_expect(report, scenario.expect) == []
    assert report.hosts["h5"] == {"sent": 5, "delivered": 0, "dropped": 5,
                                  "punted": 0, "consumed": 0}

    own = [r for r in report.trace if r["src"] == "10.0.2.1"]
    assert len(own) == 3
    assert all(r["switch"] == "s2" and r["verdict"] == "Dropped"
               and r["reason"] == "check_ip drop" for r in own)

    spoofed = [r for r in report.trace if r["src"] == "10.0.1.1"]
    assert len(spoofed) == 2
    assert all(r["switch"] == "s2" and r["verdict"] == "Dropped"
               and r["reason"] == "check_mac drop" for r in spoofed)

    passed(2, "stateless block")


def test_criterion_3_knock_authentication(default_topology):
    """The correct knock ordering reaches stage 3 and delivers to port 22;
    every one of the other 3!-1 orderings delivers 0 service packets.
    Exhaustive over all 6 orderings. Exact."""
    acl = parse_acl([{"ip": "10.0.1.2", "mac": "02:00:00:00:01:02",
                      "verdict": "allow"}])

    for order in itertools.permutations((0, 1, 2)):
        scenario = parse_scenario({
            "name": "perm", "seed": 11, "events": [
                {"time": 0, "host": "h2", "action": "send", "dst": "h7",
                 "dport": 22},
                {"time": 10, "host": "h2", "action": "knock", "dst": "h7",
                 "order": list(order)},
            ],
        })
        sim = Simulator(default_topology, acl, SequenceStore(), seed=11)
        report = sim.run(scenario)

        service_deliveries = [
            r for r in report.trace
            if r["switch"] == "s6" and r["verdict"] == "Forwarded"
            and r["dport"] == 22]
        stage = report.knock_stages["s6"]["10.0.1.2"]
        if order == (0, 1, 2):
            assert stage == 3, order
            assert len(service_deliveries) == 1, order
            assert report.hosts["h2"]["delivered"] == 1, order
        else:
            assert stage != 3, order
            assert service_deliveries == [], order
            assert report.hosts["h2"]["delivered"] == 0, order

    passed(3, "knock authentication, all 6 orderings")


def test_criterion_4_controller_acl(default_topology):
    """A non-ACL host triggers exactly one punt, one Drop rule, and zero
    deliveries; an allowed host triggers exactly one punt and receives a
    3-knock sequence with ports in [1024, 65535] and service port 22."""
    report, _ = run_bundled("knock_auth", default_topology)

    # h5 is not in the ACL
    assert report.hosts["h5"]["punted"] == 1
    assert report.hosts["h5"]["delivered"] == 0
    drop_rules = [r for switch_rules in report.rules.values()
                  for r in switch_rules
                  if r["table"] == "present_table" and r["action"] == "Drop"]
    assert drop_rules == [{"table": "present_table", "key": ["10.0.2.1"],
                           "action": "Drop", "params": {}}]

    # h2 is allowed
    assert report.hosts["h2"]["punted"] == 1
    sequence = report.sequences["10.0.1.2"]
    assert len(sequence["knocks"]) == 3
    assert len(set(sequence["knocks"])) == 3
    assert all(1024 <= p <= 65535 for p in sequence["knocks"])
    assert sequence["service"] == 22

    passed(4, "controller ACL behavior")


def test_criterion_5_sequence_isolation(default_topology):
    """With >= 5 allowed hosts every generated sequence is pairwise
    distinct, and replaying host A's sequence from host B's IP (wrong MAC
    binding) delivers 0 packets."""
    report, scenario = run_bundled("spoof", default_topology)
    assert evaluate_expect(report, scenario.expect) == []

    sequences = report.sequences
    assert len(sequences) == 6
    knock_tuples = [tuple(entry["knocks"]) for entry in sequences.values()]
    for a, b in itertools.combinations(knock_tuples, 2):
        assert a != b

    # h4 replays h1's sequence from h2's IP but keeps its own MAC
    assert report.hosts["h4"]["delivered"] == 0
    replayed = [r for r in report.trace
                if r["switch"] == "s6" and r["src"] == "10.0.1.2"
                and r["reason"] == "check_mac drop"]
    assert len(replayed) == 4          # three knocks plus the service probe

    # the legitimate owner still authenticates afterwards
    assert report.hosts["h2"]["delivered"] == 1
    assert report.knock_stages["s6"]["10.0.1.2"] == 3

    passed(5, "dynamic-sequence isolation")


def test_criterion_6_bloom_behavior():
    """Zero false negatives over 10^4 inserted flows (exact); measured
    AND-of-two false-positive rate for n=1000, m=4096 within +/-0.01 of
    the analytic (1 - e^(-n/m))^2. Runtime < 5 s."""
    started = time.monotonic()

    def key(n, shift=0):
        return FlowKey(
            Ipv4Address(bytes([10, shift, (n >> 8) & 0xFF, n & 0xFF])),
            Ipv4Address(bytes([10, shift + 100, (n >> 8) & 0xFF, n & 0xFF])),
            1024 + (n % 60000), 80)

    saturated = BloomPair.sized(4096)
    inserted = [key(n) for n in range(10_000)]
    for k in inserted:
        saturated.insert(k)
    assert all(saturated.contains(k) for k in inserted)   # no FN, ever

    pair = BloomPair.sized(4096)
    for n in range(1000):
        pair.insert(key(n))
    probes = 50_000
    hits = sum(pair.contains(key(n, shift=7)) for n in range(probes))
    measured = hits / probes
    analytic = (1.0 - math.exp(-1000 / 4096)) ** 2
    assert abs(measured - analytic) <= 0.01, (measured, analytic)

    assert time.monotonic() - started < 5.0
    passed(6, f"bloom: FP {measured:.4f} vs analytic {analytic:.4f}")


def test_criterion_7_knock_fsm_oracle():
    """Exhaustive enumeration of every knock string of length <= 5 over a
    5-port alphabet matches the independently written reference FSM
    state-for-state. Exact."""
    knocks, service, other = (2222, 3333, 4444), 22, 9999
    alphabet = list(knocks) + [service, other]
    seq = KnockSequence(knock_ports=knocks, service_port=service)
    # the knock_rules position each port hits, as the switch looks it up
    ports = seq.knock_ports + (seq.service_port,)
    pos = {dport: ports.index(dport) if dport in ports else None
           for dport in alphabet}
    probe = {
        dport: make_packet(src_mac="02:00:00:00:01:02",
                           dst_mac="02:00:00:00:06:02",
                           src_ip="10.0.1.2", dst_ip="10.0.6.2",
                           sport=40000, dport=dport)
        for dport in alphabet
    }

    strings = 0
    for length in range(6):
        for string in itertools.product(alphabet, repeat=length):
            stage = 0
            moves = []
            for dport in string:
                verdict, stage = knock_step(stage, pos[dport],
                                            probe[dport].tcp.is_pure_syn)
                moves.append((reference_label(verdict.kind), stage))
            expected = reference_run([(dport, True) for dport in string],
                                     knocks=knocks, service=service)
            assert moves == expected, string
            strings += 1
    assert strings == sum(5 ** n for n in range(6))   # 3906

    passed(7, f"knock FSM oracle, {strings} strings")


def test_criterion_8_determinism_and_round_trips(default_topology, tmp_path):
    """Byte-identical RunReports across two runs of every bundled
    scenario; serialize/parse round-trip on 10^4 random frames;
    sequence-store save/load identity."""
    for name in SCENARIOS:
        first, _ = run_bundled(name, default_topology)
        second, _ = run_bundled(name, default_topology)
        assert first.canonical_text() == second.canonical_text(), name

    rng = random.Random(1234)
    for _ in range(10_000):
        packet = make_packet(
            src_ip=".".join(str(rng.randrange(256)) for _ in range(4)),
            dst_ip=".".join(str(rng.randrange(256)) for _ in range(4)),
            src_mac=":".join(f"{rng.randrange(256):02x}" for _ in range(6)),
            dst_mac=":".join(f"{rng.randrange(256):02x}" for _ in range(6)),
            sport=rng.randrange(65536), dport=rng.randrange(65536),
            flags=rng.randrange(64), ttl=rng.randrange(256),
            seq=rng.randrange(1 << 32), ack=rng.randrange(1 << 32),
            payload=rng.randbytes(rng.randrange(40)))
        wire = serialize_packet(packet)
        parsed = parse_packet(wire)
        assert serialize_packet(parsed) == wire
        assert (parsed.ip.src_ip, parsed.ip.dst_ip) == (packet.ip.src_ip,
                                                        packet.ip.dst_ip)
        assert (parsed.tcp.src_port, parsed.tcp.dst_port,
                parsed.tcp.flags) == (packet.tcp.src_port,
                                      packet.tcp.dst_port, packet.tcp.flags)
        assert parsed.ip.ttl == packet.ip.ttl
        assert parsed.payload == packet.payload

    rng = random.Random(99)
    store = SequenceStore(str(tmp_path / "store.json"))
    for n in range(8):
        ports = []
        while len(ports) < 3:
            port = rng.randrange(1024, 65536)
            if port not in ports and port != 22:
                ports.append(port)
        store.put(Ipv4Address(bytes([10, 0, 8, n])),
                  KnockSequence(tuple(ports), 22))
    save_store(store)
    loaded = load_store(store.path)
    assert loaded.sequences == store.sequences
    assert loaded.canonical_text() == store.canonical_text()

    passed(8, "determinism and round-trips")
