import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_label
from knock_reference import reference_run
from p4filter.knocking import KnockSequence, knock_step
from p4filter.packet import make_packet, tcp_flags
from p4filter.verdict import CONSUMED, DROPPED, FORWARDED

OWNER = "10.0.1.2"
SEQ = KnockSequence(knock_ports=(2222, 3333, 4444), service_port=22)


def probe(dport, flags="SYN"):
    return make_packet(src_mac="02:00:00:00:01:02",
                       dst_mac="02:00:00:00:06:01",
                       src_ip=OWNER, dst_ip="10.0.6.1",
                       sport=40000, dport=dport,
                       flags=tcp_flags(*flags.split("|")))


def step(stage, p, seq=SEQ):
    """knock_step on one probe, with the probe's destination port mapped to
    its position in `seq` the way the switch's knock_rules lookup maps it:
    0-2 for the knock ports, 3 for the service port, None otherwise."""
    ports = seq.knock_ports + (seq.service_port,)
    pos = ports.index(p.tcp.dst_port) if p.tcp.dst_port in ports else None
    return knock_step(stage, pos, p.tcp.is_pure_syn)


def run(stage, probes, seq=SEQ):
    """Feed (dport, flags) pairs; return ([(kind, stage)], final stage)."""
    out = []
    for dport, flags in probes:
        verdict, stage = step(stage, probe(dport, flags), seq)
        out.append((verdict.kind, stage))
    return out, stage


class TestSequenceValidation:
    def test_accepts_valid(self):
        KnockSequence(knock_ports=(59275, 10989, 18698), service_port=22)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            KnockSequence(knock_ports=(2222, 3333), service_port=22)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            KnockSequence(knock_ports=(2222, 2222, 4444), service_port=22)

    def test_rejects_low_and_high_ports(self):
        with pytest.raises(ValueError):
            KnockSequence(knock_ports=(1023, 3333, 4444), service_port=22)
        with pytest.raises(ValueError):
            KnockSequence(knock_ports=(2222, 3333, 65536), service_port=22)

    def test_rejects_service_in_knocks(self):
        with pytest.raises(ValueError):
            KnockSequence(knock_ports=(2222, 3333, 4444), service_port=3333)


class TestHappyPath:
    def test_correct_sequence_opens_service(self):
        moves, stage = run(0, [(2222, "SYN"), (3333, "SYN"),
                               (4444, "SYN"), (22, "SYN")])
        assert moves == [(CONSUMED, 1), (CONSUMED, 2), (CONSUMED, 3),
                         (FORWARDED, 3)]
        assert stage == 3

    def test_high_port_sequence(self):
        seq = KnockSequence(knock_ports=(59275, 10989, 18698),
                            service_port=22)
        moves, _ = run(0, [(59275, "SYN"), (10989, "SYN"), (18698, "SYN"),
                           (22, "SYN")], seq=seq)
        assert [kind for kind, _ in moves] == [CONSUMED, CONSUMED, CONSUMED,
                                               FORWARDED]

    def test_service_stays_open(self):
        _, stage = run(0, [(2222, "SYN"), (3333, "SYN"), (4444, "SYN")])
        for flags in ("SYN", "ACK", "PSH|ACK", "FIN|ACK"):
            verdict, stage = step(stage, probe(22, flags))
            assert verdict.kind == FORWARDED
            assert verdict.reason == "knock authenticated"
            assert stage == 3

    def test_knock_probes_are_absorbed_not_forwarded(self):
        stage = 0
        for dport in (2222, 3333, 4444):
            verdict, stage = step(stage, probe(dport))
            assert verdict.kind == CONSUMED
            assert verdict.reason == "knock consumed"


class TestWrongOrder:
    @pytest.mark.parametrize("order",
                             [p for p in itertools.permutations((2222, 3333,
                                                                 4444))
                              if p != (2222, 3333, 4444)],
                             ids=lambda p: "-".join(map(str, p)))
    def test_out_of_order_never_authenticates(self, order):
        probes = [(port, "SYN") for port in order] + [(22, "SYN")]
        moves, stage = run(0, probes)
        assert moves[-1][0] == DROPPED
        assert stage != 3

    def test_wrong_knock_resets_to_zero(self):
        moves, _ = run(0, [(2222, "SYN"), (4444, "SYN")])
        assert moves == [(CONSUMED, 1), (DROPPED, 0)]

    def test_early_service_probe_resets(self):
        moves, _ = run(0, [(2222, "SYN"), (3333, "SYN"), (22, "SYN")])
        assert moves[-1] == (DROPPED, 0)

    def test_unrelated_port_resets(self):
        moves, _ = run(0, [(2222, "SYN"), (9999, "SYN")])
        assert moves[-1] == (DROPPED, 0)
        _, stage = run(2, [(12345, "SYN")])
        assert stage == 0

    def test_reset_requires_restart_from_first_knock(self):
        moves, _ = run(0, [(2222, "SYN"), (4444, "SYN"),
                                 (3333, "SYN"), (4444, "SYN"), (22, "SYN")])
        assert moves[-1][0] == DROPPED


class TestFirstKnockRestart:
    @pytest.mark.parametrize("stage", [0, 1, 2, 3])
    def test_first_knock_starts_fresh_attempt(self, stage):
        verdict, stage = step(stage, probe(2222))
        assert verdict.kind == CONSUMED and stage == 1

    def test_reauthentication_from_open_state(self):
        _, stage = run(0, [(2222, "SYN"), (3333, "SYN"), (4444, "SYN")])
        assert stage == 3
        moves, stage = run(stage, [(2222, "SYN"), (3333, "SYN"),
                                   (4444, "SYN"), (22, "SYN")])
        assert moves == [(CONSUMED, 1), (CONSUMED, 2), (CONSUMED, 3),
                         (FORWARDED, 3)]

    def test_double_first_knock_stays_at_one(self):
        moves, _ = run(0, [(2222, "SYN"), (2222, "SYN"), (3333, "SYN"),
                                 (4444, "SYN"), (22, "SYN")])
        assert moves == [(CONSUMED, 1), (CONSUMED, 1), (CONSUMED, 2),
                         (CONSUMED, 3), (FORWARDED, 3)]


class TestNonSynTraffic:
    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_non_syn_drops_without_touching_stage(self, stage):
        for flags in ("ACK", "SYN|ACK", "RST", "FIN"):
            verdict, after = step(stage, probe(2222, flags))
            assert verdict.kind == DROPPED
            assert verdict.reason == "knock drop"
            assert after == stage

    def test_non_syn_to_service_before_auth_drops(self):
        verdict, stage = step(2, probe(22, "ACK"))
        assert verdict.kind == DROPPED and stage == 2

    def test_stage3_non_syn_non_service_drops_keeping_stage(self):
        verdict, stage = step(3, probe(2222, "ACK"))
        assert verdict.kind == DROPPED and stage == 3
        verdict, stage = step(3, probe(9999, "PSH|ACK"))
        assert verdict.kind == DROPPED and stage == 3


class TestReferenceEquivalence:
    """The implementation and the table-driven reference in
    knock_reference.py must agree move-for-move, including on non-SYN
    traffic. (The exhaustive pure-SYN sweep lives in the acceptance
    suite.)"""

    ALPHABET = [2222, 3333, 4444, 22, 9999]

    @given(st.lists(st.tuples(st.sampled_from(ALPHABET), st.booleans()),
                    max_size=8))
    @settings(max_examples=500)
    def test_mixed_flag_strings_agree(self, string):
        stage = 0
        got = []
        for dport, pure_syn in string:
            verdict, stage = step(
                stage, probe(dport, "SYN" if pure_syn else "ACK"))
            got.append((reference_label(verdict.kind), stage))
        expected = reference_run(string, knocks=(2222, 3333, 4444),
                                 service=22)
        assert got == expected

    @given(st.integers(0, 3),
           st.lists(st.tuples(st.sampled_from(ALPHABET), st.booleans()),
                    max_size=5))
    @settings(max_examples=300)
    def test_agreement_from_every_starting_stage(self, stage, string):
        start = stage
        got = []
        for dport, pure_syn in string:
            verdict, stage = step(
                stage, probe(dport, "SYN" if pure_syn else "PSH|ACK"))
            got.append((reference_label(verdict.kind), stage))
        expected = reference_run(string, knocks=(2222, 3333, 4444),
                                 service=22, stage=start)
        assert got == expected

    @given(st.lists(st.tuples(st.sampled_from(ALPHABET), st.booleans()),
                    max_size=8))
    @settings(max_examples=300)
    def test_forward_only_when_authenticated(self, string):
        """Safety: Forward can only ever be emitted for service-port
        traffic at stage 3."""
        stage = 0
        for dport, pure_syn in string:
            before = stage
            verdict, stage = step(
                stage, probe(dport, "SYN" if pure_syn else "ACK"))
            if verdict.kind == FORWARDED:
                assert before == 3 and dport == 22
