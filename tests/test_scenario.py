import pytest

from p4filter.controller import SequenceStore
from p4filter.knocking import KnockSequence
from p4filter.packet import SYN, ACK, Ipv4Address
from p4filter.scenario import (MAX_PAYLOAD, InvalidScenario, KnockAction,
                               NoSequence, SendAction, knock_client,
                               load_scenario, parse_scenario)

H_IP = Ipv4Address.from_text("10.0.1.2")


def scenario(events=(), **extra):
    return {"name": "t", "seed": 1, "events": list(events), **extra}


def send_event(time=0, host="h1", **kw):
    return {"time": time, "host": host, "action": "send",
            "dst": kw.pop("dst", "h3"), "dport": kw.pop("dport", 80), **kw}


class TestParsing:
    def test_minimal(self):
        spec = parse_scenario(scenario())
        assert spec.name == "t" and spec.seed == 1 and spec.events == ()

    def test_send_defaults(self):
        spec = parse_scenario(scenario([send_event()]))
        action = spec.events[0].action
        assert isinstance(action, SendAction)
        assert action.flags == ("SYN",) and action.repeat == 1
        assert action.flag_bits == SYN

    def test_send_options(self):
        spec = parse_scenario(scenario([send_event(
            flags=["PSH", "ACK"], repeat=3, gap=2, sport=1234,
            src_ip_of="h2", payload="hi")]))
        action = spec.events[0].action
        assert action.flag_bits and action.flags == ("PSH", "ACK")
        assert action.repeat == 3 and action.gap == 2
        assert action.payload == b"hi" and action.src_ip_of == "h2"
        assert action.flag_bits & ACK

    def test_knock_order(self):
        spec = parse_scenario(scenario([
            {"time": 0, "host": "h2", "action": "knock", "dst": "h6",
             "order": [2, 0, 1]}]))
        action = spec.events[0].action
        assert isinstance(action, KnockAction)
        assert action.order == (2, 0, 1) and action.include_service

    def test_preinstall_and_expect(self):
        spec = parse_scenario(scenario(
            [send_event()],
            preinstall=[{"switch": "s2", "table": "check_ip",
                         "key": ["10.0.1.1"], "action": "SetAllowed"}],
            expect={"hosts": {"h3": {"delivered": 1}}}))
        rule = spec.preinstall[0]
        assert rule.switch == "s2" and rule.key == ("10.0.1.1",)
        assert spec.expect == {"hosts": {"h3": {"delivered": 1}}}

    @pytest.mark.parametrize("bad,match", [
        ([1, 2], "JSON object"),
        (scenario([{"time": 0, "host": "h1"}]), "time/host/action"),
        (scenario([send_event(time=-1)]), "non-negative"),
        (scenario([send_event(time=5), send_event(time=4)]),
         "non-decreasing"),
        (scenario([{"time": 0, "host": "h1", "action": "teleport"}]),
         "unknown action"),
        (scenario([{"time": 0, "host": "h1", "action": "send"}]), "bad send"),
        (scenario([{"time": 0, "host": "h1", "action": "knock",
                    "dst": "h6", "order": [0, 1, 1]}]), "permute"),
        (scenario([send_event(flags="SYN")]), "flags must be a list"),
        # one bad send field each, with the message that names it
        (scenario([send_event(dport=65536)]), r"dport must be an integer in 0\.\.65535: \{"),
        (scenario([send_event(sport=True)]), r"sport must be an integer in 0\.\.65535: \{"),
        (scenario([send_event(ttl=256)]), r"ttl must be an integer in 0\.\.255: \{"),
        (scenario([send_event(repeat=-1)]), r"repeat must be a non-negative integer: \{"),
        (scenario([send_event(gap=True)]), r"gap must be a non-negative integer: \{"),
        (scenario([send_event(flags=["NOPE"])]), r"unknown TCP flag 'NOPE', known: \["),
        (scenario([send_event(flags=["SYN", 3])]), r"unknown TCP flag 3, known: \["),
        (scenario([send_event(payload=5)]), r"payload must be a string: \{"),
        (scenario([send_event(payload="\ud800")]), r"payload must be valid Unicode text: \{"),
        (scenario([send_event(payload="x" * (MAX_PAYLOAD + 1))]),
         rf"^payload is longer than {MAX_PAYLOAD} bytes$"),
        (scenario([send_event(dst=5)]), r"dst must be a string: \{"),
        (scenario([send_event(src_ip_of=[])]), r"src_ip_of must be a string or null: \{"),
        (scenario(), "seed"),
        (scenario(), "expect"),
    ], ids=["not-object", "missing-action", "negative-time",
            "decreasing-times", "unknown-action", "send-missing-dst",
            "bad-knock-order", "flags-not-list", "send-dport-too-large",
            "send-sport-bool", "send-ttl-too-large", "send-repeat-negative",
            "send-gap-bool", "send-unknown-flag", "send-flag-not-string",
            "send-payload-not-string", "send-payload-lone-surrogate",
            "send-payload-too-long", "send-dst-not-string",
            "send-src-ip-of-list", "bad-seed", "bad-expect"])
    def test_rejects_malformed(self, bad, match):
        if match == "seed":
            bad = dict(bad, seed="one")
            match = "seed must be an integer"
        if match == "expect":
            bad = dict(bad, expect=[1])
            match = "expect must be an object"
        with pytest.raises(InvalidScenario, match=match):
            parse_scenario(bad)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InvalidScenario):
            load_scenario(str(tmp_path / "absent.json"))

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{nope")
        with pytest.raises(InvalidScenario):
            load_scenario(str(path))


class TestKnockClient:
    def store(self):
        store = SequenceStore()
        store.put(H_IP, KnockSequence((2222, 3333, 4444), 22))
        return store

    def test_in_order_probes(self):
        probes = knock_client(H_IP, self.store())
        assert probes == [(0, 2222), (1, 3333), (2, 4444), (3, 22)]

    def test_permuted_order(self):
        probes = knock_client(H_IP, self.store(), order=(2, 0, 1))
        assert probes == [(0, 4444), (1, 2222), (2, 3333), (3, 22)]

    def test_spacing(self):
        probes = knock_client(H_IP, self.store(), spacing=5)
        assert [t for t, _ in probes] == [0, 5, 10, 15]

    def test_without_service(self):
        probes = knock_client(H_IP, self.store(), include_service=False)
        assert probes == [(0, 2222), (1, 3333), (2, 4444)]

    def test_unknown_host_raises(self):
        with pytest.raises(NoSequence):
            knock_client(Ipv4Address.from_text("10.0.9.9"), self.store())
