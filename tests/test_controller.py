import errno
import json
import os
import random

import pytest

from p4filter import controller as ctl
from p4filter import tables as tb
from p4filter.knocking import KnockSequence
from p4filter.packet import Ipv4Address, MacAddr, make_packet, serialize_packet
from p4filter.switch import (FEAT_KNOCKING, FEAT_STATEFUL, FEAT_STATELESS,
                             P4Switch, SwitchConfig)

H_IP = "10.0.1.2"
H_MAC = "02:00:00:00:01:02"
BAD_IP = "10.0.2.1"


def ip(text):
    return Ipv4Address.from_text(text)


def punt_bytes(src_ip=H_IP, src_mac=H_MAC, dport=80):
    return serialize_packet(make_packet(
        src_mac=src_mac, dst_mac="02:00:00:00:05:01", src_ip=src_ip,
        dst_ip="10.0.5.1", sport=40000, dport=dport))


def build_controller(tmp_path, acl=None, seed=42, store=None):
    if acl is None:
        acl = ctl.parse_acl([
            {"ip": H_IP, "mac": H_MAC, "verdict": "allow"},
            {"ip": "10.0.1.9", "verdict": "allow"},
            {"ip": BAD_IP, "verdict": "deny"},
        ])
    if store is None:
        store = ctl.SequenceStore(str(tmp_path / "store.json"))
    features = {
        "sw_knock": frozenset({FEAT_KNOCKING}),
        "sw_sl": frozenset({FEAT_STATELESS}),
        "sw_both": frozenset({FEAT_STATELESS, FEAT_STATEFUL, FEAT_KNOCKING}),
        "sw_plain": frozenset(),
    }
    routes = {
        "sw_knock": {ip("10.0.1.2"): 1, ip("10.0.5.1"): 3},
        "sw_sl": {ip("10.0.1.2"): 2},
        "sw_both": {ip("10.0.1.2"): 1},
        "sw_plain": {ip("10.0.5.1"): 2},
    }
    return ctl.Controller(acl=acl, store=store, rng=random.Random(seed),
                          switch_features=features, routes=routes)


def knock_switch():
    return P4Switch(SwitchConfig(switch_id="sw_knock", ports=(1, 2, 3),
                                 features=frozenset({FEAT_KNOCKING})))


def by_table(installs):
    out = {}
    for table, rule in installs:
        out.setdefault(table, []).append(rule)
    return out


class TestAclParsing:
    def test_valid_entries(self):
        acl = ctl.parse_acl([
            {"ip": H_IP, "mac": H_MAC, "verdict": "allow"},
            {"ip": "10.0.1.3", "verdict": "allow"},
            {"ip": BAD_IP, "verdict": "deny"},
        ])
        assert acl[ip(H_IP)].mac == MacAddr.from_text(H_MAC)
        assert acl[ip("10.0.1.3")].mac is None
        assert acl[ip(BAD_IP)].verdict == ctl.DENY

    @pytest.mark.parametrize("bad", [
        {"not": "a list"},
        [{"verdict": "allow"}],
        [{"ip": H_IP}],
        [{"ip": H_IP, "verdict": "allow", "port": 22}],
        [{"ip": "999.0.0.1", "verdict": "allow"}],
        [{"ip": H_IP, "mac": "zz:00:00:00:00:00", "verdict": "allow"}],
        [{"ip": H_IP, "verdict": "maybe"}],
        [{"ip": H_IP, "verdict": "allow"}, {"ip": H_IP, "verdict": "deny"}],
        [{"ip": 167772418, "verdict": "allow"}],
        [{"ip": H_IP, "mac": 5, "verdict": "allow"}],
        [{"ip": [H_IP], "verdict": "allow"}],
    ], ids=["not-list", "no-ip", "no-verdict", "unknown-field", "bad-ip",
            "bad-mac", "bad-verdict", "duplicate-ip", "numeric-ip",
            "numeric-mac", "list-ip"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ctl.MalformedAcl):
            ctl.parse_acl(bad)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ctl.MalformedAcl):
            ctl.load_acl(str(tmp_path / "absent.json"))

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "acl.json"
        path.write_text("{nope")
        with pytest.raises(ctl.MalformedAcl):
            ctl.load_acl(str(path))

    def test_load_repeated_verdict(self, tmp_path):
        # json.loads alone would load this entry as allow
        path = tmp_path / "acl.json"
        path.write_text(f'[{{"ip": "{BAD_IP}", "verdict": "deny", "verdict": "allow"}}]')
        with pytest.raises(ctl.MalformedAcl, match="repeats the key 'verdict'"):
            ctl.load_acl(str(path))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_load_non_number_constant(self, tmp_path, constant):
        path = tmp_path / "acl.json"
        path.write_text(f'[{{"ip": "{H_IP}", "verdict": {constant}}}]')
        with pytest.raises(ctl.MalformedAcl, match=f"is not valid JSON: {constant} is not"):
            ctl.load_acl(str(path))


class TestSequenceGeneration:
    def test_deterministic_for_a_seed(self):
        a = ctl.generate_sequence(random.Random(42), ip(H_IP))
        b = ctl.generate_sequence(random.Random(42), ip(H_IP))
        assert a == b
        assert a.knock_ports == (42929, 8320, 2663)
        assert a.service_port == 22

    def test_successive_draws_differ(self):
        rng = random.Random(42)
        first = ctl.generate_sequence(rng, ip(H_IP))
        second = ctl.generate_sequence(rng, ip("10.0.1.3"))
        assert first.knock_ports == (42929, 8320, 2663)
        assert second.knock_ports == (49622, 19048, 17073)

    def test_ports_distinct_and_in_range(self):
        rng = random.Random(7)
        for _ in range(300):
            seq = ctl.generate_sequence(rng, ip(H_IP))
            assert len(set(seq.knock_ports)) == 3
            assert all(1024 <= p <= 65535 for p in seq.knock_ports)
            assert seq.service_port == 22


class TestSequenceStore:
    def test_missing_file_is_empty(self, tmp_path):
        store = ctl.load_store(str(tmp_path / "absent.json"))
        assert store.sequences == {}

    def test_empty_file_is_empty(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("")
        assert ctl.load_store(str(path)).sequences == {}

    def test_round_trip_identity(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = ctl.SequenceStore(path)
        store.put(ip(H_IP), KnockSequence((2222, 3333, 4444), 22))
        store.put(ip("10.0.5.1"), KnockSequence((59275, 10989, 18698), 22))
        ctl.save_store(store)
        loaded = ctl.load_store(path)
        assert loaded.sequences == store.sequences
        copy = ctl.SequenceStore(str(tmp_path / "copy.json"))
        copy.sequences = loaded.sequences
        ctl.save_store(copy)
        assert ((tmp_path / "copy.json").read_bytes()
                == (tmp_path / "store.json").read_bytes())

    def test_canonical_text_is_sorted_and_terminated(self):
        store = ctl.SequenceStore()
        store.put(ip("10.0.10.1"), KnockSequence((2222, 3333, 4444), 22))
        store.put(ip("10.0.2.1"), KnockSequence((5555, 6666, 7777), 22))
        text = store.canonical_text()
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)   # sort_keys: canonical = lexical order
        assert store.canonical_text() == text

    @pytest.mark.parametrize("obj", [
        ["not", "a", "dict"],
        {"nonsense": {"knocks": [2222, 3333, 4444], "service": 22}},
        {H_IP: {"knocks": [2222, 3333, 4444]}},
        {H_IP: {"knocks": [2222, 3333, 4444], "service": 22, "x": 1}},
        {H_IP: {"knocks": [2222, "x", 4444], "service": 22}},
        {H_IP: {"knocks": [2222, 3333], "service": 22}},
        {H_IP: {"knocks": [80, 3333, 4444], "service": 22}},
        {H_IP: {"knocks": [2222, 2222, 4444], "service": 22}},
        {H_IP: {"knocks": [2222, 3333, 4444], "service": 2222}},
        {H_IP: {"knocks": [2222, 3333, 4444], "service": True}},
        {"10.0.1.2": {"knocks": [2222, 3333, 4444], "service": 22},
         "10.0.1.+2": {"knocks": [5555, 6666, 7777], "service": 22}},
    ], ids=["not-dict", "bad-ip", "missing-service", "extra-field",
            "non-int-knock", "two-knocks", "reserved-port-knock",
            "duplicate-knock", "service-is-knock", "bool-service",
            "one-ip-two-spellings"])
    def test_rejects_malformed(self, obj):
        with pytest.raises(ctl.MalformedStore):
            ctl.parse_store(obj)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{nope")
        with pytest.raises(ctl.MalformedStore):
            ctl.load_store(str(path))

    @pytest.mark.parametrize("text", [
        '{"10.0.1.2": {"knocks": [2222, 3333, 4444], "service": 22},'
        ' "10.0.1.2": {"knocks": [5555, 6666, 7777], "service": 22}}',
        '{"10.0.1.2": {"knocks": [2222, 3333, 4444], "knocks": [5555, 6666, 7777],'
        ' "service": 22}}',
        '{"10.0.1.2": {"knocks": [2222, 3333, 4444], "service": 22, "service": 23}}',
        '{"10.0.1.2": {"knocks": [2222, 3333, 4444], "service": 22},'
        ' "10.0.1.3": {"knocks": [5555, 6666, 7777], "service": 22},'
        ' "10.0.1.3": {"knocks": [5555, 6666, 7777], "service": 22}}',
    ], ids=["repeated-ip", "repeated-field", "repeated-service", "equal-repeat-later"])
    def test_load_repeated_key(self, tmp_path, text):
        path = tmp_path / "store.json"
        path.write_text(text)
        with pytest.raises(ctl.MalformedStore, match="repeats the key"):
            ctl.load_store(str(path))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_load_non_number_constant(self, tmp_path, constant):
        path = tmp_path / "store.json"
        path.write_text(f'{{"{H_IP}": {{"knocks": [2222, 3333, {constant}], "service": 22}}}}')
        with pytest.raises(ctl.MalformedStore, match=f"is not valid JSON: {constant} is not"):
            ctl.load_store(str(path))

    def test_blank_file_is_empty(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(" \n\t")
        store = ctl.load_store(str(path))
        assert store.sequences == {} and store.path == str(path)

    def test_save_in_memory_store_is_noop(self):
        store = ctl.SequenceStore()
        store.put(ip(H_IP), KnockSequence((2222, 3333, 4444), 22))
        ctl.save_store(store)   # no path: must not raise or write

    def test_save_unwritable_path(self, tmp_path):
        store = ctl.SequenceStore(str(tmp_path / "no" / "such" / "dir.json"))
        store.put(ip(H_IP), KnockSequence((2222, 3333, 4444), 22))
        with pytest.raises(ctl.PersistenceFailure):
            ctl.save_store(store)

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, step):
        """A write that fails after the new text went to disk, before or
        at the rename, leaves the old file's bytes and no temporary file."""
        path = tmp_path / "store.json"
        store = ctl.SequenceStore(str(path))
        store.put(ip(H_IP), KnockSequence((2222, 3333, 4444), 22))
        ctl.save_store(store)
        assert os.listdir(tmp_path) == ["store.json"]
        old = path.read_bytes()

        def fail(*args):
            raise OSError(errno.EIO, "injected I/O error")
        monkeypatch.setattr(os, step, fail)
        store.put(ip("10.0.5.1"), KnockSequence((5555, 6666, 7777), 22))
        with pytest.raises(ctl.PersistenceFailure, match="injected I/O error"):
            ctl.save_store(store)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["store.json"]


class TestDenyPath:
    def test_denied_host_gets_single_drop_rule(self, tmp_path):
        c = build_controller(tmp_path)
        installs = c.handle_packet_in("sw_knock", punt_bytes(src_ip=BAD_IP))
        assert len(installs) == 1
        table, rule = installs[0]
        assert table == "present_table"
        assert rule.key == (ip(BAD_IP),)
        assert rule.action.kind == tb.DROP

    def test_host_absent_from_acl_is_denied(self, tmp_path):
        c = build_controller(tmp_path)
        installs = c.handle_packet_in("sw_knock",
                                      punt_bytes(src_ip="10.0.7.7"))
        assert [(t, r.action.kind) for t, r in installs] == [
            ("present_table", tb.DROP)]

    def test_denied_host_never_drains_the_rng(self, tmp_path):
        """Sequence randomness is consumed only for allowed hosts, so a
        denied punt arriving first must not shift later sequences."""
        c = build_controller(tmp_path)
        c.handle_packet_in("sw_knock", punt_bytes(src_ip=BAD_IP))
        installs = c.handle_packet_in("sw_knock", punt_bytes())
        knocks = [r.key[1] for t, r in installs if t == "knock_rules"]
        assert knocks[:3] == [42929, 8320, 2663]


class TestAllowPath:
    def test_knocking_switch_install_set(self, tmp_path):
        c = build_controller(tmp_path)
        grouped = by_table(c.handle_packet_in("sw_knock", punt_bytes()))
        present = grouped["present_table"]
        assert len(present) == 1
        assert present[0].key == (ip(H_IP),)
        assert present[0].action.kind == tb.SET_ALLOWED

        knocks = grouped["knock_rules"]
        assert [(r.key[1], r.action.data) for r in knocks] == [
            (42929, 0), (8320, 1), (2663, 2), (22, 3)]
        assert all(r.key[0] == ip(H_IP) for r in knocks)

        routes = {r.key[0]: r.action.data for r in grouped["ipv4_forward"]}
        assert routes == {ip("10.0.1.2"): 1, ip("10.0.5.1"): 3}
        assert "check_ip" not in grouped and "check_mac" not in grouped

    def test_later_punts_carry_no_route_rules(self, tmp_path):
        c = build_controller(tmp_path)
        first = by_table(c.handle_packet_in("sw_knock", punt_bytes()))
        second = by_table(c.handle_packet_in(
            "sw_knock", punt_bytes(src_ip="10.0.1.9")))
        assert len(first["ipv4_forward"]) == 2
        assert set(second) == {"present_table", "knock_rules"}
        other = by_table(c.handle_packet_in("sw_plain", punt_bytes()))
        assert {r.key[0]: r.action.data for r in other["ipv4_forward"]} == {
            ip("10.0.5.1"): 2}

    def test_denied_punt_does_not_use_up_the_routes(self, tmp_path):
        c = build_controller(tmp_path)
        c.handle_packet_in("sw_knock", punt_bytes(src_ip=BAD_IP))
        grouped = by_table(c.handle_packet_in("sw_knock", punt_bytes()))
        assert [r.key[0] for r in grouped["ipv4_forward"]] == [
            ip("10.0.1.2"), ip("10.0.5.1")]

    def test_replayed_punt_carries_nothing(self, tmp_path):
        """A replayed punt carries nothing the first one did not: a deny
        repeats its drop, an allow its per-host rules, without routes."""
        c = build_controller(tmp_path)
        deny = c.handle_packet_in("sw_knock", punt_bytes(src_ip=BAD_IP))
        assert c.handle_packet_in("sw_knock", punt_bytes(src_ip=BAD_IP)) == deny
        first = c.handle_packet_in("sw_both", punt_bytes())
        assert set(by_table(first)) == {"present_table", "check_ip", "check_mac",
                                        "knock_rules", "ipv4_forward"}
        assert c.handle_packet_in("sw_both", punt_bytes()) == [
            (table, rule) for table, rule in first if table != "ipv4_forward"]

    def test_stateless_switch_install_set(self, tmp_path):
        c = build_controller(tmp_path)
        grouped = by_table(c.handle_packet_in("sw_sl", punt_bytes()))
        assert "knock_rules" not in grouped
        assert grouped["check_ip"][0].key == (ip(H_IP),)
        mac_rule = grouped["check_mac"][0]
        assert mac_rule.key == (ip(H_IP), MacAddr.from_text(H_MAC))
        assert mac_rule.action.kind == tb.SET_ALLOWED

    def test_mac_learned_from_packet_when_acl_has_none(self, tmp_path):
        c = build_controller(tmp_path)
        observed = "02:00:00:00:01:09"
        grouped = by_table(c.handle_packet_in(
            "sw_sl", punt_bytes(src_ip="10.0.1.9", src_mac=observed)))
        assert grouped["check_mac"][0].key == (
            ip("10.0.1.9"), MacAddr.from_text(observed))

    def test_acl_mac_wins_over_observed_mac(self, tmp_path):
        """A spoofed punt cannot rebind an ACL-pinned MAC."""
        c = build_controller(tmp_path)
        grouped = by_table(c.handle_packet_in(
            "sw_sl", punt_bytes(src_mac="02:00:00:00:0f:0f")))
        assert grouped["check_mac"][0].key == (
            ip(H_IP), MacAddr.from_text(H_MAC))

    def test_plain_switch_gets_presence_and_routes_only(self, tmp_path):
        c = build_controller(tmp_path)
        grouped = by_table(c.handle_packet_in("sw_plain", punt_bytes()))
        assert set(grouped) == {"present_table", "ipv4_forward"}


class TestIdempotenceAndStability:
    def test_second_punt_installs_nothing(self, tmp_path):
        """A repeated punt's answer, applied mid-knock, changes no table
        and keeps the source's knock stage."""
        c, sw = build_controller(tmp_path), knock_switch()
        sw.apply_rule_install(c.handle_packet_in("sw_knock", punt_bytes()))
        _, _, out = sw.process_packet(1, make_packet(
            src_mac=H_MAC, dst_mac="02:00:00:00:05:01", src_ip=H_IP,
            dst_ip="10.0.5.1", sport=40001, dport=42929))
        assert out is None   # first knock
        assert sw.knock_stages == {ip(H_IP): 1}
        installed = {name: dict(table.rules) for name, table in sw.tables.items()}
        for dport in (80, 443):
            sw.apply_rule_install(c.handle_packet_in("sw_knock", punt_bytes(dport=dport)))
        assert {name: dict(table.rules) for name, table in sw.tables.items()} == installed
        assert sw.knock_stages == {ip(H_IP): 1}

    def test_same_host_same_sequence_on_every_switch(self, tmp_path):
        c = build_controller(tmp_path)
        first = by_table(c.handle_packet_in("sw_knock", punt_bytes()))
        second = by_table(c.handle_packet_in("sw_both", punt_bytes()))
        knocks = lambda g: [(r.key[1], r.action.data)
                            for r in g["knock_rules"]]
        assert knocks(first) == knocks(second)

    def test_sequence_survives_controller_restart(self, tmp_path):
        path = tmp_path / "store.json"
        c1 = build_controller(tmp_path)
        first = by_table(c1.handle_packet_in("sw_knock", punt_bytes()))
        c2 = build_controller(tmp_path, seed=999,
                              store=ctl.load_store(str(path)))
        second = by_table(c2.handle_packet_in("sw_knock", punt_bytes()))
        assert ([r.key[1] for r in first["knock_rules"]]
                == [r.key[1] for r in second["knock_rules"]])


class TestInstallsOnTheSwitch:
    """The controller hands a switch its routes once; every install the
    switch applies is a plain insert."""

    def test_second_punt_leaves_the_first_punts_routes(self, tmp_path):
        c, sw = build_controller(tmp_path), knock_switch()
        first = c.handle_packet_in("sw_knock", punt_bytes())
        sw.apply_rule_install(first)
        sw.apply_rule_install(c.handle_packet_in("sw_knock", punt_bytes(src_ip="10.0.1.9")))
        routes = by_table(first)["ipv4_forward"]
        assert sw.ipv4_forward.rules == {r.key: r for r in routes}
        assert all(sw.ipv4_forward.rules[r.key] is r for r in routes)

    def test_equal_preinstalled_route_is_replaced_by_the_controllers_rule(
            self, tmp_path):
        c, sw = build_controller(tmp_path), knock_switch()
        preinstalled = tb.Rule((ip("10.0.1.2"),), tb.forward(1))
        sw.apply_rule_install([("ipv4_forward", preinstalled)])
        installs = c.handle_packet_in("sw_knock", punt_bytes())
        sw.apply_rule_install(installs)
        route = next(r for t, r in installs
                     if t == "ipv4_forward" and r.key == preinstalled.key)
        assert route == preinstalled and route is not preinstalled
        assert sw.ipv4_forward.rules[route.key] is route


class TestPersistence:
    def test_sequence_on_disk_before_rules_handed_out(self, tmp_path):
        path = tmp_path / "store.json"
        c = build_controller(tmp_path)
        c.handle_packet_in("sw_knock", punt_bytes())
        on_disk = json.loads(path.read_text())
        assert on_disk == {H_IP: {"knocks": [42929, 8320, 2663],
                                  "service": 22}}

    def test_write_failure_withholds_installs_and_rolls_back(self, tmp_path):
        store = ctl.SequenceStore(str(tmp_path / "no" / "dir" / "s.json"))
        c = build_controller(tmp_path, store=store)
        with pytest.raises(ctl.PersistenceFailure):
            c.handle_packet_in("sw_knock", punt_bytes())
        assert store.get(ip(H_IP)) is None          # memory matches disk

    def test_retry_succeeds_after_path_fixed(self, tmp_path):
        store = ctl.SequenceStore(str(tmp_path / "no" / "dir" / "s.json"))
        c = build_controller(tmp_path, store=store)
        with pytest.raises(ctl.PersistenceFailure):
            c.handle_packet_in("sw_knock", punt_bytes())
        store.path = str(tmp_path / "store.json")
        installs = by_table(c.handle_packet_in("sw_knock", punt_bytes()))
        assert "knock_rules" in installs
        assert [r.key[0] for r in installs["ipv4_forward"]] == [
            ip("10.0.1.2"), ip("10.0.5.1")]
