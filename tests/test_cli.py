import json
import os
import shutil
import subprocess
import sys

import pytest

import p4filter
from p4filter.bundled import data_file, default_topology_path, scenario_path
from p4filter.cli import main

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def run_cli(*argv):
    return main(list(argv))


def run_scenario_obj(tmp_path, scenario):
    """Exit code of `p4filter run` on a scenario written to tmp_path."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return run_cli("run", "--topology", default_topology_path(),
                   "--scenario", str(path))


class TestValidate:
    def test_valid_topology(self, capsys):
        assert run_cli("validate", "--topology",
                       default_topology_path()) == 0
        assert "6 switches, 7 hosts, 5 links" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = run_cli("validate", "--topology",
                       str(tmp_path / "absent.json"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_broken_topology(self, tmp_path, capsys):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"switches": [], "hosts": [],
                                    "links": "oops"}))
        assert run_cli("validate", "--topology", str(path)) == 2

    @pytest.mark.parametrize("switch_id, host, link", [
        (["a"], {}, {}),
        ("s1", {"name": ["h1"]}, {}),
        ("s1", {"switch": ["s1"]}, {}),
        ("s1", {"ip": 167772161}, {}),
        ("s1", {"mac": 5}, {}),
        ("s1", {}, {2: ["s2"]}),
    ], ids=["list-switch-id", "list-host-name", "list-host-switch",
            "numeric-host-ip", "numeric-host-mac", "list-link-switch"])
    def test_non_string_field_exits_two(self, tmp_path, capsys, switch_id, host, link):
        link_entry = ["s1", 2, "s2", 1]
        for index, value in link.items():
            link_entry[index] = value
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({
            "switches": [{"id": switch_id, "ports": [1, 2]}, {"id": "s2", "ports": [1]}],
            "hosts": [{"name": "h1", "ip": "10.0.0.1", "mac": "02:00:00:00:00:01",
                       "switch": "s1", "port": 1, **host}],
            "links": [link_entry]}))
        assert run_cli("validate", "--topology", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("rename", [("hosts", 0, "name", "h\ud800"),
                                        ("switches", 2, "id", "s\udc00")],
                             ids=["host-name", "switch-id"])
    def test_lone_surrogate_name_exits_two(self, tmp_path, capsys, command, rename):
        """JSON can spell a lone surrogate, which no summary line or UTF-8
        file can hold; the renamed host sends, so `run` prints its name."""
        section, index, field, name = rename
        with open(default_topology_path()) as f:
            topo = json.load(f)
        old = topo[section][index][field]
        topo[section][index][field] = name
        for host in topo["hosts"]:
            host["switch"] = name if host["switch"] == old else host["switch"]
        topo["links"] = [[name if end == old else end for end in link]
                         for link in topo["links"]]
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(topo))
        argv = ["--topology", str(path)]
        if command == "run":
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps({"events": [
                {"time": 0, "host": topo["hosts"][0]["name"], "action": "send",
                 "dst": "h3", "dport": 80}]}))
            argv += ["--scenario", str(scenario), "--out", str(tmp_path / "r.json")]
        assert run_cli(command, *argv) == 2
        assert "is not valid Unicode text" in capsys.readouterr().err

    @pytest.mark.parametrize("field, text", [
        ("ip", "10.0.1.+1"), ("ip", " 10.0.1.1"), ("ip", "10.0.1.\u0661"),
        ("ip", "010.0.1.1"), ("ip", "10.0.1_0.1"),
        ("mac", "0_2:00:00:00:01:01"), ("mac", "0x2:00:00:00:01:01"),
        ("mac", "+2:00:00:00:01:01"), ("mac", "2:0:0:0:1:1"),
    ])
    def test_non_canonical_host_address_exits_two(self, tmp_path, capsys, field, text):
        with open(default_topology_path()) as f:
            topo = json.load(f)
        topo["hosts"][0][field] = text
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(topo))
        assert run_cli("validate", "--topology", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: bad host entry")


class TestRun:
    def test_bundled_scenario_passes(self, capsys):
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("stateful_iperf"))
        assert code == 0
        out = capsys.readouterr().out
        assert "stateful_iperf" in out
        assert "h1: 5/5/0/0/0" in out
        assert "all expectations hold" in out

    def test_acl_defaults_to_scenario_reference(self, capsys):
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"))
        assert code == 0

    def test_report_written_and_canonical(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"),
                       "--out", str(out))
        assert code == 0
        text = out.read_text()
        report = json.loads(text)
        assert report["seed"] == 11
        assert report["hosts"]["h2"]["delivered"] == 2
        canonical = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert text == canonical

    def test_two_runs_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert run_cli("run", "--topology", default_topology_path(),
                           "--scenario", scenario_path("spoof"),
                           "--out", str(path)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_store_file_created_and_reused(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"),
                       "--store", str(store)) == 0
        first = json.loads(store.read_text())
        assert first == {"10.0.1.2": {"knocks": [30671, 57761, 37709],
                                      "service": 22}}
        # a second run must reuse the stored sequence even under a
        # different rng seed
        assert run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"),
                       "--store", str(store), "--seed", "999") == 0
        assert json.loads(store.read_text()) == first

    def test_seed_override_changes_fate(self, tmp_path):
        """Under a fresh seed the stored sequence differs, so the scripted
        knocks still authenticate (they replay the store), and the run
        stays green while producing different sequence ports."""
        out = tmp_path / "r.json"
        assert run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"),
                       "--seed", "404", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["seed"] == 404
        assert report["sequences"]["10.0.1.2"]["knocks"] != [30671, 57761,
                                                             37709]

    def test_expect_failure_exits_one(self, tmp_path, capsys):
        scenario = json.loads(
            open(scenario_path("stateful_iperf")).read())
        del scenario["acl"]   # the copy lives in tmp_path; its ACL is empty
        scenario["expect"]["hosts"]["h1"]["delivered"] = 4
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", str(path))
        assert code == 1
        captured = capsys.readouterr()
        assert "expect failed: h1: expected delivered=4, got 5" in captured.err
        assert "FAIL" in captured.out

    def test_missing_scenario_exits_two(self, tmp_path, capsys):
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", str(tmp_path / "absent.json"))
        assert code == 2

    def test_malformed_acl_exits_two(self, tmp_path, capsys):
        acl = tmp_path / "acl.json"
        acl.write_text(json.dumps([{"ip": "10.0.1.1", "verdict": "maybe"}]))
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("stateful_iperf"),
                       "--acl", str(acl))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [{"ip": 167772418}, {"mac": 5}],
                             ids=["numeric-ip", "numeric-mac"])
    def test_non_string_acl_address_exits_two(self, tmp_path, capsys, entry):
        acl = tmp_path / "acl.json"
        acl.write_text(json.dumps([{"ip": "10.0.1.2", "verdict": "allow", **entry}]))
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"), "--acl", str(acl))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("entry", [
        {"ip": "10.0.1.02"}, {"mac": "2:0:0:0:1:2"}, {"mac": "02:00:00:00:01:0x2"},
        {"mac": "02:00:00:00:01:+2"},
    ], ids=["ip-leading-zero", "mac-short-parts", "mac-0x", "mac-plus"])
    def test_non_canonical_acl_address_exits_two(self, tmp_path, capsys, entry):
        acl = tmp_path / "acl.json"
        acl.write_text(json.dumps([{"ip": "10.0.1.2", "mac": "02:00:00:00:01:02",
                                    "verdict": "allow", **entry}]))
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"), "--acl", str(acl))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad ")

    @pytest.mark.parametrize("text", [
        '{"10.0.1.2": {"knocks": [2000, 3000, 4000], "service": 22},'
        ' "10.0.1.+2": {"knocks": [5000, 6000, 7000], "service": 22}}',
        '{"10.0.1.2": {"knocks": [2000, 3000, 4000], "service": 22},'
        ' "10.0.1.2": {"knocks": [5000, 6000, 7000], "service": 22}}',
    ], ids=["two-spellings", "repeated-key"])
    def test_store_naming_one_address_twice_exits_two(self, tmp_path, capsys, text):
        store = tmp_path / "store.json"
        store.write_text(text)
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"),
                       "--store", str(store))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bool_store_port_exits_two(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        store.write_text(json.dumps({"10.0.1.2": {"knocks": [2000, 3000, 4000],
                                                  "service": True}}))
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"),
                       "--store", str(store))
        assert code == 2
        assert "error: bad entry for 10.0.1.2" in capsys.readouterr().err

    def test_malformed_store_exits_two(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        store.write_text(json.dumps({"10.0.1.2": {"knocks": [1, 2],
                                                  "service": 22}}))
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"),
                       "--store", str(store))
        assert code == 2

    def test_store_directory_exits_two(self, tmp_path, capsys):
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"),
                       "--store", str(tmp_path))
        assert code == 2
        assert "cannot read store file" in capsys.readouterr().err

    def test_undecodable_store_exits_two(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        store.write_bytes(b"\xff\xfe{}")
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("knock_auth"),
                       "--store", str(store))
        assert code == 2

    @pytest.mark.parametrize("out", [".", "missing/report.json"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, out):
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", scenario_path("stateful_iperf"),
                       "--out", str(tmp_path / out))
        assert code == 2
        assert "cannot write report file" in capsys.readouterr().err


class TestScenarioInputErrors:
    """Scenario values the parser or the preinstall step must refuse by
    name, so the run exits 2 instead of scheduling or crashing."""

    def test_negative_gap_exits_two(self, tmp_path, capsys):
        code = run_scenario_obj(tmp_path, {"events": [
            {"time": 5, "host": "h1", "action": "send", "dst": "h3",
             "dport": 80, "repeat": 3, "gap": -5}]})
        assert code == 2
        assert "gap must be a non-negative integer" in capsys.readouterr().err

    def test_negative_spacing_exits_two(self, tmp_path, capsys):
        code = run_scenario_obj(tmp_path, {"events": [
            {"time": 10, "host": "h2", "action": "knock", "dst": "h7",
             "spacing": -3}]})
        assert code == 2
        assert ("spacing must be a non-negative integer"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fields, message", [
        ({"ttl": 300}, "ttl must be an integer in 0..255"),
        ({"dport": "80"}, "dport must be an integer in 0..65535"),
        ({"dport": True}, "dport must be an integer in 0..65535"),
        ({"sport": 70000}, "sport must be an integer in 0..65535"),
        ({"flags": ["BOGUS"]}, "unknown TCP flag 'BOGUS'"),
        ({"payload": 5}, "payload must be a string"),
        ({"payload": "x" * 65496}, "payload is longer than 65495 bytes"),
        ({"payload": "\ud800"}, "payload must be valid Unicode text"),
        ({"repeat": "2"}, "repeat must be a non-negative integer"),
        ({"repeat": -1}, "repeat must be a non-negative integer"),
        ({"repeat": 0, "dst": "h9"}, "unknown host 'h9'"),
    ], ids=["ttl-300", "dport-text", "dport-bool", "sport-70000", "unknown-flag",
            "payload-int", "payload-too-long", "payload-surrogate", "repeat-text",
            "repeat-negative", "repeat-0-unknown-dst"])
    def test_bad_send_field_exits_two(self, tmp_path, capsys, fields, message):
        send = {"time": 0, "host": "h1", "action": "send", "dst": "h3", "dport": 80}
        code = run_scenario_obj(tmp_path, {"events": [{**send, **fields}]})
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("seeded", [False, True], ids=["no-store-file", "seeded-store"])
    def test_later_unknown_host_runs_nothing_and_leaves_the_store(
            self, tmp_path, capsys, seeded):
        """h2's first punt would be allowed and stored, but a later event
        names no host, so the run must stop before tick 0."""
        store = tmp_path / "store.json"
        if seeded:
            store.write_text(json.dumps({"10.0.1.3": {"knocks": [2222, 3333, 4444],
                                                      "service": 22}}))
            before = store.read_bytes()
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"acl": data_file("acl_knock.json"), "events": [
            {"time": 0, "host": "h2", "action": "send", "dst": "h7", "dport": 22},
            {"time": 10, "host": "h2", "action": "send", "dst": "h9", "dport": 22}]}))
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", str(scenario), "--store", str(store))
        assert code == 2
        assert "unknown host 'h9'" in capsys.readouterr().err
        if seeded:
            assert store.read_bytes() == before
        else:
            assert not store.exists()

    def test_knock_that_can_never_be_sent_runs_nothing(self, tmp_path, capsys):
        """h5 has no allow entry, so no punt can ever store its sequence:
        the run stops before tick 0, before h2's admission writes the
        store."""
        store = tmp_path / "st.json"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"acl": data_file("acl_knock.json"), "events": [
            {"time": 0, "host": "h2", "action": "send", "dst": "h7", "dport": 22},
            {"time": 10, "host": "h5", "action": "knock", "dst": "h7"}]}))
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", str(scenario), "--store", str(store))
        assert code == 2
        assert "no stored sequence for 10.0.2.1" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("rule", [
        {"switch": "s1", "table": "no_such_table", "key": ["10.0.1.1"],
         "action": "Drop"},
        {"switch": "s2", "table": "check_ip", "key": ["10.0.1.999"],
         "action": "Drop"},
        {"switch": "s2", "table": "check_mac", "key": ["10.0.1.1"],
         "action": "Drop"},
        {"switch": "s2", "table": "check_ip", "key": ["10.0.1.1", "x"],
         "action": "Drop"},
        {"switch": "s3", "table": "ipv4_forward", "key": ["10.0.1.3"],
         "action": "Forward", "params": {"port": [1]}},
        {"switch": "s2", "table": "check_ip", "key": ["10.0.1.+1"],
         "action": "Drop"},
        {"switch": "s2", "table": "check_ip", "key": ["010.0.1.1"],
         "action": "Drop"},
        {"switch": "s2", "table": "check_mac", "key": ["10.0.1.1", "2:0:0:0:1:1"],
         "action": "Drop"},
        {"switch": "s6", "table": "knock_rules", "key": ["10.0.1.1", " +2_2"],
         "action": "SetAllowed", "params": {"pos": 0}},
        {"switch": "s1", "table": "check_ports", "key": ["\u0663"],
         "action": "SetDirection", "params": {"dir": 1}},
        {"switch": "s6", "table": "knock_rules", "key": ["10.0.1.1", "70000"],
         "action": "SetAllowed", "params": {"pos": 0}},
        {"switch": "s1", "table": "check_ports", "key": ["01"],
         "action": "SetDirection", "params": {"dir": 1}},
        {"switch": "s3", "table": "ipv4_forward", "key": ["10.0.1.3"],
         "action": "Forward"},
        {"switch": "s3", "table": "ipv4_forward", "key": ["10.0.1.3"],
         "action": "Forward", "params": {"port": 0.5}},
        {"switch": "s2", "table": "check_ip", "key": ["10.0.1.1"],
         "action": "Teleport"},
        {"switch": "s2", "table": "check_ip", "key": ["10.0.1.1"],
         "action": "Drop", "params": {"port": 1}},
    ], ids=["unknown-table", "bad-key-field", "short-key", "long-key",
            "forward-port-list", "key-ip-sign", "key-ip-leading-zero",
            "key-mac-short-parts", "key-port-sign-space-underscore",
            "key-port-arabic-indic-digit", "key-port-70000", "key-port-leading-zero",
            "forward-no-port", "forward-port-float", "unknown-action-kind",
            "undeclared-param"])
    def test_bad_preinstall_rule_exits_two(self, tmp_path, capsys, rule):
        code = run_scenario_obj(tmp_path, {"events": [],
                                           "preinstall": [rule]})
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad preinstall rule {rule['table']} {rule['key']}" in err


    @pytest.mark.parametrize("value", ["1e400", "0.5", "-1.0", '"1"', "[1]", "true",
                                       "null"])
    def test_non_integer_action_param_exits_two(self, tmp_path, capsys, value):
        # written as raw text: 1e400 is a JSON number Python reads as inf
        path = tmp_path / "scenario.json"
        path.write_text('{"events": [], "preinstall": [{"switch": "s1",'
                        ' "table": "check_ports", "key": ["1"],'
                        ' "action": "SetDirection", "params": {"dir": %s}}]}' % value)
        code = run_cli("run", "--topology", default_topology_path(),
                       "--scenario", str(path))
        assert code == 2
        assert ("bad preinstall rule check_ports ['1'] on s1: action parameter"
                " 'dir' must be an integer") in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, message", [
        ({"events": [{"time": True, "host": "h1", "action": "send",
                      "dst": "h3", "dport": 80}]},
         "time must be a non-negative integer"),
        ({"seed": True, "events": []}, "seed must be an integer"),
        ({"events": None}, "events and preinstall must be lists"),
        ({"events": 5}, "events and preinstall must be lists"),
        ({"preinstall": 5}, "events and preinstall must be lists"),
        ({"preinstall": [{"switch": "s2", "table": "check_ip",
                          "key": ["10.0.1.1"], "action": "SetAllowed",
                          "params": 5}]},
         "params an object"),
        ({"preinstall": [{"switch": "s1", "table": "check_ports", "key": [22],
                          "action": "Drop"}]},
         "key a list of strings"),
        ({"preinstall": [{"switch": "s1", "table": "check_ports", "key": [True],
                          "action": "Drop"}]},
         "key a list of strings"),
        ({"preinstall": [{"switch": "s2", "table": "check_ip", "key": [None],
                          "action": "Drop"}]},
         "key a list of strings"),
        ({"name": 5, "events": []}, "name must be a string"),
        ({"events": [{"time": 0, "host": ["h1"], "action": "send",
                      "dst": "h3", "dport": 80}]}, "host must be a string"),
        ({"events": [{"time": 0, "host": "h1", "action": "send",
                      "dst": ["h3"], "dport": 80}]}, "dst must be a string"),
        ({"events": [{"time": 0, "host": "h1", "action": "send", "dst": "h3",
                      "dport": 80, "src_ip_of": ["h2"]}]},
         "src_ip_of must be a string or null"),
        ({"events": [{"time": 0, "host": "h1", "action": "send", "dst": "h3",
                      "dport": 80, "src_mac_of": {"host": "h2"}}]},
         "src_mac_of must be a string or null"),
        ({"events": [{"time": 0, "host": "h2", "action": "knock", "dst": "h7",
                      "sequence_of": ["h2"]}]},
         "sequence_of must be a string or null"),
        ({"name": "\ud800", "events": []}, "name must be valid Unicode text"),
        ({"acl": 5, "events": []}, "acl must be a string"),
        ({"acl": "a\x00b", "events": []}, "cannot read ACL file"),
        ({"acl": data_file("acl_knock.json"), "events": [
            {"time": 0, "host": "h2", "action": "send", "dst": "h7", "dport": 22},
            {"time": 10, "host": "h2", "action": "knock", "dst": "h7",
             "include_service": "no"}]},
         "include_service must be true or false"),
    ], ids=["time-bool", "seed-bool", "events-null", "events-int",
            "preinstall-int", "params-int", "key-int", "key-bool", "key-null",
            "name-int", "host-list", "dst-list", "src_ip_of-list", "src_mac_of-object",
            "sequence_of-list", "name-surrogate", "acl-int", "acl-nul",
            "include_service-text"])
    def test_mistyped_section_exits_two(self, tmp_path, capsys, scenario, message):
        assert run_scenario_obj(tmp_path, scenario) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("expect, message", [
        ({"hosts": []}, "expect hosts must map host names to objects of counts"),
        ({"hosts": {"h1": 5}}, "expect hosts must map host names to objects of counts"),
        ({"hosts": {"h1": {"teleported": 1}}}, "unknown metric 'teleported'"),
        ({"hosts": {"h1": {"sent": True}}}, "sent must be a non-negative integer"),
        ({"hosts": {"h1": {"sent": -1}}}, "sent must be a non-negative integer"),
        ({"hosts": {"h9": {"sent": 0}}}, "expect references unknown host 'h9'"),
        ({"h1": {"sent": 5}}, "expect may only hold 'hosts', not ['h1']"),
    ], ids=["hosts-list", "counts-int", "unknown-metric", "count-bool",
            "count-negative", "unknown-host", "key-not-hosts"])
    def test_bad_expect_block_exits_two(self, tmp_path, capsys, expect, message):
        code = run_scenario_obj(tmp_path, {"events": [
            {"time": 0, "host": "h1", "action": "send", "dst": "h3",
             "dport": 80}], "expect": expect})
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("params", [{"pos": 7}, {"pos": True}, {}],
                             ids=["pos-7", "pos-bool", "pos-missing"])
    def test_preinstalled_knock_rule_pos_outside_0_to_3_exits_two(
            self, tmp_path, capsys, params):
        rule = {"switch": "s6", "table": "knock_rules",
                "key": ["10.0.1.2", "2222"], "action": "SetAllowed",
                "params": params}
        code = run_scenario_obj(tmp_path, {"events": [],
                                           "preinstall": [rule]})
        assert code == 2
        err = capsys.readouterr().err
        assert "bad preinstall rule knock_rules ['10.0.1.2', '2222']" in err
        assert "'pos' in 0..3" in err


def run_with_file(flag, path):
    """Exit code of `p4filter run` on the bundled knock_auth inputs, with the
    file given as `flag` replaced by `path`."""
    files = {"--topology": default_topology_path(),
             "--scenario": scenario_path("knock_auth"), flag: str(path)}
    return run_cli("run", *(arg for item in files.items() for arg in item))


FILE_FLAGS = ["--topology", "--scenario", "--acl", "--store"]


class TestInputFiles:
    """Every input file is UTF-8 JSON as RFC 8259 defines it, with no NaN
    or Infinity and no object that repeats a key; anything else exits 2."""

    @pytest.mark.parametrize("flag", FILE_FLAGS)
    def test_undecodable_file_exits_two(self, tmp_path, capsys, flag):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run_with_file(flag, path) == 2
        kind = {"--acl": "ACL"}.get(flag, flag[2:])
        assert f"error: cannot read {kind} file {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text, key", [
        ("--topology", None, "ip"),
        ("--scenario", '{"name": "a", "events": [], "name": "b"}', "name"),
        ("--acl", '[{"ip": "10.0.2.1", "verdict": "deny", "verdict": "allow"}]',
         "verdict"),
        ("--store", '{"10.0.1.3": {"knocks": [2222, 3333, 4444], "service": 22,'
         ' "service": 23}}', "service"),
    ], ids=["topology-host-ip", "scenario-name", "acl-verdict", "store-service"])
    def test_repeated_key_exits_two(self, tmp_path, capsys, flag, text, key):
        if text is None:   # the bundled topology, its first host's ip given twice
            with open(default_topology_path(), encoding="utf-8") as f:
                text = f.read().replace('"ip": "10.0.1.1"',
                                        '"ip": "10.0.1.1", "ip": "10.0.1.77"', 1)
        path = tmp_path / "input.json"
        path.write_text(text)
        assert run_with_file(flag, path) == 2
        assert f"file {path} repeats the key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text", [
        ("--topology", '{"switches": NaN, "hosts": [], "links": []}'),
        ("--scenario", '{"events": [], "preinstall": [{"switch": "s1", "table":'
         ' "check_ports", "key": ["1"], "action": "SetDirection",'
         ' "params": {"dir": NaN}}]}'),
        ("--scenario", '{"events": [], "seed": Infinity}'),
        ("--scenario", '{"events": [], "seed": -Infinity}'),
        ("--acl", '[{"ip": "10.0.2.1", "verdict": NaN}]'),
        ("--store", '{"10.0.1.3": {"knocks": [NaN, 3333, 4444], "service": 22}}'),
    ], ids=["topology-nan", "scenario-params-nan", "scenario-infinity",
            "scenario-minus-infinity", "acl-nan", "store-nan"])
    def test_non_number_constant_exits_two(self, tmp_path, capsys, flag, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert run_with_file(flag, path) == 2
        assert f"file {path} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000],
                             ids=["nested-too-deep", "integer-too-long"])
    def test_json_beyond_the_parser_limits_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "topology.json"
        path.write_text(text)
        assert run_cli("validate", "--topology", str(path)) == 2
        assert f"topology file {path} is not valid JSON" in capsys.readouterr().err


class TestTextEncoding:
    """No file is opened as text without naming UTF-8: EncodingWarning is
    turned into an error in a child process that reads every input kind
    and writes a store and a report."""

    @staticmethod
    def run_strict(*argv, cwd):
        package_parent = os.path.dirname(
            os.path.dirname(os.path.abspath(p4filter.__file__)))
        env = dict(os.environ, PYTHONPATH=package_parent)
        return subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "p4filter.cli", *argv],
            capture_output=True, text=True, env=env, cwd=cwd)

    def test_validate(self, tmp_path):
        result = self.run_strict("validate", "--topology", default_topology_path(),
                                 cwd=tmp_path)
        assert result.returncode == 0, result.stderr

    def test_run_with_acl_store_and_out(self, tmp_path):
        store = tmp_path / "store.json"
        store.write_text(json.dumps({"10.0.1.3": {"knocks": [2222, 3333, 4444],
                                                  "service": 22}}))
        out = tmp_path / "report.json"
        result = self.run_strict(
            "run", "--topology", default_topology_path(),
            "--scenario", scenario_path("knock_auth"),
            "--acl", data_file("acl_knock.json"), "--store", str(store),
            "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        # h2 (10.0.1.2) was admitted, so the store was written, and so was the report
        assert set(json.loads(store.read_text())) == {"10.0.1.2", "10.0.1.3"}
        assert json.loads(out.read_text())["scenario"] == "knock_auth"


class TestEntryPoint:
    """The console script declared in pyproject.toml runs the CLI as its
    own process. The suite runs from a checkout, so the launcher an
    installer would generate is written here; the installed script on
    PATH is checked too wherever the package really is installed."""

    @staticmethod
    def expect_stateless_block(result):
        assert result.returncode == 0, result.stderr
        assert "h5: 5/0/5/0/0" in result.stdout

    @staticmethod
    def cli_args():
        return ["run", "--topology", default_topology_path(),
                "--scenario", scenario_path("stateless_block")]

    def test_installed_console_script(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["p4filter"]
        module, attr = entry.split(":")
        launcher = tmp_path / "p4filter"
        launcher.write_text("import sys\n"
                            f"from {module} import {attr}\n"
                            f"sys.exit({attr}())\n")
        package_parent = os.path.dirname(
            os.path.dirname(os.path.abspath(p4filter.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_parent, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, str(launcher), *self.cli_args()],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        self.expect_stateless_block(result)

    @pytest.mark.skipif(shutil.which("p4filter") is None,
                        reason="p4filter is not installed on PATH")
    def test_console_script_on_path(self):
        result = subprocess.run(["p4filter", *self.cli_args()],
                                capture_output=True, text=True)
        self.expect_stateless_block(result)


def test_runtime_imports_only_the_standard_library():
    """The runtime stays stdlib-only. In a fresh isolated interpreter,
    importing every p4filter module loads no top-level module from outside
    the standard library. Only what those imports add counts: `site` may
    load third-party hooks of its own before them."""
    package_dir = os.path.dirname(os.path.abspath(p4filter.__file__))
    code = ("import importlib, json, pkgutil, sys\n"
            f"sys.path.insert(0, {os.path.dirname(package_dir)!r})\n"
            "before = set(sys.modules)\n"
            "import p4filter\n"
            "for module in pkgutil.iter_modules(p4filter.__path__):\n"
            "    importlib.import_module('p4filter.' + module.name)\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    result = subprocess.run([sys.executable, "-I", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    modules = {name[:-3] for name in os.listdir(package_dir)
               if name.endswith(".py") and name != "__init__.py"}
    assert {name for name in loaded if name.startswith("p4filter.")} == {
        "p4filter." + name for name in modules}
    outside = {name.partition(".")[0] for name in loaded} - {"p4filter"}
    assert outside - sys.stdlib_module_names == set()
