"""Report bytes of single packet fates, pinned by SHA-256.

The bundled scenarios and the benchmark's workloads pin the common paths;
these small scenarios pin the rarer ones a rewrite of the simulator or the
switch could change: a repeat with a gap and a fixed source port, knocks
in a permuted order, with another host's sequence, from a spoofed address,
without the service probe and as a bare service probe, a restart at stage
1 and 2, a source with no knock state, a displaced knock rule, a TTL that
runs out, a route that drops, and an egress port with nothing attached.
Three more go through `p4filter run --store`: a pre-seeded store file, one
a punt creates, and one that cannot be written. A changed digest in
fixtures/outcome_digests.json or fixtures/store_outcomes.json is a
behaviour change, to be explained or reverted, never re-recorded to make
the test pass.
"""

import hashlib
import json
import linecache
import re
import sys

import pytest

from conftest import fixture_json
from p4filter import cli, controller, knocking, switch
from p4filter.bundled import default_topology_path
from p4filter.controller import parse_acl, parse_store
from p4filter.scenario import parse_scenario
from p4filter.sim import run_scenario
from p4filter.topology import parse_topology

DIGESTS = fixture_json("outcome_digests.json")
STORE_OUTCOMES = fixture_json("store_outcomes.json")

ALLOW_H2 = [{"ip": "10.0.1.2", "mac": "02:00:00:00:01:02", "verdict": "allow"}]
ALLOW_H1_H2 = ALLOW_H2 + [
    {"ip": "10.0.1.1", "mac": "02:00:00:00:01:01", "verdict": "allow"}]
H2_SEQUENCE = {"10.0.1.2": {"knocks": [1111, 2222, 3333], "service": 22}}
ADMIT_H2 = {"time": 0, "host": "h2", "action": "send", "dst": "h7", "dport": 22}
S3_TO_PORT_4 = {"switch": "s3", "table": "ipv4_forward", "key": ["10.0.5.1"],
                "action": "Forward", "params": {"port": 4}}


def on_s6(table, *key, **params):
    return {"switch": "s6", "table": table, "key": list(key), "action": "SetAllowed",
            "params": params}


# h2 passes s6's presence and stateless stages without a punt, so s6 has
# no routes and no knock state for it
ALLOW_H2_ON_S6 = [on_s6("present_table", "10.0.1.2"), on_s6("check_ip", "10.0.1.2"),
                  on_s6("check_mac", "10.0.1.2", "02:00:00:00:01:02")]


def send(time, host, dst, **fields):
    return {"time": time, "host": host, "action": "send", "dst": dst,
            "dport": 80, **fields}


def knock(time, host, **fields):
    return {"time": time, "host": host, "action": "knock", "dst": "h7", **fields}


# name -> (topology, ACL entries, store object, events, preinstall rules);
# topology "spare" is the bundled one with an unattached port 4 on s3
CASES = {
    "four_switch_delivery": ("default", [], {}, [send(0, "h1", "h3")], []),
    "repeat_gap_fixed_sport": ("default", [], {}, [
        send(0, "h1", "h4", sport=1234, repeat=3, gap=2),
        send(1, "h3", "h5", repeat=2, gap=0)], []),
    "spoofed_send_identity": ("default", [], {}, [
        send(0, "h5", "h3", src_ip_of="h1"),
        send(2, "h5", "h3", src_mac_of="h4"),
        send(4, "h3", "h1")], []),
    "knock_permuted_order": ("default", ALLOW_H2, {}, [
        ADMIT_H2, knock(10, "h2", order=[2, 0, 1]), knock(20, "h2")], []),
    "knock_sequence_of": ("default", ALLOW_H1_H2, {}, [
        ADMIT_H2, send(1, "h1", "h7", dport=22),
        knock(10, "h1", sequence_of="h2"), knock(20, "h1")], []),
    "knock_spoofed_source": ("default", ALLOW_H2, {}, [
        ADMIT_H2, knock(10, "h1", src_ip_of="h2"),
        knock(20, "h3", src_ip_of="h2", src_mac_of="h2")], []),
    "knock_without_service": ("default", ALLOW_H2, {}, [
        ADMIT_H2, knock(10, "h2", include_service=False),
        send(20, "h2", "h7", dport=22)], []),
    "open_service_only": ("default", ALLOW_H2, {}, [
        ADMIT_H2, {"time": 10, "host": "h2", "action": "open_service", "dst": "h7"},
        knock(20, "h2"),
        {"time": 30, "host": "h2", "action": "open_service", "dst": "h7"}], []),
    "preseeded_store_knock": ("default", ALLOW_H2, H2_SEQUENCE, [
        knock(0, "h2"), knock(10, "h2", spacing=3)], []),
    "knock_restart_at_stages_one_and_two": ("default", ALLOW_H2, H2_SEQUENCE, [
        ADMIT_H2, *(send(t, "h2", "h7", dport=dport) for t, dport in enumerate(
            (1111, 1111, 2222, 1111, 2222, 3333, 22), start=10))], []),
    "no_knock_state": ("default", [], {}, [send(0, "h2", "h7")], ALLOW_H2_ON_S6),
    "knock_rule_displacement": ("default", [], {}, [
        send(0, "h2", "h7", dport=2222), send(1, "h2", "h7", dport=22)],
        ALLOW_H2_ON_S6 + [
            on_s6("knock_rules", "10.0.1.2", port, pos=pos)
            for pos, port in enumerate(("1111", "2222", "3333", "22"))]
        # 2222 moves to position 0: 1111's rule goes and position 1 empties
        + [on_s6("knock_rules", "10.0.1.2", "2222", pos=0)]),
    "ttl_one_and_zero": ("default", [], {}, [
        send(0, "h1", "h3", ttl=1), send(0, "h1", "h3", ttl=0),
        send(1, "h3", "h4", ttl=0), send(1, "h3", "h5", ttl=2)], []),
    "no_route": ("default", [], {}, [send(0, "h1", "h3"), send(0, "h1", "h4")], [
        {"switch": "s3", "table": "ipv4_forward", "key": ["10.0.5.1"],
         "action": "Drop"}]),
    "unattached_egress": ("spare", [], {}, [
        send(0, "h1", "h3"), send(0, "h1", "h4", ttl=1)], [S3_TO_PORT_4]),
    "unattached_egress_beside_delivery": ("spare", [], {}, [
        send(0, "h1", "h3", repeat=2), send(1, "h2", "h4"),
        send(2, "h5", "h3")], [S3_TO_PORT_4]),
}


def topology(kind):
    with open(default_topology_path(), encoding="utf-8") as f:
        obj = json.load(f)
    if kind == "spare":
        s3 = next(s for s in obj["switches"] if s["id"] == "s3")
        s3["ports"].append(4)
    return parse_topology(obj)


def run_case(name):
    topo, acl, store, events, preinstall = CASES[name]
    spec = parse_scenario({"name": name, "seed": 7, "events": events,
                           "preinstall": preinstall})
    return run_scenario(topology(topo), spec, acl=parse_acl(acl),
                        store=parse_store(store))


# Cases run through `p4filter run --store`, so the store is a file: name ->
# (ACL entries, the file's text before the run or None for no file, events).
# The pre-seeded file is not in the canonical layout, so a rewrite shows.
STORE_CASES = {
    "store_file_preseeded_knock": (ALLOW_H1_H2, json.dumps(H2_SEQUENCE), [
        knock(0, "h2"), knock(10, "h2", spacing=3), send(20, "h1", "h7", dport=22)]),
    "store_file_created_by_punt": (ALLOW_H2, None, [ADMIT_H2, knock(10, "h2")]),
}


def run_cli_case(directory, name, acl, events, store):
    """`p4filter run` on the bundled topology with `--store store` and
    `--out` in `directory`: the exit code and the report's path."""
    directory.mkdir(exist_ok=True)
    acl_path, scenario, out = (directory / f for f in ("acl.json", "scenario.json",
                                                        "report.json"))
    acl_path.write_text(json.dumps(acl))
    scenario.write_text(json.dumps({"name": name, "seed": 7, "events": events}))
    code = cli.main(["run", "--topology", default_topology_path(), "--scenario",
                     str(scenario), "--acl", str(acl_path), "--store", str(store),
                     "--out", str(out)])
    return code, out


def run_store_case(directory, name):
    acl, text, events = STORE_CASES[name]
    store = directory / "store.json"
    if text is not None:
        directory.mkdir()
        store.write_text(text)
    return run_cli_case(directory, name, acl, events, store), store


def run_rollback_case(directory):
    """An allowed punt whose store file cannot be written: the store's
    parent directory does not exist."""
    store = directory / "absent" / "store.json"
    return run_cli_case(directory, "store_write_fails", ALLOW_H2, [ADMIT_H2], store), store


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)
    assert sorted(STORE_OUTCOMES) == sorted(STORE_CASES)


@pytest.mark.parametrize("name", CASES)
def test_report_matches_recorded_digest(name):
    report = run_case(name)
    digest = hashlib.sha256(report.canonical_text().encode()).hexdigest()
    assert digest == DIGESTS[name]


@pytest.mark.parametrize("name", STORE_CASES)
def test_store_file_matches_recorded_outcome(name, tmp_path):
    (code, out), store = run_store_case(tmp_path / name, name)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STORE_OUTCOMES[name]["report"]
    assert store.read_text(encoding="utf-8") == STORE_OUTCOMES[name]["store"]


def test_store_write_failure_exits_2_and_rolls_back(tmp_path, monkeypatch, capsys):
    loaded = []

    def load_and_keep(path):
        loaded.append(controller.load_store(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_store", load_and_keep)
    (code, out), store = run_rollback_case(tmp_path / "store_write_fails")
    assert code == 2
    assert not out.exists() and not store.parent.exists()
    assert loaded[0].path == str(store) and loaded[0].sequences == {}
    missing = re.escape(str(store.parent))
    assert re.fullmatch(
        f"error: cannot write store file {re.escape(str(store))}: \\[Errno 2\\] No such"
        f" file or directory: '{missing}/\\.store\\.json\\.[^/']+\\.tmp'\n",
        capsys.readouterr().err)


def test_unattached_egress_port_drops_after_forwarding():
    report = run_case("unattached_egress")
    assert report.hosts["h1"] == {"sent": 2, "delivered": 0, "dropped": 2,
                                  "punted": 0, "consumed": 0}
    last_h3 = [r for r in report.trace if r["dst"] == "10.0.5.1"][-1]
    assert (last_h3["switch"], last_h3["verdict"]) == ("s3", "Forwarded")
    last_h4 = [r for r in report.trace if r["dst"] == "10.0.5.2"][-1]
    assert (last_h4["switch"], last_h4["reason"]) == ("s3", "ttl expired")


@pytest.mark.parametrize("name, reason", [
    ("ttl_one_and_zero", "ttl expired"), ("no_route", "no route"),
    ("no_knock_state", "no knock state"), ("knock_rule_displacement", "no knock state")])
def test_case_reaches_its_drop(name, reason):
    assert reason in {r["reason"] for r in run_case(name).trace}


def test_identity_is_the_ip_and_mac_pair():
    """The threat model's boundary: the data plane knows a host only by its
    (IP, MAC), and the knock stage is keyed by source IP. So once h2 has
    knocked, h3 forging h2's IP and MAC reaches h7's service port, while h4
    forging h2's IP alone stops at s6's MAC binding."""
    spec = parse_scenario({"name": "identity_boundary", "seed": 7, "events": [
        ADMIT_H2, knock(10, "h2"),
        send(20, "h3", "h7", dport=22, sport=5003, src_ip_of="h2", src_mac_of="h2"),
        send(20, "h4", "h7", dport=22, sport=5004, src_ip_of="h2")]})
    report = run_scenario(topology("default"), spec, acl=parse_acl(ALLOW_H2),
                          store=parse_store({}))
    assert report.hosts["h3"] == {"sent": 1, "delivered": 1, "dropped": 0,
                                  "punted": 0, "consumed": 0}
    assert report.hosts["h4"] == {"sent": 1, "delivered": 0, "dropped": 1,
                                  "punted": 0, "consumed": 0}
    last_h4 = [r for r in report.trace if r["sport"] == 5004][-1]
    assert (last_h4["switch"], last_h4["stage"], last_h4["reason"]) == (
        "s6", "stateless", "check_mac drop")


# Rare pipeline lines the cases above must keep running, as (module,
# function, the line above, the line): the text, not the line number, so
# an edit elsewhere in the file does not move them.
OUTCOME_LINES = {
    ("switch", "_egress_is_internal",
     "if route.kind != tables.FORWARD:", "return False"),
    ("switch", "process_packet", "if stage is None:",
     "return STAGE_KNOCKING, _NO_KNOCK_STATE, None"),
    ("switch", "process_packet", "if route.kind != tables.FORWARD:",
     "return STAGE_FORWARD, _NO_ROUTE, None"),
    ("switch", "process_packet", "except TtlExpired:",
     "return STAGE_FORWARD, _TTL_EXPIRED, None"),
    ("switch", "apply_rule_install", "if displaced is not None:",
     "table.delete((ip, displaced))"),
    ("switch", "apply_rule_install", "else:", "self.knock_stages.pop(ip, None)"),
    # the restart below stage 3, not the re-authentication from it
    ("knocking", "knock_step", "if pos == 0:", "return _ABSORBED, 1"),
    # a store file read, written and rolled back
    ("controller", "load_store",
     '"""Read a store file; a missing or empty file is an empty store."""',
     'return parse_store(read_json(path, MalformedStore, "store", empty=True), path)'),
    ("controller", "save_store", "try:",
     "fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(store.path)),"),
    ("controller", "save_store", "f.flush()", "os.fsync(f.fileno())"),
    ("controller", "save_store", "os.fsync(f.fileno())", "os.replace(tmp, store.path)"),
    ("controller", "save_store", "except OSError as e:", "if tmp is not None:"),
    ("controller", "handle_packet_in", "except PersistenceFailure:",
     "self.store.remove(src)   # keep memory equal to disk"),
    ("controller", "remove", "def remove(self, ip: Ipv4Address) -> None:",
     "self.sequences.pop(ip, None)"),
}


def run_every_case(directory):
    for name in CASES:
        run_case(name)
    for name in STORE_CASES:
        run_store_case(directory / name, name)
    run_rollback_case(directory / "store_write_fails")


def executed_lines(modules, run):
    """(module, function, the line above, the line) for every line of
    `modules` that `run()` executes."""
    names = {m.__file__: m.__name__.rpartition(".")[2] for m in modules}
    seen = set()

    def line_tracer(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_code.co_name, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        return line_tracer if frame.f_code.co_filename in names else None

    previous = sys.gettrace()
    sys.settrace(call_tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(names[path], function, linecache.getline(path, n - 1).strip(),
             linecache.getline(path, n).strip()) for path, function, n in seen}


def test_cases_run_every_rare_outcome_line(tmp_path):
    executed = executed_lines([switch, knocking, controller],
                              lambda: run_every_case(tmp_path))
    assert OUTCOME_LINES - executed == set()
