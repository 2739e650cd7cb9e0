"""Every input parser, fed any JSON value or a valid input with one leaf
replaced by any JSON value, returns a spec or raises its own named
exception: never a TypeError, AttributeError or other traceback. Every
loader does the same for a file holding any bytes, and loads each bundled
data file. The `run` command, fed any JSON scenario, exits 0, 1 or 2."""

import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p4filter import cli
from p4filter.bundled import data_file, default_topology_path, read_json
from p4filter.controller import (MalformedAcl, MalformedStore, load_acl, load_store,
                                 parse_acl, parse_store)
from p4filter.scenario import InvalidScenario, load_scenario, parse_scenario
from p4filter.topology import InvalidTopology, load_topology, parse_topology

# The field names and typical values of every input format, so generated
# objects reach past the top-level type checks.
FIELDS = [
    "switches", "hosts", "links", "id", "ports", "features", "internal_ports",
    "cpu_port", "name", "ip", "mac", "switch", "port", "verdict",
    "knocks", "service", "seed", "acl", "events", "preinstall", "expect",
    "time", "host", "action", "dst", "dport", "sport", "flags", "payload",
    "ttl", "src_ip_of", "src_mac_of", "repeat", "gap", "sequence_of",
    "order", "spacing", "include_service", "table", "key", "params", "pos",
    "sent", "delivered", "dropped", "punted", "consumed", "10.0.1.2",
]
TOKENS = [
    "send", "knock", "open_service", "h1", "h3", "s1", "s2", "10.0.1.1",
    "02:00:00:00:01:01", "allow", "deny", "SYN", "ACK", "Stateless",
    "Stateful", "Knocking", "check_ip", "knock_rules", "SetAllowed", "Drop",
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70000)
    | st.floats(allow_nan=False) | st.sampled_from(TOKENS) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=6)),
    max_leaves=15)


@pytest.mark.parametrize("parse, error", [
    (parse_topology, InvalidTopology),
    (parse_scenario, InvalidScenario),
    (parse_acl, MalformedAcl),
    (parse_store, MalformedStore),
], ids=["topology", "scenario", "acl", "store"])
@given(value=json_values)
@settings(max_examples=150, deadline=None)
def test_parser_returns_a_spec_or_raises_its_named_error(parse, error, value):
    try:
        parse(value)
    except error:
        pass


def leaf_paths(value, path=()):
    """The path (keys and indexes) to every scalar or empty container."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from leaf_paths(item, (*path, key))
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from leaf_paths(item, (*path, index))
    else:
        yield path


def with_leaf(value, path, new):
    """A copy of `value` with the leaf at `path` replaced by `new`."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: with_leaf(value[head], rest, new)}
    return [with_leaf(item, rest, new) if index == head else item
            for index, item in enumerate(value)]


VALID_INPUTS = [
    (parse_topology, InvalidTopology,
     read_json(default_topology_path(), InvalidTopology, "topology")),
    (parse_acl, MalformedAcl, read_json(data_file("acl_knock.json"), MalformedAcl, "ACL")),
    (parse_store, MalformedStore, {"10.0.1.2": {"knocks": [2000, 3000, 4000],
                                                "service": 22}}),
]


@pytest.mark.parametrize("parse, error, document", VALID_INPUTS,
                         ids=["topology", "acl", "store"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_one_replaced_leaf_gives_a_spec_or_the_named_error(parse, error, document,
                                                           data):
    parse(document)   # the unchanged input is valid
    path = data.draw(st.sampled_from(list(leaf_paths(document))), label="path")
    changed = with_leaf(document, path, data.draw(json_values, label="leaf"))
    try:
        parse(changed)
    except error:
        pass


LOADERS = {"topology": (load_topology, InvalidTopology),
           "scenario": (load_scenario, InvalidScenario),
           "acl": (load_acl, MalformedAcl),
           "store": (load_store, MalformedStore)}

# Any bytes, JSON text of any value (floats include the infinities, which
# json.dumps writes as Infinity), and the same text in UTF-16.
file_bytes = (st.binary(max_size=40)
              | json_values.map(lambda v: json.dumps(v).encode())
              | json_values.map(lambda v: json.dumps(v, ensure_ascii=False).encode("utf-16")))


@pytest.mark.parametrize("kind", LOADERS)
@given(content=file_bytes)
@settings(max_examples=150, deadline=None)
def test_loader_returns_a_spec_or_raises_its_named_error(tmp_path_factory, kind,
                                                         content):
    load, error = LOADERS[kind]
    path = tmp_path_factory.mktemp("bytes") / "input.json"
    path.write_bytes(content)
    try:
        load(str(path))
    except error:
        pass


BUNDLED = sorted(f.name for f in (resources.files("p4filter") / "data").iterdir()
                 if f.name.endswith(".json"))


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_data_file_loads(name):
    # a failure here is a bug in the data file, not in the reader
    load, _ = LOADERS[name.split("_")[0]]
    load(data_file(name))


# Events close enough to valid ones that most runs get past the parser:
# host names the bundled topology knows, increasing times, and small
# counts; then, in about half the scenarios, one field of one event is
# swapped for any JSON value that is not an integer (so no run is long).
HOSTS = ["h1", "h2", "h3", "h5", "h7", "h9"]
event_fields = {
    "sport": st.integers(0, 65535),
    "flags": st.lists(st.sampled_from(["SYN", "ACK", "FIN"]), max_size=2),
    "payload": st.sampled_from(["", "x", "\ud800", "\x00"]),
    "ttl": st.integers(0, 3), "repeat": st.integers(0, 3), "gap": st.integers(0, 2),
    "src_ip_of": st.sampled_from(HOSTS), "src_mac_of": st.sampled_from(HOSTS),
    "sequence_of": st.sampled_from(HOSTS),
    "order": st.permutations([0, 1, 2]), "spacing": st.integers(0, 2),
    "include_service": st.booleans(),
}
required_fields = {
    "host": st.sampled_from(HOSTS), "dst": st.sampled_from(HOSTS),
    "action": st.sampled_from(["send", "knock", "open_service"]),
    "dport": st.sampled_from([22, 80]),
}
events = st.lists(st.fixed_dictionaries(required_fields, optional=event_fields),
                  max_size=4)


@st.composite
def event_lists(draw):
    evs = [{"time": 5 * i, **e} for i, e in enumerate(draw(events))]
    if evs and draw(st.booleans()):
        event = draw(st.sampled_from(evs))
        field = draw(st.sampled_from([*required_fields, *event_fields]))
        event[field] = draw(json_values.filter(lambda v: type(v) is not int))
    return evs


preinstall_rules = st.fixed_dictionaries({
    "switch": st.sampled_from(["s1", "s2", "s6"]),
    "table": st.sampled_from(["ipv4_forward", "check_ports", "present_table",
                              "knock_rules", "check_ip"]),
    "key": st.lists(st.sampled_from(["10.0.1.2", "10.0.1.1", "3", "22"]), max_size=2),
    "action": st.sampled_from(["Forward", "SetDirection", "SetAllowed", "Drop"]),
    "params": st.dictionaries(st.sampled_from(["port", "dir", "pos"]), json_values,
                              max_size=2)})
scenarios = st.fixed_dictionaries({"events": event_lists()}, optional={
    "name": st.text(max_size=4) | st.just("\ud800") | json_values,
    "seed": st.integers() | json_values,
    "acl": st.sampled_from([data_file("acl_knock.json"), "absent.json", "a\x00b"])
    | json_values,
    "preinstall": st.lists(preinstall_rules, max_size=2) | json_values,
    "expect": st.fixed_dictionaries({"hosts": st.dictionaries(
        st.sampled_from(HOSTS), st.dictionaries(
            st.sampled_from(["sent", "delivered"]), st.integers(0, 3)))}) | json_values,
}) | json_values


@given(scenario=scenarios, with_acl=st.booleans())
@settings(max_examples=150, deadline=None)
def test_run_command_exits_0_1_or_2_on_any_scenario(tmp_path_factory, scenario,
                                                     with_acl):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(scenario))
    argv = ["run", "--topology", default_topology_path(), "--scenario", str(path)]
    if with_acl:
        argv += ["--acl", data_file("acl_knock.json")]
    assert cli.main(argv) in (0, 1, 2)
