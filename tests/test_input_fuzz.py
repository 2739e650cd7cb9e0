"""Every input parser, fed any JSON value, returns a spec or raises its own
named exception: never a TypeError, AttributeError or other traceback."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p4filter.controller import MalformedAcl, MalformedStore, parse_acl, parse_store
from p4filter.scenario import InvalidScenario, parse_scenario
from p4filter.topology import InvalidTopology, parse_topology

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
