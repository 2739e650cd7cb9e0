"""Stateful firewall stage: admit outside traffic only for flows an inside
host opened first, remembered in the Bloom pair."""

from __future__ import annotations

from .bloom import BloomPair
from .packet import Packet, flow_key
from .tables import Table
from .verdict import DROPPED, FORWARDED, Verdict

INTERNAL = 0
EXTERNAL = 1
_INSIDE = Verdict(FORWARDED, "stateful forward")
_REPLY = Verdict(FORWARDED, "stateful reply")
_UNSOLICITED = Verdict(DROPPED, "stateful drop")


def classify_direction(ingress_port: int, check_ports: Table) -> int:
    """0 when the ingress port is listed as internal, 1 otherwise."""
    _, hit = check_ports.lookup((ingress_port,))
    return INTERNAL if hit else EXTERNAL


def stateful_process(p: Packet, direction: int, pair: BloomPair) -> Verdict:
    """Run one packet through the flow tracker, mutating the pair in place.

    Internal packets always pass; a pure SYN additionally registers its
    flow. External packets pass only when both filters remember the
    reversed 4-tuple, so nothing an outside host sends can grow the state.
    """
    if direction == INTERNAL:
        if p.tcp.is_pure_syn:
            pair.insert(flow_key(p, INTERNAL))
        return _INSIDE
    if pair.contains(flow_key(p, EXTERNAL)):
        return _REPLY
    return _UNSOLICITED
