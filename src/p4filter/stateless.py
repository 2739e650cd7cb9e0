"""Stateless firewall stage: allow known (IP, MAC) sources, drop known-bad,
punt unknowns to the controller."""

from __future__ import annotations

from . import tables
from .packet import Packet
from .tables import Table
from .verdict import DROPPED, FORWARDED, PUNTED, Verdict

_IP_DROP = Verdict(DROPPED, "check_ip drop")
_IP_PUNT = Verdict(PUNTED, "check_ip punt")
_ALLOW = Verdict(FORWARDED, "stateless allow")
_MAC_DROP = Verdict(DROPPED, "check_mac drop")


def stateless_check(p: Packet, check_ip: Table, check_mac: Table) -> Verdict:
    """Two-step source check.

    check_ip keyed on src IP decides drop / punt / proceed; a proceeding
    source must then hit check_mac on its exact (IP, MAC) binding, so a
    known IP with an unregistered MAC is dropped rather than allowed.
    """
    ip_action, ip_hit = check_ip.lookup((p.ip.src_ip,))
    if ip_action.kind == tables.DROP:
        return _IP_DROP
    if not ip_hit or ip_action.kind == tables.SEND_TO_CONTROLLER:
        return _IP_PUNT

    mac_action, mac_hit = check_mac.lookup((p.ip.src_ip, p.eth.src_mac))
    if mac_hit and mac_action.kind == tables.SET_ALLOWED:
        return _ALLOW
    return _MAC_DROP
