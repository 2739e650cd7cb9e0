"""Control plane: resolves punted packets against the ACL, allocates knock
sequences, persists them, and answers with rule installs.

The controller never touches switch state directly — it only returns
(table, rule) pairs for the switch that punted. A sequence is written to
the store file before its rules are handed out, so the disk never lags
what the switches enforce.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import tempfile
from dataclasses import dataclass
from typing import Optional

from . import tables
from .bundled import read_json
from .knocking import POS_SERVICE, KnockSequence
from .packet import Ipv4Address, MacAddr, parse_packet
from .switch import FEAT_KNOCKING, FEAT_STATELESS
from .tables import Rule

ALLOW = "allow"
DENY = "deny"

SERVICE_PORT = 22
KNOCK_PORT_MIN = 1024
KNOCK_PORT_MAX = 65535


class MalformedAcl(Exception):
    """ACL file fails schema validation; refuse to start."""


class MalformedStore(Exception):
    """Sequence-store file fails schema validation; refuse to start."""


class PersistenceFailure(Exception):
    """Sequence store could not be written; rule installs are withheld."""


@dataclass(frozen=True)
class AclEntry:
    ip: Ipv4Address
    mac: Optional[MacAddr]
    verdict: str


def parse_acl(obj) -> dict[Ipv4Address, AclEntry]:
    if not isinstance(obj, list):
        raise MalformedAcl("ACL must be a JSON array of entries")
    acl: dict[Ipv4Address, AclEntry] = {}
    for item in obj:
        if not isinstance(item, dict) or "ip" not in item or "verdict" not in item:
            raise MalformedAcl(f"ACL entry needs 'ip' and 'verdict': {item!r}")
        extra = set(item) - {"ip", "mac", "verdict"}
        if extra:
            raise MalformedAcl(f"unknown ACL fields {sorted(extra)}")
        try:
            ip = Ipv4Address.from_text(item["ip"])
        except ValueError as e:
            raise MalformedAcl(str(e)) from e
        mac_text = item.get("mac")
        try:
            mac = MacAddr.from_text(mac_text) if mac_text is not None else None
        except ValueError as e:
            raise MalformedAcl(str(e)) from e
        verdict = item["verdict"]
        if verdict not in (ALLOW, DENY):
            raise MalformedAcl(f"verdict must be 'allow' or 'deny', got {verdict!r}")
        if ip in acl:
            raise MalformedAcl(f"duplicate ACL entry for {ip}")
        acl[ip] = AclEntry(ip=ip, mac=mac, verdict=verdict)
    return acl


def load_acl(path: str) -> dict[Ipv4Address, AclEntry]:
    return parse_acl(read_json(path, MalformedAcl, "ACL"))


class SequenceStore:
    """File-backed map of host IP to its knock sequence.

    The file is a JSON object {ip: {"knocks": [a, b, c], "service": s}},
    written canonically (sorted keys, two-space indent) so identical stores
    are identical bytes.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.sequences: dict[Ipv4Address, KnockSequence] = {}

    def get(self, ip: Ipv4Address) -> Optional[KnockSequence]:
        return self.sequences.get(ip)

    def put(self, ip: Ipv4Address, seq: KnockSequence) -> None:
        self.sequences[ip] = seq

    def remove(self, ip: Ipv4Address) -> None:
        self.sequences.pop(ip, None)

    def to_json_dict(self) -> dict:
        return {
            str(ip): {"knocks": list(seq.knock_ports), "service": seq.service_port}
            for ip, seq in sorted(self.sequences.items(), key=lambda kv: kv[0].octets)
        }

    def canonical_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def parse_store(obj, path: Optional[str] = None) -> SequenceStore:
    if not isinstance(obj, dict):
        raise MalformedStore("store must be a JSON object keyed by IP")
    store = SequenceStore(path)
    for ip_text, entry in obj.items():
        try:
            ip = Ipv4Address.from_text(ip_text)
        except ValueError as e:
            raise MalformedStore(str(e)) from e
        if (not isinstance(entry, dict) or set(entry) != {"knocks", "service"}
                or not isinstance(entry["knocks"], list)
                # bool is an int subclass, and True is no port
                or not all(type(k) is int for k in entry["knocks"])
                or type(entry["service"]) is not int):
            raise MalformedStore(f"bad entry for {ip_text}: {entry!r}")
        try:
            seq = KnockSequence(tuple(entry["knocks"]), entry["service"])
        except ValueError as e:
            raise MalformedStore(f"{ip_text}: {e}") from e
        store.put(ip, seq)
    return store


def load_store(path: str) -> SequenceStore:
    """Read a store file; a missing or empty file is an empty store."""
    return parse_store(read_json(path, MalformedStore, "store", empty=True), path)


def save_store(store: SequenceStore) -> None:
    """Replace the store file atomically: the text goes to a temporary file
    in the same directory, is flushed to disk, then renamed over the
    target, so a crash mid-write leaves the old file whole."""
    if store.path is None:
        return   # in-memory store, nothing to persist
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(store.path)),
                                   prefix=f".{os.path.basename(store.path)}.", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(store.canonical_text())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, store.path)
    except OSError as e:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise PersistenceFailure(f"cannot write store file {store.path}: {e}") from e


def generate_sequence(rng: random.Random, ip: Ipv4Address) -> KnockSequence:
    """Draw three distinct knock ports for a host from the shared rng."""
    ports: list[int] = []
    while len(ports) < 3:
        port = rng.randrange(KNOCK_PORT_MIN, KNOCK_PORT_MAX + 1)
        if port not in ports:
            ports.append(port)
    return KnockSequence(knock_ports=tuple(ports), service_port=SERVICE_PORT)


class Controller:
    """Single sequential control loop shared by all switches."""

    def __init__(self, acl: dict[Ipv4Address, AclEntry], store: SequenceStore,
                 rng: random.Random,
                 switch_features: dict[str, frozenset],
                 routes: dict[str, dict[Ipv4Address, int]]):
        self.acl = acl
        self.store = store
        self.rng = rng
        self.switch_features = switch_features
        self.routes = routes
        self.routed: set[str] = set()   # switches already handed their routes

    def handle_packet_in(self, switch_id: str, raw: bytes) -> list[tuple[str, Rule]]:
        """Resolve one punted packet into rule installs for that switch.

        Deny (or absent from the ACL) installs a single presence-table drop.
        Allow installs the presence entry, the stateless bindings and knock
        rules the switch's features call for, and, with the switch's first
        allowed punt only, its routes to every host. A repeated punt for a
        host gets the same per-host rules again.
        """
        p = parse_packet(raw)
        src = p.ip.src_ip
        entry = self.acl.get(src)

        if entry is None or entry.verdict == DENY:
            return [("present_table", Rule((src,), tables.drop()))]

        seq = self.store.get(src)
        if seq is None:
            seq = generate_sequence(self.rng, src)
            self.store.put(src, seq)
            try:
                save_store(self.store)
            except PersistenceFailure:
                self.store.remove(src)   # keep memory equal to disk
                raise

        features = self.switch_features.get(switch_id, frozenset())
        installs: list[tuple[str, Rule]] = [
            ("present_table", Rule((src,), tables.set_allowed())),
        ]
        if FEAT_STATELESS in features:
            mac = entry.mac if entry.mac is not None else p.eth.src_mac
            installs.append(("check_ip", Rule((src,), tables.set_allowed())))
            installs.append(("check_mac", Rule((src, mac), tables.set_allowed())))
        if FEAT_KNOCKING in features:
            for pos, port in enumerate(seq.knock_ports):
                installs.append(
                    ("knock_rules", Rule((src, port), tables.set_allowed(pos=pos))))
            installs.append(("knock_rules", Rule(
                (src, seq.service_port), tables.set_allowed(pos=POS_SERVICE))))
        if switch_id not in self.routed:
            routes = self.routes.get(switch_id, {})
            # routes through one egress port share one Forward action
            forwards = {egress: tables.forward(egress) for egress in set(routes.values())}
            installs.extend(("ipv4_forward", Rule((dst_ip,), forwards[routes[dst_ip]]))
                            for dst_ip in sorted(routes, key=lambda ip: ip.octets))
            self.routed.add(switch_id)
        return installs
