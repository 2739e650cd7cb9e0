"""Scripted scenarios: timed host actions, optional pre-installed rules,
and expected per-host outcome counts.

Actions are `send` (one or more raw TCP packets), `knock` (replay a stored
knock sequence, optionally permuted or spoofed, then open the service
port), and `open_service` (a knock with no knocks: just the service-port
connection packet).
Source-address overrides exist so spoofing scenarios can forge another
host's identity while keeping the real attachment point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .bundled import read_json
from .controller import SequenceStore
from .packet import FLAG_BITS, IPV4_LEN, TCP_LEN, Ipv4Address, _new_tuple, tcp_flags

MAX_PAYLOAD = 0xFFFF - IPV4_LEN - TCP_LEN   # IPv4 total_length is 16 bits

# per-host outcome counters of a run, the metrics an expect block may name
COUNTERS = ("sent", "delivered", "dropped", "punted", "consumed")


class InvalidScenario(Exception):
    """The scenario file violates its schema (named in the message)."""


class NoSequence(Exception):
    """A knock action references a host with no stored sequence."""


# Actions and events are NamedTuples: immutable records that parsing builds
# once per event. A send action and every event are built with
# `_new_tuple` once their fields are checked, which skips the class call's
# Python-level `__new__`.
class SendAction(NamedTuple):
    dst: str                      # destination host name
    dport: int
    sport: Optional[int] = None   # default: per-host ephemeral counter
    flags: tuple[str, ...] = ("SYN",)
    payload: bytes = b""
    ttl: int = 64
    src_ip_of: Optional[str] = None    # spoof: use this host's IP
    src_mac_of: Optional[str] = None   # spoof: use this host's MAC
    repeat: int = 1
    gap: int = 1

    @property
    def flag_bits(self) -> int:
        return tcp_flags(*self.flags)


class KnockAction(NamedTuple):
    dst: str
    sequence_of: Optional[str] = None   # host whose stored sequence to use
    order: tuple[int, ...] = (0, 1, 2)   # () sends just the service probe
    spacing: int = 1
    include_service: bool = True
    src_ip_of: Optional[str] = None
    src_mac_of: Optional[str] = None


class ScenarioEvent(NamedTuple):
    time: int
    host: str
    action: object   # SendAction | KnockAction


@dataclass(frozen=True)
class PreinstallRule:
    switch: str
    table: str
    key: tuple[str, ...]    # textual fields, read by the table schema
    action: str
    params: dict = field(default_factory=dict)   # checked by Table.read_rule


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    seed: int
    acl_path: Optional[str]
    events: tuple[ScenarioEvent, ...]
    preinstall: tuple[PreinstallRule, ...] = ()
    expect: dict = field(default_factory=dict)


def _integer(item: dict, name: str, default: Optional[int] = None,
             high: Optional[int] = None) -> int:
    """item[name], or `default` when it is absent (KeyError when there is
    no default), checked to be an int in 0..high; a bool is not an int."""
    value = item[name] if default is None else item.get(name, default)
    if type(value) is not int or value < 0 or (high is not None and value > high):
        span = "a non-negative integer" if high is None else f"an integer in 0..{high}"
        raise InvalidScenario(f"{name} must be {span}: {item!r}")
    return value


def _text(item: dict, name: str, optional: bool = False) -> Optional[str]:
    """item[name] checked to be a string; with `optional`, absent or null
    gives None. A list or object here would reach the host lookups."""
    value = item.get(name) if optional else item[name]
    if not (isinstance(value, str) or (optional and value is None)):
        kind = "a string or null" if optional else "a string"
        raise InvalidScenario(f"{name} must be {kind}: {item!r}")
    return value


def _targets(item: dict) -> tuple[str, Optional[str], Optional[str]]:
    """An action's `dst`, `src_ip_of` and `src_mac_of`, checked as `_text`
    checks them; the common all-valid case costs no call per field."""
    dst, ip_of, mac_of = item["dst"], item.get("src_ip_of"), item.get("src_mac_of")
    if (type(dst) is str and (ip_of is None or type(ip_of) is str)
            and (mac_of is None or type(mac_of) is str)):
        return dst, ip_of, mac_of
    return (_text(item, "dst"), _text(item, "src_ip_of", optional=True),
            _text(item, "src_mac_of", optional=True))


def _parse_send(item: dict) -> SendAction:
    flags = item.get("flags", ["SYN"])
    if not isinstance(flags, list):
        raise InvalidScenario(f"flags must be a list: {item!r}")
    for name in flags:
        if not isinstance(name, str) or name.upper() not in FLAG_BITS:
            raise InvalidScenario(
                f"unknown TCP flag {name!r}, known: {sorted(FLAG_BITS)}: {item!r}")
    payload = item.get("payload", "")
    if not isinstance(payload, str):
        raise InvalidScenario(f"payload must be a string: {item!r}")
    try:
        payload = payload.encode()
    except UnicodeEncodeError as e:   # JSON can spell a lone surrogate
        raise InvalidScenario(f"payload must be valid Unicode text: {item!r}") from e
    if len(payload) > MAX_PAYLOAD:
        raise InvalidScenario(f"payload is longer than {MAX_PAYLOAD} bytes")
    dst, src_ip_of, src_mac_of = _targets(item)
    return _new_tuple(SendAction, (
        dst,
        _integer(item, "dport", high=0xFFFF),
        _integer(item, "sport", high=0xFFFF) if item.get("sport") is not None else None,
        tuple(flags),
        payload,
        _integer(item, "ttl", 64, high=0xFF),
        src_ip_of,
        src_mac_of,
        _integer(item, "repeat", 1),
        _integer(item, "gap", 1),
    ))


def _parse_knock(item: dict) -> KnockAction:
    order = item.get("order", [0, 1, 2])
    if (not isinstance(order, list) or any(type(i) is not int for i in order)
            or sorted(order) != [0, 1, 2]):
        raise InvalidScenario(f"knock order must permute [0, 1, 2]: {order!r}")
    include_service = item.get("include_service", True)
    if type(include_service) is not bool:
        raise InvalidScenario(f"include_service must be true or false: {item!r}")
    dst, src_ip_of, src_mac_of = _targets(item)
    return KnockAction(
        dst=dst,
        sequence_of=_text(item, "sequence_of", optional=True),
        order=tuple(order),
        spacing=_integer(item, "spacing", 1),
        include_service=include_service,
        src_ip_of=src_ip_of,
        src_mac_of=src_mac_of,
    )


def _parse_open_service(item: dict) -> KnockAction:
    dst, src_ip_of, src_mac_of = _targets(item)
    return KnockAction(dst=dst, order=(), src_ip_of=src_ip_of, src_mac_of=src_mac_of)


_ACTION_PARSERS = {
    "send": _parse_send,
    "knock": _parse_knock,
    "open_service": _parse_open_service,
}


def parse_scenario(obj) -> ScenarioSpec:
    if not isinstance(obj, dict):
        raise InvalidScenario("scenario must be a JSON object")
    if not all(isinstance(obj.get(s, []), list) for s in ("events", "preinstall")):
        raise InvalidScenario("events and preinstall must be lists")
    events = []
    last_time = None
    for item in obj.get("events", []):
        try:
            time = _integer(item, "time")
            host, kind = item["host"], item["action"]
        except (KeyError, TypeError) as e:
            raise InvalidScenario(f"event needs time/host/action: {item!r}") from e
        if not isinstance(host, str):
            raise InvalidScenario(f"host must be a string: {item!r}")
        if last_time is not None and time < last_time:
            raise InvalidScenario(f"event times must be non-decreasing (at {item!r})")
        last_time = time
        if not isinstance(kind, str) or kind not in _ACTION_PARSERS:
            raise InvalidScenario(f"unknown action {kind!r}")
        try:
            action = _ACTION_PARSERS[kind](item)
        except (KeyError, TypeError) as e:
            raise InvalidScenario(f"bad {kind} event {item!r}: {e}") from e
        events.append(_new_tuple(ScenarioEvent, (time, host, action)))

    preinstall = []
    for item in obj.get("preinstall", []):
        try:
            switch, table, key, action = (
                item[f] for f in ("switch", "table", "key", "action"))
            params = item.get("params", {})
            if not (isinstance(key, list) and isinstance(params, dict)
                    and all(isinstance(v, str) for v in (switch, table, action, *key))):
                raise InvalidScenario(
                    f"bad preinstall rule {item!r}: switch, table and action"
                    " must be strings, key a list of strings, params an object")
            preinstall.append(PreinstallRule(switch, table, tuple(key), action, params))
        except (KeyError, TypeError) as e:
            raise InvalidScenario(f"bad preinstall rule {item!r}: {e}") from e

    expect = obj.get("expect", {})
    if not isinstance(expect, dict):
        raise InvalidScenario("expect must be an object")
    unknown = [k for k in expect if k != "hosts"]
    if unknown:
        raise InvalidScenario(f"expect may only hold 'hosts', not {unknown!r}")
    hosts = expect.get("hosts", {})
    if not isinstance(hosts, dict) or not all(isinstance(w, dict) for w in hosts.values()):
        raise InvalidScenario("expect hosts must map host names to objects of counts")
    for host, wanted in hosts.items():
        for metric in wanted:
            if metric not in COUNTERS:
                raise InvalidScenario(f"expect for {host!r}: unknown metric {metric!r}")
            _integer(wanted, metric)

    seed = obj.get("seed", 0)
    if type(seed) is not int:
        raise InvalidScenario("seed must be an integer")
    name = obj.get("name", "scenario")
    if not isinstance(name, str):
        raise InvalidScenario(f"name must be a string: {name!r}")
    try:
        name.encode()   # the run's summary line prints it
    except UnicodeEncodeError as e:
        raise InvalidScenario(f"name must be valid Unicode text: {name!r}") from e
    if not isinstance(obj.get("acl", ""), str):
        raise InvalidScenario(f"acl must be a string: {obj['acl']!r}")

    return ScenarioSpec(
        name=name,
        seed=seed,
        acl_path=obj.get("acl"),
        events=tuple(events),
        preinstall=tuple(preinstall),
        expect=expect,
    )


def load_scenario(path: str) -> ScenarioSpec:
    return parse_scenario(read_json(path, InvalidScenario, "scenario"))


def knock_client(owner_ip: Ipv4Address, store: SequenceStore,
                 order: tuple[int, ...] = (0, 1, 2),
                 spacing: int = 1,
                 include_service: bool = True) -> list[tuple[int, int]]:
    """Timed SYN probes for a host's stored sequence.

    Returns (time offset, destination port) pairs: the knocks in the
    requested order followed by the service-port connection.
    """
    seq = store.get(owner_ip)
    if seq is None:
        raise NoSequence(f"no stored sequence for {owner_ip}")
    probes = [(i * spacing, seq.knock_ports[idx]) for i, idx in enumerate(order)]
    if include_service:
        probes.append((len(order) * spacing, seq.service_port))
    return probes
