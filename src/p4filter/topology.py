"""Topology description, validation, route computation, and network build.

A topology is switches (with their filter features and internal ports),
hosts attached to switch ports, and switch-to-switch links. Routes are
shortest paths by hop count with ties broken by sorted switch id, so a
given topology always yields one routing; the same breadth-first search
checks that the switch graph is connected. Routes are computed once per
network and given both to `build_network`, which installs them on switches
without the knocking feature, and to the controller, which hands them to a
knocking switch with its first allowed punt.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .bundled import read_json
from .packet import Ipv4Address, MacAddr
from .switch import CPU_PORT, FEAT_KNOCKING, P4Switch, SwitchConfig, route_installs


class InvalidTopology(Exception):
    """The topology violates a structural constraint (named in the message)."""


@dataclass(frozen=True)
class HostSpec:
    name: str
    ip: Ipv4Address
    mac: MacAddr
    switch: str
    port: int


@dataclass(frozen=True)
class Link:
    switch_a: str
    port_a: int
    switch_b: str
    port_b: int


@dataclass(frozen=True)
class TopologySpec:
    switches: tuple[SwitchConfig, ...]
    hosts: tuple[HostSpec, ...]
    links: tuple[Link, ...]

    def host_by_name(self) -> dict[str, HostSpec]:
        return {h.name: h for h in self.hosts}


def _check_name(name, what: str) -> None:
    # ids and names are dict keys and report text, so a list or a number
    # must not get that far, nor a lone surrogate (which JSON can spell)
    if not isinstance(name, str):
        raise InvalidTopology(f"{what}: {name!r} is not a string")
    try:
        name.encode()
    except UnicodeEncodeError as e:
        raise InvalidTopology(f"{what}: {name!r} is not valid Unicode text") from e


def _check_port(port, what: str) -> None:
    # bool is an int subclass, and True would pass for port 1
    if type(port) is not int or not 0 <= port <= 0xFFFF:
        raise InvalidTopology(f"{what}: port {port!r} is not an integer in 0..65535")


def parse_topology(obj) -> TopologySpec:
    if not isinstance(obj, dict):
        raise InvalidTopology("topology must be a JSON object")
    for section in ("switches", "hosts", "links"):
        if not isinstance(obj.get(section), list):
            raise InvalidTopology(f"missing or non-list section {section!r}")

    switches = []
    for item in obj["switches"]:
        try:
            switches.append(SwitchConfig(
                switch_id=item["id"],
                ports=tuple(item["ports"]),
                features=frozenset(item.get("features", [])),
                internal_ports=tuple(item.get("internal_ports", [])),
                cpu_port=item.get("cpu_port", CPU_PORT),
            ))
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidTopology(f"bad switch entry {item!r}: {e}") from e
        config = switches[-1]
        _check_name(config.switch_id, "switch id")
        for port in (*config.ports, *config.internal_ports, config.cpu_port):
            _check_port(port, f"switch {config.switch_id}")
    ids = [s.switch_id for s in switches]
    if len(set(ids)) != len(ids):
        raise InvalidTopology("duplicate switch ids")
    by_id = {s.switch_id: s for s in switches}

    hosts = []
    for item in obj["hosts"]:
        try:
            hosts.append(HostSpec(
                name=item["name"],
                ip=Ipv4Address.from_text(item["ip"]),
                mac=MacAddr.from_text(item["mac"]),
                switch=item["switch"],
                port=item["port"],
            ))
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidTopology(f"bad host entry {item!r}: {e}") from e
        _check_name(hosts[-1].name, "host name")
    names = [h.name for h in hosts]
    if len(set(names)) != len(names):
        raise InvalidTopology("duplicate host names")
    if len({h.ip for h in hosts}) != len(hosts):
        raise InvalidTopology("duplicate host IPs")
    if len({h.mac for h in hosts}) != len(hosts):
        raise InvalidTopology("duplicate host MACs")

    links = []
    for item in obj["links"]:
        if not isinstance(item, list) or len(item) != 4:
            raise InvalidTopology(f"link must be [switch, port, switch, port]: {item!r}")
        links.append(Link(item[0], item[1], item[2], item[3]))

    # every attachment references an existing switch port, and no port is
    # attached twice
    used: set[tuple[str, int]] = set()

    def claim(switch_id: str, port, what: str) -> None:
        _check_name(switch_id, f"{what} switch")
        _check_port(port, what)
        if switch_id not in by_id:
            raise InvalidTopology(f"{what} references unknown switch {switch_id!r}")
        if port not in by_id[switch_id].ports:
            raise InvalidTopology(f"{what} references missing port {switch_id}:{port}")
        if (switch_id, port) in used:
            raise InvalidTopology(f"port {switch_id}:{port} attached more than once")
        used.add((switch_id, port))

    for h in hosts:
        claim(h.switch, h.port, f"host {h.name}")
    for link in links:
        claim(link.switch_a, link.port_a, "link")
        claim(link.switch_b, link.port_b, "link")
        if link.switch_a == link.switch_b:
            raise InvalidTopology(f"self-link on {link.switch_a}")

    spec = TopologySpec(tuple(switches), tuple(hosts), tuple(links))

    # connectivity over the switch graph
    if switches:
        seen = set(_bfs_parents(_adjacency(spec), switches[0].switch_id))
        if seen != set(ids):
            raise InvalidTopology(f"switch graph is not connected: unreachable {sorted(set(ids) - seen)}")
    return spec


def load_topology(path: str) -> TopologySpec:
    return parse_topology(read_json(path, InvalidTopology, "topology"))


def _adjacency(spec: TopologySpec) -> dict[str, list[tuple[str, int]]]:
    """switch id -> sorted (peer id, local egress port) pairs."""
    adjacency: dict[str, list[tuple[str, int]]] = {s.switch_id: [] for s in spec.switches}
    for link in spec.links:
        adjacency[link.switch_a].append((link.switch_b, link.port_a))
        adjacency[link.switch_b].append((link.switch_a, link.port_b))
    for peers in adjacency.values():
        peers.sort()
    return adjacency


def _bfs_parents(adjacency: dict[str, list[tuple[str, int]]],
                 source: str) -> dict[str, str]:
    """Each switch reachable from `source` -> the switch it was first
    reached from (`source` maps to itself), expanding neighbours in sorted
    order so equal-length paths resolve the same way on every run."""
    parent = {source: source}
    order = deque([source])
    while order:
        current = order.popleft()
        for peer, _ in adjacency[current]:
            if peer not in parent:
                parent[peer] = current
                order.append(peer)
    return parent


def compute_routes(spec: TopologySpec) -> dict[str, dict[Ipv4Address, int]]:
    """For each switch, the egress port toward every host IP, the next hop
    taken from `_bfs_parents`."""
    adjacency = _adjacency(spec)
    port_to = {
        (a, b): port
        for a, peers in adjacency.items()
        for b, port in peers
    }
    routes: dict[str, dict[Ipv4Address, int]] = {}
    for source in spec.switches:
        sid = source.switch_id
        parent = _bfs_parents(adjacency, sid)
        table: dict[Ipv4Address, int] = {}
        for host in spec.hosts:
            if host.switch == sid:
                table[host.ip] = host.port
                continue
            # walk back from the host's switch to find the first hop out of sid
            step = host.switch
            while parent[step] != sid:
                step = parent[step]
            table[host.ip] = port_to[(sid, step)]
        routes[sid] = table
    return routes


def build_network(spec: TopologySpec,
                  routes: dict[str, dict[Ipv4Address, int]]) -> dict[str, P4Switch]:
    """Instantiate every switch; non-knocking switches get their `routes`
    (from `compute_routes`) as static rules."""
    network: dict[str, P4Switch] = {}
    for config in spec.switches:
        sw = P4Switch(config)
        if FEAT_KNOCKING not in config.features:
            sw.apply_rule_install(route_installs(routes[config.switch_id]))
        network[config.switch_id] = sw
    return network
