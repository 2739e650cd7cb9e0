"""Discrete-event network simulator and scenario runner.

Time is integer ticks. A host's injected packet is processed by its switch
at the event's tick; every switch-to-switch link costs one tick, and a
packet a switch sends out of a host's port is counted delivered then. The
event queue orders by (time, insertion sequence), which gives FIFO delivery
per link and full run-to-run determinism. Punts are resolved synchronously:
the controller's rule installs land on the punting switch within the same
tick, before any later event is processed. Each switch pass returns its
verdict; the simulator writes its trace record and counts it for the sender.
"""

from __future__ import annotations

import heapq
import random
import re
from dataclasses import dataclass
from typing import Optional

from .controller import ALLOW, AclEntry, Controller, SequenceStore
from .packet import SYN, Ipv4Address, MacAddr, Packet, make_packet, serialize_packet
from .render import render
from .scenario import (COUNTERS, InvalidScenario, NoSequence, ScenarioSpec, SendAction,
                       knock_client)
from .tables import (FORWARD, Action, Rule, SchemaMismatch, TableError, KIND_IPV4,
                     KIND_MAC)
from .switch import knock_pos
from .topology import TopologySpec, build_network, compute_routes
from .verdict import CONSUMED, DROPPED, FORWARDED, PUNTED

# the host counter a packet's trip counts toward when it ends at a switch
_COUNTER_OF = {PUNTED: "punted", DROPPED: "dropped", CONSUMED: "consumed"}


class TimeReversal(Exception):
    """Something was scheduled before the tick being processed; simulation
    time would run backwards. A simulator bug, not an input condition."""


class CountersNotConserved(Exception):
    """A host's packets do not add up: sent differs from delivered +
    dropped + punted + consumed. A simulator bug, not an input condition."""


@dataclass
class RunReport:
    scenario: str
    seed: int
    trace: list
    hosts: dict
    rules: dict
    sequences: dict
    knock_stages: dict

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    def canonical_text(self) -> str:
        """`json.dumps(self.to_json_dict(), sort_keys=True, indent=2)` plus
        a newline, rendered in one pass (see `render`)."""
        return render(self.to_json_dict())

    def conservation_holds(self) -> bool:
        return all(
            c["sent"] == c["delivered"] + c["dropped"] + c["punted"] + c["consumed"]
            for c in self.hosts.values()
        )


def evaluate_expect(report: RunReport, expect: dict) -> list[str]:
    """Compare a report against a scenario's expect block (checked by
    `parse_scenario` and `Simulator.run`); returns failures."""
    failures = []
    for host, wanted in expect.get("hosts", {}).items():
        actual = report.hosts[host]
        for metric, value in wanted.items():
            if actual[metric] != value:
                failures.append(
                    f"{host}: expected {metric}={value}, got {actual[metric]}")
    return failures


class Simulator:
    """One network plus its controller, ready to run scenarios."""

    def __init__(self, topo: TopologySpec, acl: dict[Ipv4Address, AclEntry],
                 store: SequenceStore, seed: int):
        self.seed = seed
        self._trace: list[dict] = []
        routes = compute_routes(topo)
        self.network = build_network(topo, routes)
        self.store = store
        self.controller = Controller(
            acl=acl,
            store=store,
            rng=random.Random(seed),
            switch_features={s.switch_id: s.features for s in topo.switches},
            routes=routes,
        )
        self.hosts = topo.host_by_name()
        self.host_ports = {(h.switch, h.port) for h in topo.hosts}
        # (switch, port) -> the (switch, port) at the link's other end
        self.links: dict[tuple[str, int], tuple[str, int]] = {}
        for link in topo.links:
            self.links[link.switch_a, link.port_a] = (link.switch_b, link.port_b)
            self.links[link.switch_b, link.port_b] = (link.switch_a, link.port_a)

        self._queue: list[tuple] = []
        self._seq = 0
        self._now = 0    # tick being processed; time starts at 0
        self._ephemeral: dict[str, int] = {}
        self._stats = {h.name: dict.fromkeys(COUNTERS, 0) for h in topo.hosts}

    # -- scheduling --------------------------------------------------------

    def _push(self, time: int, item: tuple) -> None:
        if time < self._now:
            raise TimeReversal(
                f"cannot schedule at tick {time} while processing tick {self._now}")
        heapq.heappush(self._queue, (time, self._seq, item))
        self._seq += 1

    def _next_sport(self, host: str) -> int:
        port = self._ephemeral.setdefault(host, 40000)
        self._ephemeral[host] = port + 1
        return port

    # -- event expansion ---------------------------------------------------

    def _expand(self, time: int, sender: str, action) -> None:
        """Schedule an event's packets; `run` has checked every host name."""
        if isinstance(action, SendAction):
            probes = [(i * action.gap, action.dport) for i in range(action.repeat)]
            sport, flags, ttl, payload = (
                action.sport, action.flag_bits, action.ttl, action.payload)
        else:
            probes = knock_client(
                self._knock_owner(sender, action), self.store, order=action.order,
                spacing=action.spacing, include_service=action.include_service)
            sport, flags, ttl, payload = None, SYN, 64, b""
        host, target = self.hosts[sender], self.hosts[action.dst]
        src_ip = self.hosts[action.src_ip_of or sender].ip
        src_mac = self.hosts[action.src_mac_of or sender].mac
        stats = self._stats[sender]
        for offset, dport in probes:
            packet = make_packet(
                src_ip=src_ip, dst_ip=target.ip, src_mac=src_mac, dst_mac=target.mac,
                sport=sport if sport is not None else self._next_sport(sender),
                dport=dport, flags=flags, ttl=ttl, payload=payload)
            stats["sent"] += 1
            self._push(time + offset, ("packet", sender, host.switch, host.port, packet))

    def _knock_owner(self, sender: str, action) -> Ipv4Address:
        """The IP whose sequence a knock replays: a spoofed identity's, else the sender's."""
        return self.hosts[action.sequence_of or action.src_ip_of or sender].ip

    # -- preinstall --------------------------------------------------------

    def _apply_preinstall(self, scenario: ScenarioSpec) -> None:
        for pre in scenario.preinstall:
            if pre.switch not in self.network:
                raise InvalidScenario(f"preinstall references unknown switch {pre.switch!r}")
            switch = self.network[pre.switch]
            table = switch.tables.get(pre.table)
            bad_rule = f"bad preinstall rule {pre.table} {list(pre.key)} on {pre.switch}"
            if table is None:
                raise InvalidScenario(f"{bad_rule}: no table named {pre.table!r}")
            try:
                if len(pre.key) != len(table.schema):
                    raise SchemaMismatch(
                        f"{pre.table}: key arity {len(pre.key)}"
                        f" != schema arity {len(table.schema)}")
                key = tuple(
                    _parse_key_field(kind, text)
                    for kind, text in zip(table.schema, pre.key)
                )
                action = Action.make(pre.action, **dict(pre.params))
                # the table's own check first, so its message names what it needs
                if table is switch.knock_rules:
                    knock_pos(action)
                elif (table is switch.ipv4_forward and action.kind == FORWARD
                        and action.param("port") is None):
                    raise SchemaMismatch("a Forward route needs a 'port'")
                # P4 action data is bit<W>: every parameter is an integer
                for name, value in pre.params:
                    if type(value) is not int:
                        raise SchemaMismatch(
                            f"action parameter {name!r} must be an integer, got {value!r}")
                switch.apply_rule_install([(pre.table, Rule(key, action))])
            except (TableError, ValueError) as e:
                raise InvalidScenario(f"{bad_rule}: {e}") from e

    # -- main loop ---------------------------------------------------------

    def run(self, scenario: ScenarioSpec) -> RunReport:
        for host in scenario.expect.get("hosts", {}):
            if host not in self.hosts:
                raise InvalidScenario(f"expect references unknown host {host!r}")
        for _, sender, action in scenario.events:
            for name in (sender, action.dst, action.src_ip_of, action.src_mac_of,
                         getattr(action, "sequence_of", None)):
                if name is not None and name not in self.hosts:
                    raise InvalidScenario(f"unknown host {name!r}")
            # only an allowed punt stores a sequence, so a knock whose owner
            # has neither a stored sequence nor an allow entry is never sent
            if not isinstance(action, SendAction):
                owner = self._knock_owner(sender, action)
                entry = self.controller.acl.get(owner)
                if not (self.store.get(owner) or entry and entry.verdict == ALLOW):
                    raise NoSequence(f"no stored sequence for {owner}")
        self._apply_preinstall(scenario)
        for event in scenario.events:
            self._push(event.time, ("event", event.host, event.action))

        while self._queue:
            time, _, item = heapq.heappop(self._queue)
            self._now = time
            if item[0] == "event":
                _, sender, action = item
                self._expand(time, sender, action)
            else:
                _, sender, switch_id, ingress_port, packet = item
                self._process_at_switch(time, sender, switch_id, ingress_port, packet)

        return self._report(scenario)

    def _process_at_switch(self, time: int, sender: str, switch_id: str,
                           ingress_port: int, packet: Packet) -> None:
        switch = self.network[switch_id]
        stage, (kind, reason), out = switch.process_packet(ingress_port, packet)
        self._trace.append({
            "time": time, "switch": switch_id, "verdict": kind, "stage": stage,
            "src": str(packet.ip.src_ip), "dst": str(packet.ip.dst_ip),
            "sport": packet.tcp.src_port, "dport": packet.tcp.dst_port, "reason": reason,
        })
        if kind == FORWARDED:
            egress = (switch_id, out.egress_port)
            peer = self.links.get(egress)
            if peer is not None:
                self._push(time + 1, ("packet", sender, *peer, out.packet))
                return
            # out of a host's port, or of one with nothing attached
            counter = "delivered" if egress in self.host_ports else "dropped"
        else:
            if kind == PUNTED:
                switch.apply_rule_install(self.controller.handle_packet_in(
                    switch_id, serialize_packet(out.packet)))
            counter = _COUNTER_OF[kind]
        self._stats[sender][counter] += 1

    # -- reporting ---------------------------------------------------------

    def _report(self, scenario: ScenarioSpec) -> RunReport:
        knock_stages = {}
        for switch_id in sorted(self.network):
            stages = self.network[switch_id].knock_stages
            if stages:
                knock_stages[switch_id] = {
                    str(ip): stage
                    for ip, stage in sorted(stages.items(), key=lambda kv: kv[0].octets)
                }
        report = RunReport(
            scenario=scenario.name,
            seed=self.seed,
            trace=list(self._trace),
            hosts={name: dict(c) for name, c in sorted(self._stats.items())},
            rules={sid: [row for _, table in sorted(self.network[sid].tables.items())
                         for row in table.dump()]
                   for sid in sorted(self.network)},
            sequences=self.store.to_json_dict(),
            knock_stages=knock_stages,
        )
        if not report.conservation_holds():
            raise CountersNotConserved(f"per-host counters: {report.hosts}")
        return report


# a port key is ASCII decimal with no sign, space, underscore or leading zero
_PORT_TEXT = re.compile(r"0|[1-9][0-9]{0,4}")


def _parse_key_field(kind: str, text: str):
    if kind == KIND_IPV4:
        return Ipv4Address.from_text(text)
    if kind == KIND_MAC:
        return MacAddr.from_text(text)
    if _PORT_TEXT.fullmatch(text) is None or int(text) > 0xFFFF:
        raise ValueError(f"bad port {text!r}: want a decimal number in 0..65535")
    return int(text)


def run_scenario(topo: TopologySpec, scenario: ScenarioSpec,
                 acl: dict[Ipv4Address, AclEntry], store: SequenceStore,
                 seed: Optional[int] = None) -> RunReport:
    """Build a fresh network and run one scenario to completion."""
    sim = Simulator(topo, acl, store,
                    seed=seed if seed is not None else scenario.seed)
    return sim.run(scenario)
