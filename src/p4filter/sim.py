"""Discrete-event network simulator and scenario runner.

Time is integer ticks. A host's injected packet is processed by its switch
at the event's tick; every switch-to-switch link costs one tick, and a
packet a switch sends out of a host's port is counted delivered then. The
event queue is a calendar queue over the integer ticks: one list of items
per pending tick, run in push order, and a heap of the pending ticks
alone. That is the order of sorting by (time, insertion sequence), which
gives FIFO delivery per link and full run-to-run determinism. Punts are
resolved synchronously: the controller's rule installs land on the
punting switch within the same tick, before any later event is
processed. Each switch pass returns its verdict; the simulator appends
its trace row (`TraceRows`) and counts it for the sender.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from .controller import ALLOW, AclEntry, Controller, SequenceStore
from .packet import SYN, Ipv4Address, make_packet, serialize_packet
from .render import RuleRows, TraceRows, render
from .scenario import (COUNTERS, InvalidScenario, NoSequence, ScenarioSpec, SendAction,
                       knock_client)
from .tables import TableError
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
    trace: Sequence     # the simulator's TraceRows; a list of records renders too
    hosts: dict
    rules: dict         # switch id -> its RuleRows
    sequences: dict
    knock_stages: dict

    def to_json_dict(self) -> dict:
        doc = dict(vars(self))
        if type(self.trace) is TraceRows:
            doc["trace"] = list(self.trace)
        doc["rules"] = {sid: list(rules) for sid, rules in self.rules.items()}
        return doc

    def canonical_text(self) -> str:
        """`json.dumps(self.to_json_dict(), sort_keys=True, indent=2)` plus
        a newline, rendered from the trace and rule rows without building
        their dicts (see `render`)."""
        return render(vars(self))

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
        self._trace: list[tuple] = []
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

        self._buckets: dict[int, list[tuple]] = {}   # tick -> its items, in push order
        self._ticks: list[int] = []                  # heap of the buckets' ticks
        self._now = 0    # tick being processed; time starts at 0
        self._ephemeral: dict[str, int] = {}
        self._stats = {h.name: dict.fromkeys(COUNTERS, 0) for h in topo.hosts}

    # -- scheduling --------------------------------------------------------

    def _push(self, time: int, item: tuple) -> None:
        if time < self._now:
            raise TimeReversal(
                f"cannot schedule at tick {time} while processing tick {self._now}")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [item]
            heapq.heappush(self._ticks, time)
        else:
            # the running tick's bucket too: its loop reaches the new item
            bucket.append(item)

    def _next_sport(self, host: str) -> int:
        # a host stack's ephemeral range: 40000..65535, then round again
        port = self._ephemeral.get(host, 40000)
        self._ephemeral[host] = port + 1 if port < 0xFFFF else 40000
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
                src_ip, target.ip, src_mac, target.mac,
                sport if sport is not None else self._next_sport(sender),
                dport, flags, ttl, payload)
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
                rule = table.read_rule(pre.key, pre.action, pre.params)
                switch.apply_rule_install([(pre.table, rule)])
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

        # Each switch pass runs inline, over local names. A forward goes
        # straight into the next tick's bucket when it exists: a later tick
        # can never reverse time. Every other schedule goes through _push.
        buckets, ticks, heappop = self._buckets, self._ticks, heapq.heappop
        network, links, host_ports = self.network, self.links, self.host_ports
        stats, add_row, push = self._stats, self._trace.append, self._push
        while ticks:
            time = self._now = heappop(ticks)
            for item in buckets[time]:
                if item[0] == "event":
                    _, sender, action = item
                    self._expand(time, sender, action)
                    continue
                _, sender, switch_id, ingress_port, packet = item
                switch = network[switch_id]
                stage, (kind, reason), out = switch.process_packet(ingress_port, packet)
                _, ip, tcp, _ = packet
                # one row per pass, its fields in render.TRACE_FIELDS order
                add_row((time, switch_id, kind, stage, ip.src_ip.text, ip.dst_ip.text,
                         tcp.src_port, tcp.dst_port, reason))
                if kind == FORWARDED:
                    egress = (switch_id, out.egress_port)
                    peer = links.get(egress)
                    if peer is not None:
                        hop = ("packet", sender, *peer, out.packet)
                        next_bucket = buckets.get(time + 1)
                        if next_bucket is None:
                            push(time + 1, hop)
                        else:
                            next_bucket.append(hop)
                        continue
                    # out of a host's port, or of one with nothing attached
                    counter = "delivered" if egress in host_ports else "dropped"
                else:
                    if kind == PUNTED:
                        switch.apply_rule_install(self.controller.handle_packet_in(
                            switch_id, serialize_packet(out.packet)))
                    counter = _COUNTER_OF[kind]
                stats[sender][counter] += 1
            del buckets[time]

        return self._report(scenario)

    # -- reporting ---------------------------------------------------------

    def _report(self, scenario: ScenarioSpec) -> RunReport:
        knock_stages = {}
        for switch_id in sorted(self.network):
            stages = self.network[switch_id].knock_stages
            if stages:
                knock_stages[switch_id] = {
                    str(ip): stage
                    for ip, stage in sorted(stages.items())
                }
        report = RunReport(
            scenario=scenario.name,
            seed=self.seed,
            trace=TraceRows(list(self._trace)),
            hosts={name: dict(c) for name, c in sorted(self._stats.items())},
            rules={sid: RuleRows([row for _, table in sorted(self.network[sid].tables.items())
                                  for row in table.dump()])
                   for sid in sorted(self.network)},
            sequences=self.store.to_json_dict(),
            knock_stages=knock_stages,
        )
        if not report.conservation_holds():
            raise CountersNotConserved(f"per-host counters: {report.hosts}")
        return report


def run_scenario(topo: TopologySpec, scenario: ScenarioSpec,
                 acl: dict[Ipv4Address, AclEntry], store: SequenceStore,
                 seed: Optional[int] = None) -> RunReport:
    """Build a fresh network and run one scenario to completion."""
    sim = Simulator(topo, acl, store,
                    seed=seed if seed is not None else scenario.seed)
    return sim.run(scenario)
