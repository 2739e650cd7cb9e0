"""Software switch: the fixed five-stage pipeline over the six match-action
tables, plus rule installation from the controller.

Stage order is presence check, stateless firewall, stateful firewall, port
knocking, IPv4 forwarding. Filter stages run only on switches configured
with the matching feature, so a plain forwarder is just stages 1 (as a
no-op) and 5. Every processed packet appends exactly one terminal event to
the switch's log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import stateful, stateless, tables
from .bloom import DEFAULT_M, BloomPair
from .knocking import KnockSequence, KnockState, knock_step
from .packet import Ipv4Address, Packet, TtlExpired, decrement_ttl
from .tables import (
    Rule, TableSet,
    KIND_IPV4, KIND_MAC, KIND_PORT, KIND_PORT_ID,
)
from .verdict import DROPPED, FORWARDED, PUNTED, Verdict

CPU_PORT = 55

FEAT_STATELESS = "Stateless"
FEAT_STATEFUL = "Stateful"
FEAT_KNOCKING = "Knocking"
FEATURES = {FEAT_STATELESS, FEAT_STATEFUL, FEAT_KNOCKING}

# Pipeline stage names used in event records
STAGE_PRESENT = "present"
STAGE_STATELESS = "stateless"
STAGE_STATEFUL = "stateful"
STAGE_KNOCKING = "knocking"
STAGE_FORWARD = "forward"


class UnknownPort(Exception):
    """Packet arrived on a port the switch does not have — fatal
    configuration error."""


class PacketOut(NamedTuple):
    egress_port: int
    packet: Packet


@dataclass(frozen=True)
class SwitchConfig:
    switch_id: str
    ports: tuple[int, ...]
    features: frozenset = frozenset()
    internal_ports: tuple[int, ...] = ()
    cpu_port: int = CPU_PORT

    def __post_init__(self):
        if len(set(self.ports)) != len(self.ports):
            raise ValueError(f"{self.switch_id}: duplicate ports")
        if self.cpu_port in self.ports:
            raise ValueError(f"{self.switch_id}: cpu_port collides with a data port")
        unknown = set(self.features) - FEATURES
        if unknown:
            raise ValueError(f"{self.switch_id}: unknown features {sorted(unknown)}")
        if not set(self.internal_ports) <= set(self.ports):
            raise ValueError(f"{self.switch_id}: internal_ports not a subset of ports")


class P4Switch:
    """One switch: tables, flow filters, knocking state, and an event log.

    All mutation happens through process_packet and apply_rule_install,
    called sequentially by the owning event loop. `now` is stamped by that
    loop before each call so event records carry simulation time. The
    switches of one network share a single event log, passed in here.
    """

    def __init__(self, config: SwitchConfig, event_log: Optional[list] = None):
        self.config = config
        self.now = 0
        self.event_log: list[dict] = [] if event_log is None else event_log
        self.blooms = BloomPair.sized(DEFAULT_M)
        self.knock_states: dict[Ipv4Address, KnockState] = {}
        self.pending_punts: set[Ipv4Address] = set()
        self._knock_staging: dict[Ipv4Address, dict[int, int]] = {}

        self._stateless = FEAT_STATELESS in config.features
        self._stateful = FEAT_STATEFUL in config.features
        self._knocking = FEAT_KNOCKING in config.features

        # The pipeline holds its tables directly; the TableSet is the
        # by-name view the control plane and the rule dump go through.
        t = TableSet()
        self.present_table = t.create(
            "present_table", (KIND_IPV4,),
            tables.send_to_controller() if self._knocking else tables.no_action())
        self.check_ip = t.create("check_ip", (KIND_IPV4,), tables.send_to_controller())
        self.check_mac = t.create("check_mac", (KIND_IPV4, KIND_MAC), tables.drop())
        self.check_ports = t.create(
            "check_ports", (KIND_PORT_ID,), tables.set_direction(stateful.EXTERNAL))
        t.create("knock_rules", (KIND_IPV4, KIND_PORT), tables.no_action())
        self.ipv4_forward = t.create("ipv4_forward", (KIND_IPV4,), tables.drop())
        for port in config.internal_ports:
            self.check_ports.insert(Rule((port,), tables.set_direction(stateful.INTERNAL)))
        self.tables = t

    # -- event log ---------------------------------------------------------

    def _log(self, verdict: str, stage: str, p: Packet, reason: str) -> None:
        self.event_log.append({
            "time": self.now,
            "switch": self.config.switch_id,
            "verdict": verdict,
            "stage": stage,
            "src": str(p.ip.src_ip),
            "dst": str(p.ip.dst_ip),
            "sport": p.tcp.src_port,
            "dport": p.tcp.dst_port,
            "reason": reason,
        })

    # -- pipeline ----------------------------------------------------------

    def _stop(self, stage: str, p: Packet, verdict: Verdict) -> Optional[PacketOut]:
        """End the packet's trip at `stage`. A punt leaves through the CPU
        port unless one from the same source is still unanswered, in which
        case the packet is dropped as `punt pending`."""
        if verdict.kind == PUNTED:
            if p.ip.src_ip in self.pending_punts:
                verdict = Verdict(DROPPED, "punt pending")
            else:
                self.pending_punts.add(p.ip.src_ip)
                self._log(PUNTED, stage, p, verdict.reason)
                return PacketOut(self.config.cpu_port, p)
        self._log(verdict.kind, stage, p, verdict.reason)
        return None

    def _egress_is_internal(self, dst_ip: Ipv4Address) -> bool:
        action, hit = self.ipv4_forward.lookup((dst_ip,))
        if not hit or action.kind != tables.FORWARD:
            return False
        _, internal = self.check_ports.lookup((action.param("port"),))
        return internal

    def process_packet(self, ingress_port: int, p: Packet) -> Optional[PacketOut]:
        """The packet's one output, or None when it is dropped or consumed
        here; either way exactly one record is logged."""
        if ingress_port not in self.config.ports:
            raise UnknownPort(f"{self.config.switch_id}: no port {ingress_port}")
        # 1. presence check on the source; SetAllowed / NoAction continue
        action, _ = self.present_table.lookup((p.ip.src_ip,))
        if action.kind == tables.SEND_TO_CONTROLLER:
            return self._stop(STAGE_PRESENT, p, Verdict(PUNTED, "present_table punt"))
        if action.kind == tables.DROP:
            return self._stop(STAGE_PRESENT, p, Verdict(DROPPED, "present_table drop"))

        # 2. stateless firewall
        if self._stateless:
            verdict = stateless.stateless_check(p, self.check_ip, self.check_mac)
            if verdict.kind != FORWARDED:
                return self._stop(STAGE_STATELESS, p, verdict)

        # 3. stateful firewall; traffic staying inside the protected side
        #    never consults or grows the flow state
        if self._stateful:
            direction = stateful.classify_direction(ingress_port, self.check_ports)
            bypass = (direction == stateful.INTERNAL
                      and self._egress_is_internal(p.ip.dst_ip))
            if not bypass:
                verdict = stateful.stateful_process(p, direction, self.blooms)
                if verdict.kind != FORWARDED:
                    return self._stop(STAGE_STATEFUL, p, verdict)

        # 4. port knocking
        if self._knocking:
            state = self.knock_states.get(p.ip.src_ip)
            if state is None:
                return self._stop(STAGE_KNOCKING, p, Verdict(DROPPED, "no knock state"))
            verdict, new_state = knock_step(state, p)
            self.knock_states[p.ip.src_ip] = new_state
            if verdict.kind != FORWARDED:
                return self._stop(STAGE_KNOCKING, p, verdict)

        # 5. IPv4 forwarding
        action, _ = self.ipv4_forward.lookup((p.ip.dst_ip,))
        if action.kind != tables.FORWARD:
            return self._stop(STAGE_FORWARD, p, Verdict(DROPPED, "no route"))
        try:
            out = decrement_ttl(p)
        except TtlExpired:
            return self._stop(STAGE_FORWARD, p, Verdict(DROPPED, "ttl expired"))
        self._log(FORWARDED, STAGE_FORWARD, p, "forwarded")
        return PacketOut(action.param("port"), out)

    # -- control plane -----------------------------------------------------

    def apply_rule_install(self, installs: list[tuple[str, Rule]]) -> None:
        """Install controller rules; knock rules additionally materialize or
        refresh the sender's knocking state."""
        touched: set[Ipv4Address] = set()
        for table_name, rule in installs:
            self.tables[table_name].insert(rule)
            if table_name == "present_table":
                self.pending_punts.discard(rule.key[0])
            elif table_name == "knock_rules":
                ip, port = rule.key
                pos = rule.action.param("pos")
                if pos is None:
                    raise tables.SchemaMismatch(
                        "knock_rules action needs a 'pos' parameter")
                self._knock_staging.setdefault(ip, {})[pos] = port
                touched.add(ip)
        for ip in touched:
            staged = self._knock_staging[ip]
            if set(staged) == {0, 1, 2, 3}:
                seq = KnockSequence(
                    knock_ports=(staged[0], staged[1], staged[2]),
                    service_port=staged[3])
                current = self.knock_states.get(ip)
                if current is None or current.seq != seq:
                    self.knock_states[ip] = KnockState(owner_ip=ip, seq=seq, stage=0)
