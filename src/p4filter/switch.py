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
from .knocking import POS_SERVICE, knock_step
from .packet import Ipv4Address, Packet, TtlExpired, decrement_ttl
from .tables import Rule, Table, KIND_IPV4, KIND_MAC, KIND_PORT, KIND_PORT_ID
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


def knock_pos(action: tables.Action) -> int:
    """The position a knock_rules action grants: an integer in 0..3."""
    pos = action.param("pos")
    if type(pos) is not int or not 0 <= pos <= POS_SERVICE:
        raise tables.SchemaMismatch(
            f"knock_rules action needs an integer 'pos' in 0..3, got {pos!r}")
    return pos


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
        # stage register; each source's knock_rules ports, by position
        self.knock_stages: dict[Ipv4Address, int] = {}
        self._knock_ports: dict[Ipv4Address, dict[int, int]] = {}

        self._stateless = FEAT_STATELESS in config.features
        self._stateful = FEAT_STATEFUL in config.features
        self._knocking = FEAT_KNOCKING in config.features

        # The pipeline holds its tables directly; `tables` is the by-name
        # view the control plane and the rule dump go through.
        self.present_table = Table(
            "present_table", (KIND_IPV4,),
            tables.send_to_controller() if self._knocking else tables.no_action())
        self.check_ip = Table("check_ip", (KIND_IPV4,), tables.send_to_controller())
        self.check_mac = Table("check_mac", (KIND_IPV4, KIND_MAC), tables.drop())
        self.check_ports = Table(
            "check_ports", (KIND_PORT_ID,), tables.set_direction(stateful.EXTERNAL))
        self.knock_rules = Table("knock_rules", (KIND_IPV4, KIND_PORT), tables.no_action())
        self.ipv4_forward = Table("ipv4_forward", (KIND_IPV4,), tables.drop())
        for port in config.internal_ports:
            self.check_ports.insert(Rule((port,), tables.set_direction(stateful.INTERNAL)))
        self.tables: dict[str, Table] = {t.name: t for t in (
            self.present_table, self.check_ip, self.check_mac, self.check_ports,
            self.knock_rules, self.ipv4_forward)}

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
        """End the packet's trip at `stage`; a punt leaves through the CPU
        port."""
        self._log(verdict.kind, stage, p, verdict.reason)
        if verdict.kind == PUNTED:
            return PacketOut(self.config.cpu_port, p)
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

        # 4. port knocking: knock_rules gives the port's position (a miss
        #    gives NoAction, with none), the stage register the next one
        if self._knocking:
            src = p.ip.src_ip
            stage = self.knock_stages.get(src)
            if stage is None:
                return self._stop(STAGE_KNOCKING, p, Verdict(DROPPED, "no knock state"))
            action, _ = self.knock_rules.lookup((src, p.tcp.dst_port))
            verdict, self.knock_stages[src] = knock_step(
                stage, action.param("pos"), p.tcp.is_pure_syn)
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
        """Install controller rules. Knock rules stay one per (source,
        position): a rule replaces the source's rule at its position, and a
        port the source holds at another position moves. A source whose
        knock rules changed restarts at stage 0 once all four positions are
        set, and has no stage until then. Every other rule is a plain insert
        that replaces whatever its key held."""
        changed: set[Ipv4Address] = set()
        for table_name, rule in installs:
            table = self.tables[table_name]
            if table is not self.knock_rules:
                table.insert(rule)
                continue
            pos = knock_pos(rule.action)
            table.insert(rule)     # checks the key before anything changes
            ip, port = rule.key
            ports = self._knock_ports.setdefault(ip, {})
            displaced = ports.get(pos)
            if displaced != port:
                if displaced is not None:
                    table.delete((ip, displaced))
                ports = self._knock_ports[ip] = {
                    q: held for q, held in ports.items() if held != port}
                ports[pos] = port
                changed.add(ip)
        for ip in changed:
            if len(self._knock_ports[ip]) == 4:
                self.knock_stages[ip] = 0
            else:
                self.knock_stages.pop(ip, None)
