"""Software switch: the fixed five-stage pipeline over the six match-action
tables, plus rule installation from the controller.

Stage order is presence check, stateless firewall, stateful firewall, port
knocking, IPv4 forwarding. Filter stages run only on switches configured
with the matching feature, so a plain forwarder is just stage 5, plus
stage 1 once its presence table holds a rule. A pass returns how it
ended: the stage that ended it, the verdict, and the packet out when one
leaves. The switch keeps no clock and no log; whoever runs it records the
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import stateful, stateless, tables
from .bloom import DEFAULT_M, BloomPair
from .knocking import POS_SERVICE, knock_step
from .packet import Ipv4Address, Packet, TtlExpired, _new_tuple, decrement_ttl
from .tables import Rule, Table, KIND_IPV4, KIND_MAC, KIND_PORT, KIND_PORT_ID
from .verdict import DROPPED, FORWARDED, PUNTED, Verdict

CPU_PORT = 55

FEAT_STATELESS = "Stateless"
FEAT_STATEFUL = "Stateful"
FEAT_KNOCKING = "Knocking"
FEATURES = {FEAT_STATELESS, FEAT_STATEFUL, FEAT_KNOCKING}

# Pipeline stage names used in trace records
STAGE_PRESENT = "present"
STAGE_STATELESS = "stateless"
STAGE_STATEFUL = "stateful"
STAGE_KNOCKING = "knocking"
STAGE_FORWARD = "forward"

# the switch's own verdicts, one object each for every pass
_PRESENT_PUNT = Verdict(PUNTED, "present_table punt")
_PRESENT_DROP = Verdict(DROPPED, "present_table drop")
_NO_KNOCK_STATE = Verdict(DROPPED, "no knock state")
_NO_ROUTE = Verdict(DROPPED, "no route")
_TTL_EXPIRED = Verdict(DROPPED, "ttl expired")
_ROUTED = Verdict(FORWARDED, "forwarded")


def knock_pos(action: tables.Action) -> int:
    """The position a knock_rules action grants: a SetAllowed's integer in 0..3."""
    pos = action.data if action.kind == tables.SET_ALLOWED else None
    if type(pos) is not int or not 0 <= pos <= POS_SERVICE:
        raise tables.SchemaMismatch(
            f"knock_rules action needs an integer 'pos' in 0..3, got {pos!r}")
    return pos


def _route_port(action: tables.Action) -> None:
    """An ipv4_forward Forward action must name its egress port."""
    if action.kind == tables.FORWARD and action.data is None:
        raise tables.SchemaMismatch("a Forward route needs a 'port'")


def route_installs(routes: dict[Ipv4Address, int]) -> list[tuple[str, Rule]]:
    """The ipv4_forward rules for a destination-to-egress-port map, in
    address order; routes through one egress port share one Forward action."""
    forwards = {egress: tables.forward(egress) for egress in set(routes.values())}
    return [("ipv4_forward", Rule((ip,), forwards[routes[ip]])) for ip in sorted(routes)]


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
    """One switch: tables, flow filters and knocking state.

    All mutation happens through process_packet and apply_rule_install,
    called sequentially by the owning event loop.
    """

    def __init__(self, config: SwitchConfig):
        self.config = config
        self._ports = frozenset(config.ports)
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
        self.knock_rules = Table("knock_rules", (KIND_IPV4, KIND_PORT),
                                 tables.no_action(), require=knock_pos)
        self.ipv4_forward = Table("ipv4_forward", (KIND_IPV4,), tables.drop(),
                                  require=_route_port)
        for port in config.internal_ports:
            self.check_ports.insert(Rule((port,), tables.set_direction(stateful.INTERNAL)))
        self.tables: dict[str, Table] = {t.name: t for t in (
            self.present_table, self.check_ip, self.check_mac, self.check_ports,
            self.knock_rules, self.ipv4_forward)}

    # -- pipeline ----------------------------------------------------------

    def _egress_is_internal(self, route: tables.Action) -> bool:
        """Whether the ipv4_forward action `route` sends out of an internal port."""
        if route.kind != tables.FORWARD:
            return False
        _, internal = self.check_ports.lookup((route.data,))
        return internal

    def process_packet(self, ingress_port: int,
                       p: Packet) -> tuple[str, Verdict, PacketOut | None]:
        """(stage, verdict, out): where and how the pass ended, and the packet
        leaving (routed with TTL decremented, or punted unchanged), if any."""
        if ingress_port not in self._ports:
            raise UnknownPort(f"{self.config.switch_id}: no port {ingress_port}")
        _, ip, tcp, _ = p
        # 1. presence check on the source; SetAllowed / NoAction continue.
        #    Without knocking the default is NoAction, so only a rule can act.
        if self._knocking or self.present_table.rules:
            action, _ = self.present_table.lookup((ip.src_ip,))
            if action.kind == tables.SEND_TO_CONTROLLER:
                return STAGE_PRESENT, _PRESENT_PUNT, PacketOut(self.config.cpu_port, p)
            if action.kind == tables.DROP:
                return STAGE_PRESENT, _PRESENT_DROP, None

        # 2. stateless firewall
        if self._stateless:
            verdict = stateless.stateless_check(p, self.check_ip, self.check_mac)
            if verdict.kind != FORWARDED:
                out = PacketOut(self.config.cpu_port, p) if verdict.kind == PUNTED else None
                return STAGE_STATELESS, verdict, out

        # 3. stateful firewall; traffic staying inside the protected side
        #    never consults or grows the flow state. No stage changes a
        #    table during a pass, so stage 5 reuses the route found here.
        route = None
        if self._stateful:
            direction = stateful.classify_direction(ingress_port, self.check_ports)
            if direction == stateful.INTERNAL:
                route, _ = self.ipv4_forward.lookup((ip.dst_ip,))
            if route is None or not self._egress_is_internal(route):
                verdict = stateful.stateful_process(p, direction, self.blooms)
                if verdict.kind != FORWARDED:
                    return STAGE_STATEFUL, verdict, None

        # 4. port knocking: knock_rules gives the port's position (a miss
        #    gives NoAction, with none), the stage register the next one
        if self._knocking:
            src = ip.src_ip
            stage = self.knock_stages.get(src)
            if stage is None:
                return STAGE_KNOCKING, _NO_KNOCK_STATE, None
            action, _ = self.knock_rules.lookup((src, tcp.dst_port))
            verdict, self.knock_stages[src] = knock_step(
                stage, action.data, tcp.is_pure_syn)
            if verdict.kind != FORWARDED:
                return STAGE_KNOCKING, verdict, None

        # 5. IPv4 forwarding
        if route is None:
            route, _ = self.ipv4_forward.lookup((ip.dst_ip,))
        if route.kind != tables.FORWARD:
            return STAGE_FORWARD, _NO_ROUTE, None
        try:
            out = decrement_ttl(p)
        except TtlExpired:
            return STAGE_FORWARD, _TTL_EXPIRED, None
        return STAGE_FORWARD, _ROUTED, _new_tuple(PacketOut, (route.data, out))

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
