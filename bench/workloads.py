"""Seeded workload generators and the output checks applied to every run.

A generator is a pure function of (seed, size). It returns a `Workload`:
the topology, scenario and ACL as JSON text, which is all the program
sees, plus an oracle built from what the generator itself emitted. The
checks compare a `RunReport` against that oracle, never against another
run of the program.

Every packet the generator emits belongs to one class, keyed by the
(source IP, source port) it carries in the trace:

- DELIVER: legitimate traffic; every packet must reach its destination.
- BLOCK: traffic the policy forbids (denied, spoofed, wrong knock order,
  wrong port, unauthenticated); none may reach its destination.
- UNSOLICITED: outside traffic that only the stateful Bloom pair stops.
  Its pass rate is the measured leak, not a check, because a Bloom pair
  has false positives by design.
- ABSORB: control traffic (punted hellos, knock probes) that the pipeline
  consumes; none may reach its destination, and it is not counted as a
  leak.

Source ports the generator does not write itself are the simulator's
per-host ephemeral ports, which start at 40000 and advance by one per
knock probe in event order; the generator predicts them.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

from p4filter.bundled import default_topology_path

DELIVER = "deliver"
BLOCK = "block"
UNSOLICITED = "unsolicited"
ABSORB = "absorb"
LEAK_CLASSES = (BLOCK, UNSOLICITED)

EPHEMERAL_BASE = 40000      # first port the simulator hands out per host
SERVICE_PORT = 22           # the controller's service port
KNOCK_PROBES = 4            # three knocks plus the service probe



@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    size: int
    topology_text: str
    scenario_text: str
    acl_text: str
    sent: dict                # host name -> packets the generator emitted
    classes: dict             # (src ip, sport) -> (class, sending host)
    class_sent: dict          # class -> packets the generator emitted
    host_switch: dict         # host ip -> switch the host hangs off

    @property
    def packets(self) -> int:
        return sum(self.sent.values())


@dataclass
class _Draft:
    """Accumulates events and the oracle while a generator runs."""

    hosts: dict                                   # name -> host entry
    events: list = field(default_factory=list)
    sent: Counter = field(default_factory=Counter)
    classes: dict = field(default_factory=dict)
    class_sent: Counter = field(default_factory=Counter)
    ephemeral: Counter = field(default_factory=Counter)

    def _classify(self, src_ip: str, sport: int, kind: str, sender: str,
                  count: int) -> None:
        key = (src_ip, sport)
        if self.classes.setdefault(key, (kind, sender)) != (kind, sender):
            raise ValueError(f"generator reused {key} for two packet classes")
        self.class_sent[kind] += count
        self.sent[sender] += count

    def send(self, time: int, host: str, dst: str, dport: int, sport: int,
             kind: str, flags=("SYN",), repeat: int = 1,
             src_ip_of: str | None = None) -> None:
        event = {"time": time, "host": host, "action": "send", "dst": dst,
                 "dport": dport, "sport": sport, "flags": list(flags)}
        if repeat != 1:
            event["repeat"] = repeat
        if src_ip_of is not None:
            event["src_ip_of"] = src_ip_of
        self.events.append(event)
        src_ip = self.hosts[src_ip_of or host]["ip"]
        self._classify(src_ip, sport, kind, host, repeat)

    def knock(self, time: int, host: str, dst: str, service_kind: str,
              order=(0, 1, 2)) -> None:
        event = {"time": time, "host": host, "action": "knock", "dst": dst}
        if tuple(order) != (0, 1, 2):
            event["order"] = list(order)
        self.events.append(event)
        first = EPHEMERAL_BASE + self.ephemeral[host]
        self.ephemeral[host] += KNOCK_PROBES
        ip = self.hosts[host]["ip"]
        for sport in range(first, first + KNOCK_PROBES - 1):
            self._classify(ip, sport, ABSORB, host, 1)
        self._classify(ip, first + KNOCK_PROBES - 1, service_kind, host, 1)

    def finish(self, name: str, seed: int, size: int, topology_text: str,
               acl: list) -> Workload:
        # the scenario format needs non-decreasing times; the sort is stable,
        # so one host's events keep the order its ephemeral ports assume
        self.events.sort(key=lambda e: e["time"])
        scenario = {"name": name, "seed": seed, "events": self.events}
        return Workload(
            name=name, seed=seed, size=size,
            topology_text=topology_text,
            scenario_text=json.dumps(scenario),
            acl_text=json.dumps(acl),
            sent=dict(self.sent),
            classes=dict(self.classes),
            class_sent=dict(self.class_sent),
            host_switch={h["ip"]: h["switch"] for h in self.hosts.values()},
        )


def _hosts_of(topology: dict) -> dict:
    return {h["name"]: h for h in topology["hosts"]}


def _acl_entry(host: dict, verdict: str) -> dict:
    return {"ip": host["ip"], "mac": host["mac"], "verdict": verdict}


# -- stateful_forward ------------------------------------------------------

FLOW_SPORT_BASE = 10000     # inside flows use 10000 + flow index
REPLIES_PER_FLOW = 3


def stateful_forward(seed: int, flows: int) -> Workload:
    """Inside hosts open flows with a pure SYN and the outside host answers
    with ACKs. Once every flow is open, outside hosts send one unsolicited
    SYN per flow to random inside ports; only s1's Bloom pair, filled by
    all the flows, stands between those and h1/h2, so their pass rate is
    the pair's false-positive rate at that fill."""
    if not 1 <= flows <= 65535 - FLOW_SPORT_BASE:
        raise ValueError(f"flows must be in [1, {65535 - FLOW_SPORT_BASE}]")
    rng = random.Random(f"stateful_forward/{seed}")
    topology_text = Path(default_topology_path()).read_text()
    b = _Draft(_hosts_of(json.loads(topology_text)))
    for i in range(flows):
        inside, outside = rng.choice(("h1", "h2")), rng.choice(("h3", "h4"))
        service, sport = rng.choice((80, 443)), FLOW_SPORT_BASE + i
        b.send(4 * i, inside, outside, service, sport, DELIVER)
        b.send(4 * i + 1, outside, inside, sport, service, DELIVER, flags=("ACK",),
               repeat=REPLIES_PER_FLOW)
    # a source port below 10000 is never a flow's service port, so the
    # reversed 4-tuple was never inserted: passing it is a false positive
    for i in range(flows):
        stranger, target = rng.choice(("h3", "h4")), rng.choice(("h1", "h2"))
        b.send(4 * flows + i, stranger, target, rng.randrange(1024, 65536),
               rng.randrange(1024, FLOW_SPORT_BASE), UNSOLICITED)
    return b.finish("stateful_forward", seed, flows, topology_text, acl=[])


# -- knock_admission -------------------------------------------------------

SERVERS = 4
CLIENTS_PER_ACCESS = 32     # access ports 2..33 stay clear of CPU port 55
HELLO_SPORT = 1024
SESSION_SPORT = 2000
SPOOF_SPORT_BASE = 3000
SESSION_PACKETS = 4
WRONG_ORDERS = [p for p in permutations((0, 1, 2)) if p != (0, 1, 2)]
# tenths of the clients in each role; "allow" takes what the others leave
ROLE_TENTHS = {"deny": 1, "wrong_order": 1, "spoof": 1}


def _roles(rng: random.Random, clients: int) -> list[str]:
    """Exact role counts in a seeded order, so every seed does the same
    control-plane work. The first client is allowed, so a spoofer always
    has an admitted IP to borrow."""
    rest = [role for role, tenths in ROLE_TENTHS.items()
            for _ in range(clients * tenths // 10)]
    rest += ["allow"] * (clients - 1 - len(rest))
    rng.shuffle(rest)
    return ["allow"] + rest


def _two_tier(clients: int) -> dict:
    """One all-features core switch guarding the servers, and plain access
    switches carrying the clients."""
    access = -(-clients // CLIENTS_PER_ACCESS)
    if SERVERS + access >= 55:
        raise ValueError(f"too many clients for one core switch: {clients}")
    core_ports = list(range(1, SERVERS + access + 1))
    switches = [{"id": "c0", "ports": core_ports,
                 "features": ["Stateless", "Stateful", "Knocking"],
                 "internal_ports": core_ports}]
    hosts = [{"name": f"srv{s}", "ip": f"10.0.0.{s + 1}",
              "mac": f"02:00:00:00:00:{s + 1:02x}", "switch": "c0",
              "port": s + 1} for s in range(SERVERS)]
    links = []
    for a in range(access):
        switches.append({"id": f"a{a}",
                         "ports": list(range(1, CLIENTS_PER_ACCESS + 2))})
        links.append(["c0", SERVERS + 1 + a, f"a{a}", 1])
    for n in range(clients):
        hosts.append({"name": f"c{n}", "ip": f"10.1.{n // 250}.{n % 250 + 1}",
                      "mac": f"02:01:00:00:{n >> 8:02x}:{n & 0xFF:02x}",
                      "switch": f"a{n // CLIENTS_PER_ACCESS}",
                      "port": 2 + n % CLIENTS_PER_ACCESS})
    return {"switches": switches, "hosts": hosts, "links": links}


def knock_admission(seed: int, clients: int) -> Workload:
    """Every client's first SYN punts to the controller. 70 % of clients are
    allowed, knock, and open the service port; 10 % are denied and keep
    sending, and 10 % knock in the wrong order. The last 10 % spoof an
    allowed client's IP from their own MAC, after every client's punt has
    installed its binding."""
    if clients < 1:
        raise ValueError("need at least one client")
    rng = random.Random(f"knock_admission/{seed}")
    topology = _two_tier(clients)
    hosts = _hosts_of(topology)
    b = _Draft(hosts)
    acl, allowed, spoofers = [], [], []
    for n, role in enumerate(_roles(rng, clients)):
        name, t = f"c{n}", 2 * n
        server = f"srv{rng.randrange(SERVERS)}"
        if role == "spoof":
            spoofers.append(name)
            continue
        b.send(t, name, server, SERVICE_PORT, HELLO_SPORT, ABSORB)
        if role == "allow":
            acl.append(_acl_entry(hosts[name], "allow"))
            allowed.append(name)
            b.knock(t + 3, name, server, DELIVER)
            b.send(t + 8, name, server, SERVICE_PORT, SESSION_SPORT, DELIVER,
                   flags=("ACK",), repeat=SESSION_PACKETS)
        elif role == "deny":
            acl.append(_acl_entry(hosts[name], "deny"))
            b.send(t + 3, name, server, SERVICE_PORT, SESSION_SPORT, BLOCK,
                   repeat=SESSION_PACKETS)
        else:
            acl.append(_acl_entry(hosts[name], "allow"))
            b.knock(t + 3, name, server, BLOCK, order=rng.choice(WRONG_ORDERS))
            b.send(t + 8, name, server, SERVICE_PORT, SESSION_SPORT, BLOCK,
                   flags=("ACK",), repeat=SESSION_PACKETS)
    t = 2 * clients + 10
    for i, name in enumerate(spoofers):
        b.send(t + i, name, f"srv{rng.randrange(SERVERS)}", SERVICE_PORT,
               SPOOF_SPORT_BASE + i, BLOCK, repeat=SESSION_PACKETS,
               src_ip_of=rng.choice(allowed))
    return b.finish("knock_admission", seed, clients, json.dumps(topology), acl)


# -- authorized_service ----------------------------------------------------

CLIENTS = ("h1", "h2", "h3", "h4", "h5")
STRANGER = "h6"             # admitted by the ACL, never knocks
SERVER = "h7"
REAUTH_EVERY = 4            # rounds between re-authentications
STREAM_PACKETS = 24         # packets per service session
WRONG_PORTS = (23, 80, 8080)
WRONG_PORT_SPORT = 30000
ROUND_TICKS = 8 + STREAM_PACKETS + 4


def authorized_service(seed: int, rounds: int) -> Workload:
    """Clients authenticate once, then stream service sessions to h7:22 with
    periodic re-authentication. A small share of packets goes to a wrong
    port, or comes from h6, which is admitted but never knocks.

    h5 sits behind s2, which punts it too: its first hello is consumed by
    s2's punt, so it sends a second one that reaches s6 before it knocks.
    Without it, s6's punt would swallow h5's first knock.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    rng = random.Random(f"authorized_service/{seed}")
    topology_text = Path(default_topology_path()).read_text()
    hosts = _hosts_of(json.loads(topology_text))
    b = _Draft(hosts)
    acl = [_acl_entry(hosts[h], "allow") for h in CLIENTS + (STRANGER,)]
    for host in CLIENTS + (STRANGER,):
        b.send(0, host, SERVER, SERVICE_PORT, HELLO_SPORT, ABSORB)
    b.send(1, "h5", SERVER, SERVICE_PORT, HELLO_SPORT + 1, ABSORB)
    for r in range(rounds):
        t = 10 + r * ROUND_TICKS
        for host in CLIENTS:
            if r % REAUTH_EVERY == 0:
                b.knock(t, host, SERVER, DELIVER)
            b.send(t + 6, host, SERVER, SERVICE_PORT, SESSION_SPORT + r, DELIVER,
                   flags=("ACK",), repeat=STREAM_PACKETS)
            if rng.random() < 0.1:
                b.send(t + 7 + STREAM_PACKETS, host, SERVER,
                       rng.choice(WRONG_PORTS), WRONG_PORT_SPORT + r, BLOCK,
                       flags=("ACK",), repeat=2)
        if rng.random() < 0.2:
            b.send(t + 6, STRANGER, SERVER, SERVICE_PORT, SESSION_SPORT + r,
                   BLOCK, flags=("ACK",), repeat=2)
    return b.finish("authorized_service", seed, rounds, topology_text, acl)


GENERATORS = {
    "stateful_forward": stateful_forward,
    "knock_admission": knock_admission,
    "authorized_service": authorized_service,
}


# -- output checks ---------------------------------------------------------

def delivered_by_class(workload: Workload, report) -> tuple[Counter, Counter, list]:
    """Deliveries per packet class and per sending host, read from the trace.

    A packet reaches its destination exactly when the switch its
    destination hangs off forwards it, because that switch's route to a
    local host is the host's own port.
    """
    by_class, by_host, unknown = Counter(), Counter(), []
    for record in report.trace:
        if (record["verdict"] != "Forwarded"
                or workload.host_switch.get(record["dst"]) != record["switch"]):
            continue
        entry = workload.classes.get((record["src"], record["sport"]))
        if entry is None:
            unknown.append(record)
            continue
        by_class[entry[0]] += 1
        by_host[entry[1]] += 1
    return by_class, by_host, unknown


def leak_rate(workload: Workload, by_class: Counter) -> float:
    """Delivered packets the policy says must be blocked, over those sent."""
    sent = sum(workload.class_sent.get(c, 0) for c in LEAK_CLASSES)
    return sum(by_class[c] for c in LEAK_CLASSES) / sent if sent else 0.0


def check_report(workload: Workload, report) -> tuple[list[str], float]:
    """(failed checks, leak rate) for one run's report."""
    failures = []
    if not report.conservation_holds():
        failures.append("per-host counters do not conserve")
    for host, counters in report.hosts.items():
        if counters["sent"] != workload.sent.get(host, 0):
            failures.append(f"{host}: sent {counters['sent']}, "
                            f"generator emitted {workload.sent.get(host, 0)}")
    by_class, by_host, unknown = delivered_by_class(workload, report)
    if unknown:
        failures.append(f"{len(unknown)} deliveries the generator never emitted, "
                        f"first {unknown[0]}")
    for host, counters in report.hosts.items():
        if counters["delivered"] != by_host[host]:
            failures.append(f"{host}: delivered {counters['delivered']}, "
                            f"trace shows {by_host[host]}")
    lost = workload.class_sent.get(DELIVER, 0) - by_class[DELIVER]
    if lost:
        failures.append(f"{lost} legitimate packets were not delivered")
    for kind in (BLOCK, ABSORB):
        if by_class[kind]:
            failures.append(f"{by_class[kind]} {kind} packets were delivered")
    return failures, leak_rate(workload, by_class)
