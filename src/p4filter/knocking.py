"""Per-source port-knocking state machine.

A host must send pure TCP SYN probes to its three secret ports in order;
only then (stage 3) does traffic to its service port pass. Knock probes are
absorbed, never forwarded. A wrong knock resets progress to stage 0, except
that a probe to the first knock port always starts a fresh attempt at
stage 1 — without that rule, a host that mistimes one knock could never
recover, and re-authentication from stage 3 would be impossible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .verdict import CONSUMED, DROPPED, FORWARDED, Verdict

STAGE_AUTHENTICATED = 3
POS_SERVICE = 3     # knock_rules position of the service port
_AUTHENTICATED = Verdict(FORWARDED, "knock authenticated")
_ABSORBED = Verdict(CONSUMED, "knock consumed")
_KNOCK_DROP = Verdict(DROPPED, "knock drop")
_WRONG_KNOCK = Verdict(DROPPED, "wrong knock")


@dataclass(frozen=True)
class KnockSequence:
    knock_ports: tuple[int, int, int]
    service_port: int

    def __post_init__(self):
        if len(self.knock_ports) != 3:
            raise ValueError("exactly 3 knock ports required")
        if len(set(self.knock_ports)) != 3:
            raise ValueError("knock ports must be pairwise distinct")
        for port in self.knock_ports:
            if not 1024 <= port <= 65535:
                raise ValueError(f"knock port {port} outside [1024, 65535]")
        if not 0 <= self.service_port <= 65535:
            raise ValueError(f"service port {self.service_port} out of range")
        if self.service_port in self.knock_ports:
            raise ValueError("service port may not be a knock port")


def knock_step(stage: int, pos: int | None, pure_syn: bool) -> tuple[Verdict, int]:
    """Advance one source's knocking FSM by one packet; `pos` is the
    destination port's knock_rules position, None on a miss.

    Stages 0-2: a pure SYN to the expected knock port advances and is
    absorbed; a pure SYN to the first knock port restarts at stage 1; any
    other pure SYN (wrong knock port, premature service port, anything
    else) resets to stage 0 and drops; non-SYN traffic drops without
    touching the stage. Stage 3: service-port traffic forwards and keeps
    the stage; a pure SYN to the first knock port begins re-authentication;
    everything else drops, stage retained.
    """
    if stage == STAGE_AUTHENTICATED:
        if pos == POS_SERVICE:
            return _AUTHENTICATED, stage
        if pure_syn and pos == 0:
            return _ABSORBED, 1
        return _KNOCK_DROP, stage

    if not pure_syn:
        return _KNOCK_DROP, stage
    if pos == stage:
        return _ABSORBED, stage + 1
    if pos == 0:
        return _ABSORBED, 1
    return _WRONG_KNOCK, 0
