"""The four fates of a packet at one switch, shared by every pipeline
stage and by the trace: a stage passes a packet on with FORWARDED; any
other kind ends its trip at that switch."""

from __future__ import annotations

from typing import NamedTuple

FORWARDED = "Forwarded"
DROPPED = "Dropped"
PUNTED = "Punted"
CONSUMED = "Consumed"


class Verdict(NamedTuple):
    kind: str     # Forwarded | Dropped | Punted | Consumed
    reason: str
