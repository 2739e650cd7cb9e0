"""Exact-match match-action tables.

Each table has a name, a fixed key schema (an ordered tuple of field kinds),
a map of installed rules, and a default action returned on miss. A switch
keeps its tables in a plain name-to-table dict. Keys match exactly — no
prefixes, no wildcards — which keeps every lookup result reproducible.

A rule is two plain values, its key and its `Action(kind, data)`. As in a
P4 program, each action kind has a fixed signature: at most one integer
parameter, declared in `_ACTION_PARAM`, whose value is `data` (None when
unset). `Table.read_rule` reads the text form a scenario's preinstall spells.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .packet import Ipv4Address, MacAddr

# Key field kinds a schema may use.
KIND_IPV4 = "ipv4"
KIND_MAC = "mac"
KIND_PORT = "port"          # 16-bit L4 port
KIND_PORT_ID = "port_id"    # switch port number

# a port key is ASCII decimal with no sign, space, underscore or leading zero
_PORT_TEXT = re.compile(r"0|[1-9][0-9]{0,4}")


def _read_port(text: str) -> int:
    if _PORT_TEXT.fullmatch(text) is None or int(text) > 0xFFFF:
        raise ValueError(f"bad port {text!r}: want a decimal number in 0..65535")
    return int(text)


# each key kind's exact type, and the reader of the text the rule dump writes
_KINDS = {
    KIND_IPV4: (Ipv4Address, Ipv4Address.from_text),
    KIND_MAC: (MacAddr, MacAddr.from_text),
    KIND_PORT: (int, _read_port),
    KIND_PORT_ID: (int, _read_port),
}

# Action kinds
FORWARD = "Forward"
DROP = "Drop"
SEND_TO_CONTROLLER = "SendToController"
SET_ALLOWED = "SetAllowed"
SET_DIRECTION = "SetDirection"
NO_ACTION = "NoAction"

# each action kind's one parameter, or None when it takes none
_ACTION_PARAM = {FORWARD: "port", SET_ALLOWED: "pos", SET_DIRECTION: "dir",
                 DROP: None, SEND_TO_CONTROLLER: None, NO_ACTION: None}


class TableError(Exception):
    pass


class SchemaMismatch(TableError):
    """Key arity or field kinds do not match the table schema."""


class NotFound(TableError):
    """delete_rule for a key that is not installed."""


class Action(NamedTuple):
    kind: str
    data: Optional[int] = None   # the value of the kind's one parameter

    @property
    def params(self) -> dict:
        """The `{name: value}` form a report's rule record holds; empty when
        unset."""
        return {} if self.data is None else {_ACTION_PARAM[self.kind]: self.data}


def forward(egress_port: int) -> Action:
    return Action(FORWARD, egress_port)


def drop() -> Action:
    return Action(DROP)


def send_to_controller() -> Action:
    return Action(SEND_TO_CONTROLLER)


def set_allowed(pos: Optional[int] = None) -> Action:
    return Action(SET_ALLOWED, pos)


def set_direction(bit: int) -> Action:
    return Action(SET_DIRECTION, bit)


def no_action() -> Action:
    return Action(NO_ACTION)


class Rule(NamedTuple):
    key: tuple
    action: Action


@dataclass
class Table:
    name: str
    schema: tuple      # tuple of field kinds, e.g. (KIND_IPV4, KIND_MAC)
    default_action: Action
    rules: dict = field(default_factory=dict)
    # what read_rule checks an action for beyond its kind's signature
    require: Optional[Callable] = field(default=None, repr=False, compare=False)
    # the exact type of each key field; `type(v) is int` also rejects bool
    key_types: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.key_types = tuple(_KINDS[kind][0] for kind in self.schema)

    def _check_key(self, key: tuple) -> None:
        if not isinstance(key, tuple) or len(key) != len(self.schema):
            raise SchemaMismatch(
                f"{self.name}: key arity {len(key) if isinstance(key, tuple) else '?'}"
                f" != schema arity {len(self.schema)}")
        for value, kind, expected in zip(key, self.schema, self.key_types):
            if type(value) is not expected:
                raise SchemaMismatch(
                    f"{self.name}: field {value!r} is not a {kind}")

    # insert, delete and lookup run _check_key's rule inlined for the one-
    # and two-field schemas of the pipeline's tables; any other key goes
    # through _check_key, which raises on a bad one

    def insert(self, rule: Rule) -> None:
        """Install a rule; an existing rule with the same key is replaced."""
        key, types = rule.key, self.key_types
        if type(key) is not tuple or len(key) != len(types) or not (
                len(key) == 1 and type(key[0]) is types[0]
                or len(key) == 2 and type(key[0]) is types[0]
                and type(key[1]) is types[1]):
            self._check_key(key)
        self.rules[key] = rule

    def read_rule(self, fields: Sequence[str], kind: str, params: dict) -> Rule:
        """The rule a text key, an action kind and its `{name: value}` params
        spell; the parameter must be the kind's own, and an integer."""
        if len(fields) != len(self.schema):
            self._check_key(tuple(fields))   # raises the arity mismatch
        key = tuple(_KINDS[schema_kind][1](text)
                    for schema_kind, text in zip(self.schema, fields))
        if kind not in _ACTION_PARAM:
            raise ValueError(f"unknown action kind {kind!r}")
        name = _ACTION_PARAM[kind]
        for given in params:
            if given != name:
                raise SchemaMismatch(f"action {kind} has no parameter {given!r}")
        action = Action(kind, params.get(name))
        # the table's own check first, so its message names what it needs
        if self.require is not None:
            self.require(action)
        if params and type(action.data) is not int:
            raise SchemaMismatch(
                f"action parameter {name!r} must be an integer, got {action.data!r}")
        return Rule(key, action)

    def delete(self, key: tuple) -> None:
        types = self.key_types
        if type(key) is not tuple or len(key) != len(types) or not (
                len(key) == 1 and type(key[0]) is types[0]
                or len(key) == 2 and type(key[0]) is types[0]
                and type(key[1]) is types[1]):
            self._check_key(key)
        if key not in self.rules:
            raise NotFound(f"{self.name}: no rule for {key!r}")
        del self.rules[key]

    def lookup(self, key: tuple) -> tuple[Action, bool]:
        """(installed action, True) on hit; (default action, False) on miss."""
        types = self.key_types
        if type(key) is not tuple or len(key) != len(types) or not (
                len(key) == 1 and type(key[0]) is types[0]
                or len(key) == 2 and type(key[0]) is types[0]
                and type(key[1]) is types[1]):
            self._check_key(key)
        rule = self.rules.get(key)
        if rule is None:
            return self.default_action, False
        return rule.action, True

    def dump(self) -> list[tuple]:
        """Audit form: one `(table, key texts, action kind, data)` row per
        rule, its key fields rendered as strings, sorted by those strings."""
        # each key is rendered once: the row's key texts are also its sort key;
        # a port is an int, and an address has its text cached
        name = self.name
        out = [(name, [str(f) if type(f) is int else f.text for f in key],
                rule.action.kind, rule.action.data)
               for key, rule in self.rules.items()]
        out.sort(key=itemgetter(1))
        return out
