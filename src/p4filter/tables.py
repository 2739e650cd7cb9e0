"""Exact-match match-action tables.

Each table has a name, a fixed key schema (an ordered tuple of field kinds),
a map of installed rules, and a default action returned on miss. A switch
keeps its tables in a plain name-to-table dict. Keys match exactly — no
prefixes, no wildcards — which keeps every lookup result reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .packet import Ipv4Address, MacAddr

# Key field kinds a schema may use.
KIND_IPV4 = "ipv4"
KIND_MAC = "mac"
KIND_PORT = "port"          # 16-bit L4 port
KIND_PORT_ID = "port_id"    # switch port number

_KIND_TYPES = {
    KIND_IPV4: Ipv4Address,
    KIND_MAC: MacAddr,
    KIND_PORT: int,
    KIND_PORT_ID: int,
}

# Action kinds
FORWARD = "Forward"
DROP = "Drop"
SEND_TO_CONTROLLER = "SendToController"
SET_ALLOWED = "SetAllowed"
SET_DIRECTION = "SetDirection"
NO_ACTION = "NoAction"

ACTION_KINDS = {FORWARD, DROP, SEND_TO_CONTROLLER, SET_ALLOWED, SET_DIRECTION, NO_ACTION}


class TableError(Exception):
    pass


class SchemaMismatch(TableError):
    """Key arity or field kinds do not match the table schema."""


class NotFound(TableError):
    """delete_rule for a key that is not installed."""


@dataclass(frozen=True)
class Action:
    kind: str
    params: tuple = ()   # sorted (name, value) pairs; tuple keeps Action hashable

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")

    @classmethod
    def make(cls, kind: str, **params) -> "Action":
        return cls(kind, tuple(sorted(params.items())))

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def param(self, name: str, default=None):
        """One parameter's value, read without building a dict."""
        for key, value in self.params:
            if key == name:
                return value
        return default


def forward(egress_port: int) -> Action:
    return Action.make(FORWARD, port=egress_port)


def drop() -> Action:
    return Action.make(DROP)


def send_to_controller() -> Action:
    return Action.make(SEND_TO_CONTROLLER)


def set_allowed(**params) -> Action:
    return Action.make(SET_ALLOWED, **params)


def set_direction(bit: int) -> Action:
    return Action.make(SET_DIRECTION, dir=bit)


def no_action() -> Action:
    return Action.make(NO_ACTION)


@dataclass(frozen=True)
class Rule:
    key: tuple
    action: Action


@dataclass
class Table:
    name: str
    schema: tuple      # tuple of field kinds, e.g. (KIND_IPV4, KIND_MAC)
    default_action: Action
    rules: dict = field(default_factory=dict)
    # the exact type of each key field; `type(v) is int` also rejects bool
    key_types: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.key_types = tuple(_KIND_TYPES[kind] for kind in self.schema)

    def _check_key(self, key: tuple) -> None:
        if not isinstance(key, tuple) or len(key) != len(self.schema):
            raise SchemaMismatch(
                f"{self.name}: key arity {len(key) if isinstance(key, tuple) else '?'}"
                f" != schema arity {len(self.schema)}")
        for value, kind, expected in zip(key, self.schema, self.key_types):
            if type(value) is not expected:
                raise SchemaMismatch(
                    f"{self.name}: field {value!r} is not a {kind}")

    def insert(self, rule: Rule) -> None:
        """Install a rule; an existing rule with the same key is replaced."""
        self._check_key(rule.key)
        self.rules[rule.key] = rule

    def delete(self, key: tuple) -> None:
        self._check_key(key)
        if key not in self.rules:
            raise NotFound(f"{self.name}: no rule for {key!r}")
        del self.rules[key]

    def lookup(self, key: tuple) -> tuple[Action, bool]:
        """(installed action, True) on hit; (default action, False) on miss."""
        # _check_key's rule, inlined for the one- and two-field schemas of the
        # pipeline's tables; any other key goes through _check_key, which
        # raises on a bad one
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

    def dump(self) -> list[dict]:
        """Audit form: one dict per rule, keys rendered as strings."""
        # each key is rendered once: the entry's key is also its sort key
        out = [{"table": self.name, "key": [str(f) for f in key],
                "action": rule.action.kind, "params": rule.action.param_dict}
               for key, rule in self.rules.items()]
        out.sort(key=itemgetter("key"))
        return out
