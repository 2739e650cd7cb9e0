"""The run report's canonical text, written into one list and joined once.

`render(doc)` returns exactly `json.dumps(doc, sort_keys=True, indent=2)
+ "\\n"`. With `indent` set, CPython's json module leaves its C encoder
and yields the text token by token from Python, holding every token of a
multi-megabyte report in a list before the join. Here the whole document
goes into one list of pieces, a trace record or rule-dump entry at a
time, and one join makes the text, so no section is copied on the way.
The two bulk shapes of a report each fill one `%` template: a trace
record, straight from the simulator's row (`TraceRows`), and a rule-dump
entry. Every distinct string and rule `params` object is rendered once,
and a small walk writes the rest, a trace given as a list of dicts too.
A row or entry whose key set or exact value types differ from its
template goes through the walk, and a value the walk does not know
(`bool`, `None`, a float, a dict with non-string keys, a subclass) goes
through `json.dumps` itself, so no input renders differently.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

# The fields of a trace row, in the order the simulator writes them.
TRACE_FIELDS = (
    "time", "switch", "verdict", "stage", "src", "dst", "sport", "dport", "reason")

# A trace record as an item of the top-level "trace" list, at indent 4;
# its keys in sorted order.
_TRACE_RECORD = (
    '{\n'
    '      "dport": %d,\n'
    '      "dst": %s,\n'
    '      "reason": %s,\n'
    '      "sport": %d,\n'
    '      "src": %s,\n'
    '      "stage": %s,\n'
    '      "switch": %s,\n'
    '      "time": %d,\n'
    '      "verdict": %s\n'
    '    }')

# A rule-dump entry (Table.dump) as an item of one switch's list under the
# top-level "rules" object, at indent 6.
_RULE_KEYS = frozenset(("action", "key", "params", "table"))
_RULE_ENTRY = (
    '{\n'
    '        "action": %s,\n'
    '        "key": %s,\n'
    '        "params": %s,\n'
    '        "table": %s\n'
    '      }')
# its "key", a non-empty list of strings, and its non-empty "params", at indent 8
_RULE_KEY = '[\n          %s\n        ]'
_RULE_PARAMS = '{\n          %s\n        }'
_RULE_SEP = ',\n          '

_STR = frozenset((str,))
_INT = frozenset((int,))


class TraceRows(Sequence):
    """The simulator's trace: a read-only view over its rows, one tuple of
    `TRACE_FIELDS` per switch pass, that yields each record as a fresh
    dict with the keys in that order."""

    def __init__(self, rows: list[tuple]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> dict:
        return dict(zip(TRACE_FIELDS, self.rows[operator.index(i)]))

    def __iter__(self):
        for row in self.rows:
            yield dict(zip(TRACE_FIELDS, row))

    def __eq__(self, other):
        # so reports compare as they did when the trace was a list of dicts
        if type(other) is TraceRows:
            return self.rows == other.rows
        return list(self) == other if type(other) is list else NotImplemented


class _Strings(dict):
    """The JSON text of each distinct string, escaped on first use."""

    def __missing__(self, s: str) -> str:
        text = self[s] = encode_basestring_ascii(s)
        return text


def _str_keyed(v) -> bool:
    return type(v) is dict and _STR.issuperset(map(type, v))


class _Renderer:
    """One render: the pieces of its text, and memos that live as long as
    the render. The writers append their value's text to `out`."""

    def __init__(self):
        self.out: list[str] = []
        self.text = _Strings()
        # the text, at indent 8, of each distinct rule "params" object of
        # string keys and integer values; a report has a few dozen of them
        self.params: dict[tuple, str] = {}

    def value(self, v, indent: int) -> None:
        t = type(v)
        if t is str:
            self.out.append(self.text[v])
        elif t is int:
            self.out.append(repr(v))
        elif t is list:
            self.items(v, indent, self.value)
        elif _str_keyed(v):
            self.fields(v, indent, lambda _, x, i: self.value(x, i))
        else:
            self.out.append(
                json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n" + " " * indent))

    def items(self, seq, indent: int, item, brackets: str = "[]") -> None:
        """A list, or with "{}" an object, with `item(x, indent)` writing
        each member."""
        if not seq:
            self.out.append(brackets)
            return
        inner = "\n" + " " * (indent + 2)
        sep, comma = brackets[0] + inner, "," + inner
        for x in seq:
            self.out.append(sep)
            item(x, indent + 2)
            sep = comma
        self.out.append("\n" + " " * indent + brackets[1])

    def fields(self, mapping: dict, indent: int, field) -> None:
        """An object, with `field(name, v, indent)` writing each value."""
        def write(name, indent):
            self.out.append(self.text[name] + ": ")
            field(name, mapping[name], indent)
        self.items(sorted(mapping), indent, write, "{}")

    # The templates hold their own indentation: `member` reaches trace
    # records at indent 4 and rule-dump entries at indent 6, as json.dumps does.

    def trace_row(self, row: tuple, indent: int) -> None:
        time, switch, verdict, stage, src, dst, sport, dport, reason = row
        if (type(dport) is int and type(sport) is int and type(time) is int
                and type(dst) is str and type(reason) is str and type(src) is str
                and type(stage) is str and type(switch) is str
                and type(verdict) is str):
            text = self.text
            self.out.append(_TRACE_RECORD % (
                dport, text[dst], text[reason], sport, text[src],
                text[stage], text[switch], time, text[verdict]))
        else:
            self.value(dict(zip(TRACE_FIELDS, row)), indent)

    def rule_entry(self, entry, indent: int) -> None:
        if type(entry) is dict and entry.keys() == _RULE_KEYS:
            action, key, table = entry["action"], entry["key"], entry["table"]
            params = self.rule_params(entry["params"])
            if (type(action) is str and type(table) is str and params is not None
                    and type(key) is list and key and _STR.issuperset(map(type, key))):
                text = self.text
                self.out.append(_RULE_ENTRY % (
                    text[action], _RULE_KEY % _RULE_SEP.join(map(text.__getitem__, key)),
                    params, text[table]))
                return
        self.value(entry, indent)

    def rule_params(self, params) -> str | None:
        """The text of a "params" object of string keys and integer values;
        None for any other value."""
        # exact types, so equal pairs render equal (True == 1, yet not as JSON)
        if not (_str_keyed(params) and _INT.issuperset(map(type, params.values()))):
            return None
        pairs = tuple(params.items())
        text = self.params.get(pairs)
        if text is None:
            text = self.params[pairs] = (_RULE_PARAMS % _RULE_SEP.join(
                "%s: %d" % (self.text[k], v) for k, v in sorted(pairs)) if pairs else "{}")
        return text

    def rule_list(self, switch: str, entries, indent: int) -> None:
        if type(entries) is list:
            self.items(entries, indent, self.rule_entry)
        else:
            self.value(entries, indent)

    def member(self, name: str, v, indent: int) -> None:
        """A top-level value; "trace" and "rules" hold the templated shapes."""
        if name == "trace" and type(v) is TraceRows:
            self.items(v.rows, indent, self.trace_row)
        elif name == "rules" and _str_keyed(v):
            self.fields(v, indent, self.rule_list)
        else:
            self.value(v, indent)


def render(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, joined once; a
    `TraceRows` as the top-level "trace" renders as its list of records."""
    r = _Renderer()
    if _str_keyed(doc):
        r.fields(doc, 0, r.member)
    else:
        r.value(doc, 0)
    r.out.append("\n")
    return "".join(r.out)
