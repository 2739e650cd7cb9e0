"""The run report's canonical text, rendered in one pass.

`render(doc)` returns exactly `json.dumps(doc, sort_keys=True, indent=2)
+ "\\n"`. With `indent` set, CPython's json module leaves its C encoder
and yields the text token by token from Python, holding every token of a
multi-megabyte report in a list before the join. Here the two bulk
shapes of a report, trace records and rule-dump entries, each fill one
`%` template, every distinct string and rule `params` object is rendered
once, and a small walk renders the rest. A record whose key set or exact
value types differ from its template goes through the walk, and a value
the walk does not know (`bool`, `None`, a float, a dict with non-string
keys, a subclass) goes through `json.dumps` itself, so no input renders
differently.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

# A trace record (P4Switch._log) as an item of the top-level "trace" list,
# at indent 4; its keys in sorted order.
_TRACE_KEYS = frozenset(
    ("dport", "dst", "reason", "sport", "src", "stage", "switch", "time", "verdict"))
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
# its "key", a non-empty list of strings, at indent 8
_RULE_KEY = '[\n          %s\n        ]'
_RULE_KEY_SEP = ',\n          '

_STR = frozenset((str,))
_INT = frozenset((int,))


class _Strings(dict):
    """The JSON text of each distinct string, escaped on first use."""

    def __missing__(self, s: str) -> str:
        text = self[s] = encode_basestring_ascii(s)
        return text


def _wrap(open_: str, parts: list, indent: int, close: str) -> str:
    if not parts:
        return open_ + close
    inner = "\n" + " " * (indent + 2)
    return open_ + inner + ("," + inner).join(parts) + "\n" + " " * indent + close


def _str_keyed(v) -> bool:
    return type(v) is dict and _STR.issuperset(map(type, v))


class _Renderer:
    """One render; the memos live as long as the render."""

    def __init__(self):
        self.text = _Strings()
        # the text, at indent 8, of each distinct rule "params" object of
        # string keys and integer values; a report has a few dozen of them
        self.params: dict[tuple, str] = {}

    def value(self, v, indent: int) -> str:
        t = type(v)
        if t is str:
            return self.text[v]
        if t is int:
            return repr(v)
        if t is list:
            return self.items(v, indent, self.value)
        if _str_keyed(v):
            return self.fields(v, indent, self.value)
        return json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n" + " " * indent)

    def items(self, seq: list, indent: int, item) -> str:
        return _wrap("[", [item(x, indent + 2) for x in seq], indent, "]")

    def fields(self, mapping: dict, indent: int, field) -> str:
        text = self.text
        return _wrap("{", [text[k] + ": " + field(mapping[k], indent + 2)
                           for k in sorted(mapping)], indent, "}")

    # The templates hold their own indentation: `member` reaches trace
    # records at indent 4 and rule-dump entries at indent 6, as json.dumps does.

    def trace_record(self, rec, indent: int) -> str:
        if type(rec) is dict and rec.keys() == _TRACE_KEYS:
            dport, sport, time = rec["dport"], rec["sport"], rec["time"]
            dst, reason, src = rec["dst"], rec["reason"], rec["src"]
            stage, switch, verdict = rec["stage"], rec["switch"], rec["verdict"]
            if (type(dport) is int and type(sport) is int and type(time) is int
                    and type(dst) is str and type(reason) is str and type(src) is str
                    and type(stage) is str and type(switch) is str
                    and type(verdict) is str):
                text = self.text
                return _TRACE_RECORD % (
                    dport, text[dst], text[reason], sport, text[src],
                    text[stage], text[switch], time, text[verdict])
        return self.value(rec, indent)

    def rule_entry(self, entry, indent: int) -> str:
        if type(entry) is dict and entry.keys() == _RULE_KEYS:
            action, table = entry["action"], entry["table"]
            if type(action) is str and type(table) is str:
                text = self.text
                return _RULE_ENTRY % (
                    text[action], self.rule_key(entry["key"], indent + 2),
                    self.rule_params(entry["params"], indent + 2), text[table])
        return self.value(entry, indent)

    def rule_key(self, key, indent: int) -> str:
        if type(key) is list and key and _STR.issuperset(map(type, key)):
            return _RULE_KEY % _RULE_KEY_SEP.join(map(self.text.__getitem__, key))
        return self.value(key, indent)

    def rule_params(self, params, indent: int) -> str:
        # exact types, so equal pairs render equal (True == 1, yet not as JSON)
        if _str_keyed(params) and _INT.issuperset(map(type, params.values())):
            pairs = tuple(params.items())
            text = self.params.get(pairs)
            if text is None:
                text = self.params[pairs] = self.value(params, indent)
            return text
        return self.value(params, indent)

    def rule_list(self, entries, indent: int) -> str:
        if type(entries) is list:
            return self.items(entries, indent, self.rule_entry)
        return self.value(entries, indent)

    def member(self, name: str, v, indent: int) -> str:
        """A top-level value; "trace" and "rules" hold the templated shapes."""
        if name == "trace" and type(v) is list:
            return self.items(v, indent, self.trace_record)
        if name == "rules" and _str_keyed(v):
            return self.fields(v, indent, self.rule_list)
        return self.value(v, indent)


def render(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, in one pass."""
    r = _Renderer()
    if not _str_keyed(doc):
        return r.value(doc, 0) + "\n"
    text = r.text
    return _wrap("{", [text[k] + ": " + r.member(k, doc[k], 2) for k in sorted(doc)],
                 0, "}\n")
