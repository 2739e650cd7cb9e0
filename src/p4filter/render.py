"""The run report's canonical text, written into one list and joined once.

`render(doc)` returns `json.dumps(doc, sort_keys=True, indent=2) + "\\n"`
for a run report's fields as `Simulator._report` builds them. With
`indent` set, json leaves its C encoder, so the bulk sections fill `%`
templates: a `TraceRows` "trace" (`time`, `sport` and `dport` ints, the
rest strings), and the "rules" `Table.dump` entries (strings, a non-empty
list of strings as "key", string names to ints as "params"). The small
sections, and a trace given as a list of record dicts, go through
`json.dumps`. Each distinct string and `params` object is escaped once.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

# The fields of a trace row, in the order the simulator writes them.
TRACE_FIELDS = (
    "time", "switch", "verdict", "stage", "src", "dst", "sport", "dport", "reason")

# A trace record as an item of the top-level "trace" list, at indent 4,
# after its separator; its keys in sorted order.
_TRACE_RECORD = (
    ',\n    {\n'
    '      "dport": %d,\n      "dst": %s,\n      "reason": %s,\n'
    '      "sport": %d,\n      "src": %s,\n      "stage": %s,\n'
    '      "switch": %s,\n      "time": %d,\n      "verdict": %s\n'
    '    }')

# A rule-dump entry as an item of one switch's list under the top-level
# "rules" object, at indent 6, after its separator.
_RULE_ENTRY = (
    ',\n      {\n'
    '        "action": %s,\n'
    '        "key": [\n          %s\n        ],\n'
    '        "params": %s,\n'
    '        "table": %s\n'
    '      }')
# the separator of "key" items and "params" members, at indent 10
_RULE_SEP = ',\n          '


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


def _items(out: list[str], close: str, pieces: list[str]) -> None:
    """Append the list of `pieces`, each led by its "," separator; "[]" if none."""
    if pieces:
        pieces[0] = "[" + pieces[0][1:]
        pieces.append(close)
    out += pieces or ["[]"]


def render(doc: dict) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, joined once, for
    a run report's fields; a `TraceRows` renders as its list of records."""
    text = _Strings()
    params_text = {(): "{}"}   # the text, at indent 8, of each distinct rule "params"
    # json.dumps before the bulk pieces: run after them, it kept one more
    # 1 MiB allocator arena resident once the render returned
    small = {name: json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
             for name, value in doc.items()
             if not (name == "trace" and type(value) is TraceRows or name == "rules" and value)}
    out = []
    for name, value in sorted(doc.items()):
        out.append(("," if out else "{") + "\n  " + text[name] + ": ")
        if name in small:
            out.append(small[name])
        elif name == "trace":
            _items(out, "\n  ]", [_TRACE_RECORD % (
                dport, text[dst], text[reason], sport, text[src],
                text[stage], text[switch], time, text[verdict])
                for time, switch, verdict, stage, src, dst, sport, dport, reason
                in value.rows])
        else:
            for i, switch in enumerate(sorted(value)):
                out.append(("," if i else "{") + "\n    " + text[switch] + ": ")
                entries = []
                for entry in value[switch]:
                    pairs = tuple(entry["params"].items())
                    if pairs not in params_text:
                        params_text[pairs] = "{\n          %s\n        }" % _RULE_SEP.join(
                            "%s: %d" % (text[k], v) for k, v in sorted(pairs))
                    entries.append(_RULE_ENTRY % (
                        text[entry["action"]],
                        _RULE_SEP.join(map(text.__getitem__, entry["key"])),
                        params_text[pairs], text[entry["table"]]))
                _items(out, "\n    ]", entries)
            out.append("\n  }")
    out.append("\n}\n")
    return "".join(out)
