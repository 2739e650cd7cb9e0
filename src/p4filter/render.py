"""The run report's canonical text, written into one list and joined once.

`render(doc)` returns `json.dumps(doc, sort_keys=True, indent=2) + "\\n"`
for a run report's fields as `Simulator._report` builds them. With
`indent` set, json leaves its C encoder, so the bulk sections are written
from rows. Each `TraceRows` record adds nine shared pieces: a constant
head, the texts of its `dport`, `sport` and `time` from a memo of each
distinct int, the `"src"` key and its escaped value, and three segments
escaped once per distinct (switch, verdict, stage, dst, reason) shape.
Each switch's `RuleRows` under "rules" holds `Table.dump` rows; every
distinct (table, action kind, data) shape gets the text of its entries
before and after the key once, and each rule is that head, its escaped
key texts and that tail. Pieces are joined by concatenation, so no name
is read as a format directive. The small sections, and a trace given as
a list of record dicts, go through `json.dumps`. Each distinct string is
escaped once, and no output walks a memo, so the text never depends on
the hash seed.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from .tables import Action

# The fields of a trace row, in the order the simulator writes them.
TRACE_FIELDS = (
    "time", "switch", "verdict", "stage", "src", "dst", "sport", "dport", "reason")

# A trace record as an item of the top-level "trace" list, at indent 4,
# after its separator, its keys in sorted order: this head, the dport
# text, the record's shape's first segment, the sport text, `_SRC`, the
# escaped src, the second segment, the time text and the last segment.
_TRACE_HEAD = ',\n    {\n      "dport": '
_SRC = ',\n      "src": '

# the separator of a rule entry's "key" items and "params" members, at indent 10
_RULE_SEP = ',\n          '


class _Rows(Sequence):
    """A read-only view over a list of row tuples that yields each row as a
    fresh record dict, built by the subclass's `record`."""

    def __init__(self, rows: list[tuple]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> dict:
        return self.record(self.rows[operator.index(i)])

    def __iter__(self):
        return map(self.record, self.rows)

    def __eq__(self, other):
        # so reports compare as they did when these were lists of dicts
        if type(other) is type(self):
            return self.rows == other.rows
        return list(self) == other if type(other) is list else NotImplemented


class TraceRows(_Rows):
    """The simulator's trace: one tuple of `TRACE_FIELDS` per switch pass,
    each read as a dict with the keys in that order."""

    @staticmethod
    def record(row: tuple) -> dict:
        return dict(zip(TRACE_FIELDS, row))


class RuleRows(_Rows):
    """One switch's installed rules: its tables' `Table.dump` rows, one
    `(table, key texts, action kind, data)` tuple per rule, each read as a
    `{"table", "key", "action", "params"}` dict."""

    @staticmethod
    def record(row: tuple) -> dict:
        table, key, kind, data = row
        return {"table": table, "key": list(key), "action": kind,
                "params": Action(kind, data).params}


class _Strings(dict):
    """The JSON text of each distinct string, escaped on first use."""

    def __missing__(self, s: str) -> str:
        text = self[s] = encode_basestring_ascii(s)
        return text


class _Ints(dict):
    """The JSON text of each distinct int, written on first use."""

    def __missing__(self, i: int) -> str:
        text = self[i] = "%d" % i
        return text


class _TraceShapes(dict):
    """The three segments of a trace record of each distinct (switch,
    verdict, stage, dst, reason) shape, escaped on first use: the text
    after its dport, after its src and after its time."""

    def __init__(self, text: _Strings):
        self.text = text

    def __missing__(self, shape: tuple) -> tuple[str, str, str]:
        switch, verdict, stage, dst, reason = shape
        text = self.text
        segments = self[shape] = (
            ',\n      "dst": ' + text[dst] + ',\n      "reason": ' + text[reason]
            + ',\n      "sport": ',
            ',\n      "stage": ' + text[stage] + ',\n      "switch": ' + text[switch]
            + ',\n      "time": ',
            ',\n      "verdict": ' + text[verdict] + '\n    }')
        return segments


def _close_list(out: list[str], start: int, close: str) -> None:
    """Make the pieces from `out[start]` on a list, its items each led by a
    "," separator: the first one's becomes "["; "[]" if there are none."""
    if len(out) > start:
        out[start] = "[" + out[start][1:]
        out.append(close)
    else:
        out.append("[]")


def _rule_shape(text: _Strings, table: str, kind: str, data) -> tuple[str, str]:
    """The text of a rule entry of one (table, kind, data) shape, as an item
    of a switch's rules list at indent 6, before its key texts and after."""
    params = Action(kind, data).params
    params_text = ("{\n          " + _RULE_SEP.join(
        text[name] + ": %d" % value for name, value in sorted(params.items()))
        + "\n        }") if params else "{}"
    return (',\n      {\n        "action": ' + text[kind] + ',\n        "key": [\n          ',
            '\n        ],\n        "params": ' + params_text
            + ',\n        "table": ' + text[table] + '\n      }')


def render(doc: dict) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, joined once, for
    a run report's fields; a `TraceRows` renders as its list of records, and
    each switch's `RuleRows` as its list of rules."""
    text = _Strings()
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
            # A record's switch, verdict, stage, dst and reason come from
            # the topology and a fixed vocabulary, so few shapes cover a
            # run; its src and ints may differ on every row.
            ints, shapes, start = _Ints(), _TraceShapes(text), len(out)
            for time, switch, verdict, stage, src, dst, sport, dport, reason in value.rows:
                after_dport, after_src, after_time = shapes[switch, verdict, stage, dst, reason]
                out += (_TRACE_HEAD, ints[dport], after_dport, ints[sport], _SRC, text[src],
                        after_src, ints[time], after_time)
            _close_list(out, start, "\n  ]")
        else:
            shapes = {}   # (table, kind, data) -> the head and tail of its entries
            key_text = text.__getitem__
            for i, switch in enumerate(sorted(value)):
                out.append(("," if i else "{") + "\n    " + text[switch] + ": ")
                start = len(out)
                for table, key, kind, data in value[switch].rows:
                    shape = shapes.get((table, kind, data))
                    if shape is None:
                        shape = shapes[table, kind, data] = _rule_shape(
                            text, table, kind, data)
                    out += (shape[0], _RULE_SEP.join(map(key_text, key)), shape[1])
                _close_list(out, start, "\n    ]")
            out.append("\n  }")
    out.append("\n}\n")
    return "".join(out)
