"""The one-join report renderer gives exactly the text of
`json.dumps(..., sort_keys=True, indent=2) + "\\n"`, the oracle here, on
every report-shaped value: odd strings, empty containers, and records or
trace rows that do not fit the renderer's templates. It holds little
more than the text it returns."""

import json
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import workload_report
from p4filter.render import TRACE_FIELDS, TraceRows, render
from p4filter.sim import RunReport


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# quote, backslash, control characters, non-ASCII, U+2028 and an astral
# code point, as well as plain names
ODD = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", " ", "\U0001F600"]
names = st.sampled_from(["", "h1", "s1", "10.0.1.2", "Forwarded", *ODD]) | st.text(
    st.sampled_from(ODD) | st.characters(), max_size=6)
scalars = (st.integers() | st.booleans() | st.none() | st.floats() | names)

TRACE_INTS = ("dport", "sport", "time")
TRACE_STRS = ("dst", "reason", "src", "stage", "switch", "verdict")
trace_records = st.fixed_dictionaries({
    **{k: st.integers(0, 2**20) for k in TRACE_INTS},
    **{k: names for k in TRACE_STRS}})
rule_entries = st.fixed_dictionaries({
    "action": names, "table": names,
    "key": st.lists(names, max_size=3),
    # a small pool, so one report holds params equal as Python values
    # (1 == True == 1.0) that differ as JSON
    "params": st.sampled_from([{}, {"port": 1}, {"port": True}, {"port": 1.0},
                               {"pos": 0, "port": 1}, {"port": 1, "pos": 0}])
    | st.dictionaries(names, scalars, max_size=3)})


@st.composite
def mangled(draw, records):
    """A record as generated, or after up to two changes: a key dropped,
    added or renamed, or a value replaced by a bool, a string or any
    scalar."""
    record = draw(records)
    hows = ["drop", "add", "rename", "bool", "str", "any"]
    for how in draw(st.lists(st.sampled_from(hows), max_size=2)):
        key = draw(st.sampled_from(sorted(record) or [""]))
        if how == "drop":
            record.pop(key, None)
        elif how == "rename" and key in record:
            record[draw(names)] = record.pop(key)
        elif how == "add":
            record[draw(names)] = draw(scalars)
        else:
            record[key] = draw({"bool": st.booleans(), "str": names,
                                "any": scalars}[how])
    return record


@st.composite
def trace_rows(draw):
    """A trace row as the simulator writes it, or with up to two of its
    values replaced by a bool, a string or any scalar."""
    record = draw(trace_records)
    row = [record[k] for k in TRACE_FIELDS]
    for i, value in draw(st.lists(st.tuples(
            st.integers(0, len(row) - 1), st.booleans() | names | scalars), max_size=2)):
        row[i] = value
    return tuple(row)


json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(names, inner, max_size=3)
                   | st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=10)

reports = st.builds(
    RunReport,
    scenario=names,
    seed=st.integers(),
    trace=(st.lists(mangled(trace_records), max_size=4)
           | st.lists(trace_rows(), max_size=4).map(TraceRows) | json_values),
    hosts=st.dictionaries(names, st.dictionaries(
        st.sampled_from(["sent", "delivered", "dropped"]), scalars), max_size=3),
    rules=st.dictionaries(names, st.lists(mangled(rule_entries), max_size=6),
                          min_size=1, max_size=3) | json_values,
    sequences=st.dictionaries(names, st.fixed_dictionaries(
        {"knocks": st.lists(st.integers(), max_size=3), "service": st.integers()}),
        max_size=2),
    knock_stages=st.dictionaries(
        names, st.dictionaries(names, st.integers(0, 3), max_size=2), max_size=2),
)


@given(report=reports)
@settings(max_examples=300, deadline=None)
def test_report_text_equals_json_dumps(report):
    assert report.canonical_text() == oracle(report.to_json_dict())


@given(value=json_values)
@settings(max_examples=200, deadline=None)
def test_any_json_value_renders_as_json_dumps(value):
    assert render(value) == oracle(value)


def test_render_holds_little_more_than_its_text():
    """The pieces of the seed-1 stateful_forward report and their one join,
    not further copies of its multi-megabyte trace section."""
    report = workload_report("stateful_forward", 600)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        text = report.canonical_text()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 2.5 * len(text)
