"""The one-join report renderer gives exactly the text of
`json.dumps(..., sort_keys=True, indent=2) + "\\n"`, the oracle here, on
every report of the shapes the simulator builds: odd strings in every
string position, negative and large integers, empty containers, and a
trace given as rows or as record dicts. It holds little more than the
text it returns."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_bench, workload_report
from p4filter.render import TRACE_FIELDS, RuleRows, TraceRows
from p4filter.sim import RunReport
from p4filter.tables import _ACTION_PARAM


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# quote, backslash, control characters, non-ASCII, U+2028, an astral code
# point and format directives, as well as plain names
ODD = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", " ", "\U0001F600",
       "%", "%s", "%d", "%%", "{}"]
names = st.sampled_from(["", "h1", "s1", "10.0.1.2", "Forwarded", *ODD]) | st.lists(
    st.sampled_from(ODD) | st.characters(), max_size=6).map("".join)

TRACE_INTS = ("dport", "sport", "time")
trace_records = st.fixed_dictionaries(
    {k: st.integers() if k in TRACE_INTS else names for k in TRACE_FIELDS})
# Table.dump rows: any names for the table and key texts; no data with any
# kind, and an integer only with a kind that takes a parameter. Small pools,
# so one report holds rules of one shape on several switches.
rule_keys = st.lists(names, min_size=1, max_size=3)
rule_rows = (
    st.tuples(names, rule_keys, names, st.none())
    | st.tuples(names, rule_keys,
                st.sampled_from(sorted(k for k, p in _ACTION_PARAM.items() if p)),
                st.sampled_from([0, 1]) | st.integers()))

reports = st.builds(
    RunReport,
    scenario=names,
    seed=st.integers(),
    trace=(st.lists(trace_records, max_size=4)
           | st.lists(trace_records.map(lambda r: tuple(r[k] for k in TRACE_FIELDS)),
                      max_size=4).map(TraceRows)),
    hosts=st.dictionaries(names, st.dictionaries(
        st.sampled_from(["sent", "delivered", "dropped"]), st.integers()), max_size=3),
    rules=st.dictionaries(names, st.lists(rule_rows, max_size=6).map(RuleRows),
                          max_size=3),
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


@pytest.mark.parametrize("name", sorted(load_bench("workloads").GENERATORS))
def test_workload_report_text_equals_json_dumps(name):
    report = workload_report(name, 20)
    assert report.canonical_text() == oracle(report.to_json_dict())


def test_render_holds_little_more_than_its_text():
    """The pieces of a seed-1 report and their one join, not further copies
    of its bulk section: the stateful_forward report is mostly trace, the
    knock_admission one mostly rules."""
    for name, size in [("stateful_forward", 600), ("knock_admission", 300)]:
        report = workload_report(name, size)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            text = report.canonical_text()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured 1.50 (stateful_forward) and 1.47 (knock_admission) on
        # Python 3.11; the rest is headroom for other versions' allocators
        assert peak - before <= 1.75 * len(text), name
