"""Tests for DFA minimization (no engine applies it).

An interesting negative result, pinned here: the shared subset
construction is *already minimal* for every benchmark query workload —
distinct sub-query ids make accept signatures distinct, so suffix
sharing cannot merge states.  Minimisation only bites when one
sub-query id unions several paths, which the public rewriting never
produces; :func:`minimize_automaton` stays for hand-built automata
(and as a verified invariant of the construction).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import ALL_DATASETS, TABLE4, dataset_by_name, generate_query_set
from repro.xpath import build_automaton, compile_queries, parse_xpath
from repro.xpath.automaton import minimize_automaton


def automaton_for(queries):
    _, registry = compile_queries(list(queries))
    return build_automaton(registry.automaton_inputs())


class TestMinimization:
    def test_merges_union_under_one_sid(self):
        a = build_automaton([(0, parse_xpath("/a/c")), (0, parse_xpath("/b/c"))])
        m = minimize_automaton(a)
        assert m.n_states < a.n_states

    def test_idempotent(self):
        a = build_automaton([(0, parse_xpath("/a/c")), (0, parse_xpath("/b/c"))])
        m = minimize_automaton(a)
        assert minimize_automaton(m).n_states == m.n_states

    def test_already_minimal_returns_same_object(self):
        a = automaton_for(["/a/b/c"])
        assert minimize_automaton(a) is a

    def test_table4_workloads_already_minimal(self):
        # the pinned negative result (see module docstring)
        for t in TABLE4:
            a = automaton_for([t.query])
            assert minimize_automaton(a).n_states == a.n_states, t.qid

    def test_multi_query_workloads_already_minimal(self):
        ds = dataset_by_name("dblp")
        a = automaton_for(generate_query_set(ds, 40))
        assert minimize_automaton(a).n_states == a.n_states

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_equivalence_on_random_tag_sequences(self, data):
        a = build_automaton(
            [(0, parse_xpath("/a/c")), (0, parse_xpath("/b//c")), (1, parse_xpath("//b/d"))]
        )
        m = minimize_automaton(a)
        tags = data.draw(st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), max_size=12))
        s1, s2 = a.initial, m.initial
        for t in tags:
            s1, s2 = a.step(s1, t), m.step(s2, t)
            assert a.accepts[s1] == m.accepts[s2]
