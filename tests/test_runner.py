"""Unit tests for the chunk kernel (the parallel-phase engine)."""

from __future__ import annotations

from repro.core import DenseRunner, infer_feasible_paths
from repro.grammar import build_syntax_tree, parse_dtd
from repro.transducer import PathPolicy
from repro.transducer.policies import ELIMINATE_ALWAYS
from repro.xmlstream import lex, lex_range
from repro.xpath import build_automaton, parse_xpath

from tests.conftest import RUNNING_DTD, RUNNING_QUERY, RUNNING_XML


def setup_running():
    grammar = parse_dtd(RUNNING_DTD)
    automaton = build_automaton([(0, parse_xpath(RUNNING_QUERY))])
    table = infer_feasible_paths(automaton, build_syntax_tree(grammar))
    return grammar, automaton, table


def run_chunk(runner, text, begin, end, index=1, **kw):
    return runner.run_chunk(lex_range(text, begin, end), index, begin, end, **kw)


class TestBaselineRunner:
    def test_starts_from_all_states(self):
        _g, automaton, _t = setup_running()
        runner = DenseRunner(automaton, PathPolicy.baseline())
        # second half of the running example, beginning at <b> (offset 10)
        res = run_chunk(runner, RUNNING_XML, 10, len(RUNNING_XML))
        assert res.counters.starting_paths == automaton.n_states

    def test_chunk0_single_start(self):
        _g, automaton, _t = setup_running()
        runner = DenseRunner(automaton, PathPolicy.baseline())
        res = run_chunk(
            runner, RUNNING_XML, 0, 10, index=0,
            start_states=frozenset({automaton.initial}),
        )
        assert res.counters.starting_paths == 1

    def test_divergence_enumerates_all_states(self):
        _g, automaton, _t = setup_running()
        runner = DenseRunner(automaton, PathPolicy.baseline())
        # chunk containing only end tags: "</a></b></a>"
        begin = RUNNING_XML.index("</a>")
        res = run_chunk(runner, RUNNING_XML, begin, len(RUNNING_XML))
        assert res.counters.divergences == 3
        cohort = res.main
        # 4 segments: initial + one per divergence
        assert len(cohort.segments) == 4
        # every post-divergence segment enumerates all of Γ = Q
        for seg in cohort.segments[1:]:
            assert len(seg.entries) == automaton.n_states

    def test_never_switches(self):
        _g, automaton, _t = setup_running()
        runner = DenseRunner(automaton, PathPolicy.baseline())
        res = run_chunk(runner, RUNNING_XML, 0, len(RUNNING_XML), index=0,
                        start_states=frozenset({automaton.initial}))
        assert res.counters.switches == 0
        assert res.counters.stack_tokens == 0
        assert res.counters.tree_tokens > 0


class TestGapRunner:
    def test_scenario1_start_elimination(self):
        _g, automaton, table = setup_running()
        runner = DenseRunner(automaton, PathPolicy.gap(table))
        # chunk starting at the inner <c> (the paper's thread-2 example)
        begin = RUNNING_XML.index("<c>y")
        res = run_chunk(runner, RUNNING_XML, begin, len(RUNNING_XML))
        assert res.counters.starting_paths == len(table.lookup_start("c"))
        assert res.counters.starting_paths < automaton.n_states

    def test_scenario2_divergence_restriction(self):
        _g, automaton, table = setup_running()
        runner = DenseRunner(automaton, PathPolicy.gap(table))
        begin = RUNNING_XML.index("</a>")
        res = run_chunk(runner, RUNNING_XML, begin, len(RUNNING_XML))
        # pop candidates for </a> = feasible states before <a> = {1,3,0}
        seg1 = res.main.segments[1]
        assert set(seg1.entries) <= set(table.lookup_start("a"))

    def test_switches_to_stack_with_single_path(self):
        _g, automaton, table = setup_running()
        runner = DenseRunner(automaton, PathPolicy.gap(table))
        res = run_chunk(runner, RUNNING_XML, 0, len(RUNNING_XML), index=0,
                        start_states=frozenset({automaton.initial}))
        # one path from the start: pure stack mode, no switches needed
        assert res.counters.tree_tokens == 0
        assert res.counters.stack_tokens > 0

    def test_switching_disabled(self):
        _g, automaton, table = setup_running()
        policy = PathPolicy.gap(table, switch_to_stack=False)
        runner = DenseRunner(automaton, policy)
        res = run_chunk(runner, RUNNING_XML, 0, len(RUNNING_XML), index=0,
                        start_states=frozenset({automaton.initial}))
        assert res.counters.stack_tokens == 0

    def test_eager_elimination_counts(self):
        _g, automaton, table = setup_running()
        policy = PathPolicy.gap(table, eliminate=ELIMINATE_ALWAYS)
        runner = DenseRunner(automaton, policy)
        begin = RUNNING_XML.index("<b>")
        res_eager = run_chunk(runner, RUNNING_XML, begin, len(RUNNING_XML))
        # eager mode may only reduce live paths relative to paper mode
        paper = DenseRunner(automaton, PathPolicy.gap(table))
        res_paper = run_chunk(paper, RUNNING_XML, begin, len(RUNNING_XML))
        assert res_eager.counters.tree_path_steps <= res_paper.counters.tree_path_steps

    def test_empty_chunk_identity_mappings(self):
        _g, automaton, table = setup_running()
        runner = DenseRunner(automaton, PathPolicy.gap(table))
        res = runner.run_chunk([], 3, 50, 50)
        (cohort,) = res.cohorts
        (seg,) = cohort.segments
        for key, entry in seg.entries.items():
            assert entry.final_state == key and entry.pushed == ()


class TestSpeculativeRunner:
    def test_degrades_on_unknown_tag(self):
        _g, automaton, _t = setup_running()
        # a partial grammar extracted from data that never contained <c>
        from repro.grammar import extract_syntax_tree

        seen = extract_syntax_tree(lex("<a><b>t</b></a>"))
        table = infer_feasible_paths(automaton, seen, complete=False)
        policy = PathPolicy.gap(table)
        assert policy.speculative
        runner = DenseRunner(automaton, policy)
        begin = RUNNING_XML.index("<c>y")
        res = run_chunk(runner, RUNNING_XML, begin, len(RUNNING_XML))
        assert res.counters.degraded_lookups > 0

    def test_revival_creates_restart_cohorts(self):
        # a table whose entries for 'b' are wrong misses the true path;
        # the next start-tag check revives it as a restart cohort
        _g, automaton, _t = setup_running()
        # learn only a shallow document: <a><b><a><c… never seen depth>2
        from repro.grammar import extract_syntax_tree
        from repro.core import infer_feasible_paths as infer

        shallow = extract_syntax_tree(lex("<a><b><a><c>x</c></a></b><c>z</c></a>"))
        table = infer(automaton, shallow, complete=False)
        policy = PathPolicy.gap(table)
        runner = DenseRunner(automaton, policy)
        # deep document: the chunk starts inside unseen recursion depth
        deep = "<a><b><a><b><a><c>q</c></a></b><c>y</c></a></b><c>z</c></a>"
        begin = deep.index("<c>q")
        res = run_chunk(runner, deep, begin, len(deep))
        # runner completed without error and produced some mapping table
        assert res.cohorts
