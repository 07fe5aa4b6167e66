"""Unit tests for path policies (baseline and GAP)."""

from __future__ import annotations

import pytest

from repro.core import GapPolicy, infer_feasible_paths
from repro.core.speculative import empty_speculative_table
from repro.grammar import build_syntax_tree, parse_dtd
from repro.transducer.policies import (
    BaselinePolicy,
    ELIMINATE_ALWAYS,
    ELIMINATE_NEVER,
    ELIMINATE_PAPER,
    PathPolicy,
)
from repro.xmlstream import start_tag
from repro.xpath import build_automaton, parse_xpath

from tests.conftest import FEED_DTD


def setup():
    grammar = parse_dtd(FEED_DTD)
    automaton = build_automaton([(0, parse_xpath("/feed/entry/id"))])
    table = infer_feasible_paths(automaton, build_syntax_tree(grammar))
    return automaton, table


class TestBasePolicy:
    def test_defaults_answer_all_states(self):
        automaton, _ = setup()
        policy = PathPolicy(automaton)
        assert policy.start_states(start_tag("id", 0)) is None
        assert policy.pop_candidates("id") is None
        assert policy.before_start("id") is None
        assert policy.before_end("id") is None
        assert policy.all_states == frozenset(range(automaton.n_states))


class TestBaselinePolicy:
    def test_is_pp_transducer_configuration(self):
        automaton, _ = setup()
        policy = BaselinePolicy(automaton)
        assert policy.eliminate == ELIMINATE_NEVER
        assert not policy.switch_to_stack
        assert not policy.speculative
        assert not policy.table_based
        assert policy.pop_candidates("entry") is None  # all of Γ

    def test_fa_pop_candidates_documents_footnote2(self):
        # the FA-only "restriction" contains essentially every state
        automaton, _ = setup()
        for tag in ("feed", "entry", "id"):
            cands = automaton.fa_pop_candidates(tag)
            assert automaton.dead in cands  # the unrelated-tag state


class TestGapPolicy:
    def test_nonspec_from_complete_table(self):
        automaton, table = setup()
        policy = GapPolicy(automaton, table)
        assert not policy.speculative
        assert policy.table_based
        assert policy.switch_to_stack
        assert policy.eliminate == ELIMINATE_PAPER
        # scenario-1/2/3 hooks answer from the table
        assert policy.start_states(start_tag("id", 0)) == table.lookup_start("id")
        assert policy.pop_candidates("id") == table.lookup_start("id")
        assert policy.before_end("id") == table.lookup_end("id")

    def test_speculative_inferred_from_partial_table(self):
        automaton, _ = setup()
        policy = GapPolicy(automaton, empty_speculative_table())
        assert policy.speculative
        assert policy.start_states(start_tag("zz", 0)) is None

    def test_forced_nonspec_with_partial_table_rejected(self):
        automaton, _ = setup()
        with pytest.raises(ValueError):
            GapPolicy(automaton, empty_speculative_table(), speculative=False)

    def test_forced_speculation_with_complete_table(self):
        automaton, table = setup()
        policy = GapPolicy(automaton, table, speculative=True)
        assert policy.speculative

    def test_eliminate_never_disables_all_grammar_use(self):
        automaton, table = setup()
        policy = GapPolicy(automaton, table, eliminate=ELIMINATE_NEVER)
        assert policy.start_states(start_tag("id", 0)) is None
        assert policy.pop_candidates("id") is None
        assert not policy.table_based  # no degraded-lookup counting

    def test_eliminate_always_keeps_table(self):
        automaton, table = setup()
        policy = GapPolicy(automaton, table, eliminate=ELIMINATE_ALWAYS)
        assert policy.before_start("id") == table.lookup_start("id")

    def test_switching_knob(self):
        automaton, table = setup()
        assert not GapPolicy(automaton, table, switch_to_stack=False).switch_to_stack


class TestUnrecognisedPolicy:
    """A policy the kernel cannot compile is refused when the pipeline is built."""

    class PickyPolicy(BaselinePolicy):
        def start_states(self, token):
            return frozenset((self.automaton.initial,))

    def test_pipeline_refuses_subclass(self):
        from repro import EngineError
        from repro.transducer import ParallelPipeline

        automaton, _table = setup()
        with pytest.raises(EngineError, match="PickyPolicy does not compile"):
            ParallelPipeline(automaton, self.PickyPolicy(automaton))

    def test_kernel_refuses_subclass(self):
        from repro import EngineError
        from repro.core import DenseRunner

        automaton, _table = setup()
        with pytest.raises(EngineError, match="PickyPolicy does not compile"):
            DenseRunner(automaton, self.PickyPolicy(automaton))
