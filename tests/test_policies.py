"""Unit tests for the path-policy record (baseline and GAP)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import DenseRunner, infer_feasible_paths, tables_for_policy
from repro.core.speculative import empty_speculative_table
from repro.grammar import build_syntax_tree, parse_dtd
from repro.transducer.policies import (
    ELIMINATE_ALWAYS,
    ELIMINATE_NEVER,
    ELIMINATE_PAPER,
    PathPolicy,
)
from repro.xpath import build_automaton, parse_xpath
from repro.xpath.compile_tables import compiled_tables

from tests.conftest import FEED_DTD


def setup():
    grammar = parse_dtd(FEED_DTD)
    automaton = build_automaton([(0, parse_xpath("/feed/entry/id"))])
    table = infer_feasible_paths(automaton, build_syntax_tree(grammar))
    return automaton, table


class TestPolicyRecord:
    def test_is_frozen_plain_data(self):
        _, table = setup()
        policy = PathPolicy.gap(table)
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.eliminate = ELIMINATE_NEVER
        assert [f.name for f in dataclasses.fields(PathPolicy)] == [
            "table", "eliminate", "switch_to_stack", "speculative"]

    def test_tables_follow_the_record_table(self):
        automaton, table = setup()
        assert tables_for_policy(automaton, PathPolicy.baseline()) is \
            compiled_tables(automaton, None)
        assert tables_for_policy(automaton, PathPolicy.gap(table)) is \
            compiled_tables(automaton, table)

    def test_any_record_compiles(self):
        # no refusal: every record is plain data the kernel reads
        automaton, table = setup()
        policy = PathPolicy(table, ELIMINATE_PAPER, switch_to_stack=False)
        assert DenseRunner(automaton, policy).tables.has_table


class TestBaselinePolicy:
    def test_is_pp_transducer_configuration(self):
        policy = PathPolicy.baseline()
        assert policy == PathPolicy()
        assert policy.table is None
        assert policy.eliminate == ELIMINATE_NEVER
        assert not policy.switch_to_stack
        assert not policy.speculative
        assert not policy.table_based

    def test_fa_pop_candidates_documents_footnote2(self):
        # the FA-only "restriction" contains essentially every state
        automaton, _ = setup()
        for tag in ("feed", "entry", "id"):
            cands = automaton.fa_pop_candidates(tag)
            assert automaton.dead in cands  # the unrelated-tag state


class TestGapPolicy:
    def test_nonspec_from_complete_table(self):
        _, table = setup()
        policy = PathPolicy.gap(table)
        assert policy.table is table
        assert not policy.speculative
        assert policy.table_based
        assert policy.switch_to_stack
        assert policy.eliminate == ELIMINATE_PAPER

    def test_speculative_inferred_from_partial_table(self):
        policy = PathPolicy.gap(empty_speculative_table())
        assert policy.speculative
        assert policy.table_based

    def test_forced_nonspec_with_partial_table_rejected(self):
        with pytest.raises(ValueError):
            PathPolicy.gap(empty_speculative_table(), speculative=False)

    def test_forced_speculation_with_complete_table(self):
        _, table = setup()
        assert PathPolicy.gap(table, speculative=True).speculative

    def test_eliminate_never_disables_all_grammar_use(self):
        _, table = setup()
        policy = PathPolicy.gap(table, eliminate=ELIMINATE_NEVER)
        assert policy.table is table
        assert not policy.table_based  # no degraded-lookup counting

    def test_eliminate_always_keeps_table(self):
        _, table = setup()
        policy = PathPolicy.gap(table, eliminate=ELIMINATE_ALWAYS)
        assert policy.table_based
        assert policy.eliminate == ELIMINATE_ALWAYS

    def test_switching_knob(self):
        _, table = setup()
        assert not PathPolicy.gap(table, switch_to_stack=False).switch_to_stack
