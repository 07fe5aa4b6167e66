"""Unit tests for the sequential pushdown transducer (Definition 1).

The machine is the chunk kernel's single-stack loop, entered through
:meth:`repro.core.kernel.DenseRunner.run_from`.
"""

from __future__ import annotations

from bisect import bisect_left

import pytest

from repro.core import DenseRunner
from repro.transducer import PathPolicy, StackUnderflow, WorkCounters
from repro.xmlstream import lex, lex_range
from repro.xpath import EventKind, build_automaton, parse_xpath

from tests.conftest import RUNNING_QUERY, RUNNING_XML


def make(query_or_queries):
    queries = [query_or_queries] if isinstance(query_or_queries, str) else query_or_queries
    return build_automaton([(i, parse_xpath(q)) for i, q in enumerate(queries)])


def run(a, xml_or_tokens, anchor_sids=frozenset(), state=None, stack=None,
        counters=None):
    """``run_from`` over a document's columns (or given tokens)."""
    tokens = (lex_range(xml_or_tokens, 0, len(xml_or_tokens))
              if isinstance(xml_or_tokens, str) else xml_or_tokens)
    runner = DenseRunner(a, PathPolicy.baseline(), anchor_sids)
    return runner.run_from(
        tokens, a.initial if state is None else state,
        [] if stack is None else stack,
        WorkCounters() if counters is None else counters)


class TestRunningExample:
    """The execution trace of Figure 4-d."""

    def test_trace(self):
        a = make(RUNNING_QUERY)
        # reproduce the state/stack trace token by token
        state = a.initial
        stack: list[int] = []
        expected_depths = []
        for tok in lex(RUNNING_XML):
            if tok.is_start:
                stack.append(state)
                state = a.step(state, tok.name)
            elif tok.is_end:
                state = stack.pop()
            expected_depths.append(len(stack))
        assert state == a.initial  # back to the start after the root closes
        assert stack == []
        assert run(a, RUNNING_XML)[:2] == (state, stack)

    def test_match_at_inner_c(self):
        a = make(RUNNING_QUERY)
        _state, _stack, events = run(a, RUNNING_XML)
        hits = [e for e in events if e.kind == EventKind.HIT]
        assert len(hits) == 1
        # the match is the <c> at line 5 (inside a/b/a)
        assert RUNNING_XML[hits[0].offset :].startswith("<c>y")

    def test_final_configuration(self):
        a = make(RUNNING_QUERY)
        state, stack, _events = run(a, RUNNING_XML)
        assert state == a.initial
        assert stack == []


class TestEventEmission:
    XML = "<a><b>x</b><b><c>y</c></b></a>"

    def test_hits_in_document_order(self):
        a = make(["//b", "//c"])
        offsets = [e.offset for e in run(a, self.XML)[2]]
        assert offsets == sorted(offsets)

    def test_anchor_close_events(self):
        a = make(["/a/b"])
        events = run(a, self.XML, anchor_sids=frozenset({0}))[2]
        kinds = [(e.kind, self.XML[e.offset : e.offset + 4]) for e in events]
        assert kinds == [
            (EventKind.HIT, "<b>x"),
            (EventKind.CLOSE, "</b>"),
            (EventKind.HIT, "<b><"),
            (EventKind.CLOSE, "</b>"),
        ]

    def test_close_only_for_anchors(self):
        a = make(["/a/b"])
        assert all(e.kind == EventKind.HIT for e in run(a, self.XML)[2])

    def test_text_is_plain_transition(self):
        a = make(["/a"])
        assert len(run(a, "<a>one<b>two</b>three</a>")[2]) == 1  # only the <a> hit


class TestResumability:
    def test_run_from_mid_document_context(self):
        a = make("/x/y")
        xml = "<x><y>1</y><y>2</y></x>"
        cols = lex_range(xml, 0, len(xml))
        _s, _st, full = run(a, cols)
        # split at the second <y> (offset 11) and resume with the
        # context the first half ended in
        k = bisect_left(cols.offsets, 11)
        state, stack, first = run(a, cols[:k])
        assert stack  # inside <x>: the second half starts at depth 1
        _s, _st, second = run(a, cols[k:], state=state, stack=stack)
        assert first + second == full

    def test_underflow_raises_with_offset(self):
        a = make("/x/y")
        with pytest.raises(StackUnderflow) as exc:
            run(a, "</x>")
        assert exc.value.offset == 0


class TestCounters:
    def test_counts_all_tokens(self):
        a = make("/a/b")
        c = WorkCounters()
        run(a, "<a><b>x</b><b>y</b></a>", counters=c)
        # 6 tag tokens + 2 text tokens
        assert c.stack_tokens == 8
        assert c.tree_tokens == 0
