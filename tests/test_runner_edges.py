"""Edge-case tests for the chunk kernel and parallel pipeline.

Exercises the boundary conditions the integration tests only hit by
luck: chunks that begin on end tags or text, single-token chunks,
more chunks than tokens, empty elements at boundaries, and malformed
input flowing through the strict (non-speculative) join.
"""

from __future__ import annotations

import pytest

from repro import GapEngine, PPTransducerEngine, SequentialEngine
from repro.core import DenseRunner, infer_feasible_paths
from repro.grammar import build_syntax_tree, parse_dtd
from repro.transducer import JoinError, PathPolicy
from repro.transducer.pipeline import ParallelPipeline
from repro.xmlstream import lex, lex_range, split_at_offsets, iter_tag_offsets
from repro.xpath import build_automaton, parse_xpath

from tests.conftest import FEED_DTD, FEED_XML


def feed_setup(queries=("/feed/entry/id",)):
    grammar = parse_dtd(FEED_DTD)
    automaton = build_automaton([(i, parse_xpath(q)) for i, q in enumerate(queries)])
    table = infer_feasible_paths(automaton, build_syntax_tree(grammar))
    return automaton, table


class TestChunkStartKinds:
    """A chunk may begin at a start tag, an end tag, or inside text."""

    def offsets_of_kind(self, xml, kind):
        out = []
        for tok in lex(xml):
            if kind == "end" and tok.is_end:
                out.append(tok.offset)
            elif kind == "text" and tok.is_text:
                out.append(tok.offset)
        return out

    @pytest.mark.parametrize("kind", ["end", "text"])
    def test_boundary_on_each_token_kind(self, kind):
        queries = ["/feed/entry/id", "//title"]
        seq = SequentialEngine(queries).run(FEED_XML)
        automaton, table = feed_setup(queries)
        policy = PathPolicy.gap(table)
        pipeline = ParallelPipeline(automaton, policy)
        # place a boundary exactly at each end-tag/text offset
        for boundary in self.offsets_of_kind(FEED_XML, kind):
            if boundary == 0:
                continue
            chunks = split_at_offsets(len(FEED_XML), [boundary])
            # run manually through the pipeline's machinery
            engine = GapEngine(queries, grammar=FEED_DTD)
            # use the public engine with 2 chunks via explicit lexing:
            from repro.transducer.mapping import join_results
            from repro.transducer import WorkCounters
            runner = DenseRunner(automaton, policy, engine.anchor_sids)
            results = []
            for c in chunks:
                start = frozenset({automaton.initial}) if c.index == 0 else None
                results.append(
                    runner.run_chunk(
                        lex_range(FEED_XML, c.begin, c.end), c.index, c.begin, c.end,
                        start_states=start,
                    )
                )

            def reprocess(begin, end, state, stack, skip_end):
                toks = lex_range(FEED_XML, begin, end)
                if skip_end and toks and toks[0].is_end and toks[0].offset == begin:
                    toks = toks[1:]
                return (*runner.run_from(toks, state, stack, WorkCounters()), 0)

            counters = WorkCounters()
            _s, _st, events = join_results(
                (automaton.initial, [], []), results, reprocess, counters, strict=True
            )
            from repro.xpath import apply_filters

            got = apply_filters(engine.compiled, events, engine.anchor_sids)
            assert got == seq.offsets_by_id, f"{kind} boundary at {boundary}"


class TestExtremeChunking:
    def test_boundary_at_every_tag(self):
        queries = ["//id", "/feed/entry[title]/id"]
        seq = SequentialEngine(queries).run(FEED_XML)
        n_tags = sum(1 for _ in iter_tag_offsets(FEED_XML))
        gap = GapEngine(queries, grammar=FEED_DTD).run(FEED_XML, n_chunks=n_tags + 5)
        assert gap.offsets_by_id == seq.offsets_by_id

    def test_pp_with_every_tag_boundary(self):
        queries = ["//id"]
        seq = SequentialEngine(queries).run(FEED_XML)
        n_tags = sum(1 for _ in iter_tag_offsets(FEED_XML))
        pp = PPTransducerEngine(queries).run(FEED_XML, n_chunks=n_tags + 5)
        assert pp.offsets_by_id == seq.offsets_by_id

    def test_empty_elements_at_boundaries(self):
        xml = "<a>" + "<b/>" * 30 + "<c>x</c></a>"
        dtd = "<!ELEMENT a (b*, c)> <!ELEMENT b EMPTY> <!ELEMENT c (#PCDATA)>"
        queries = ["//b", "/a/c"]
        seq = SequentialEngine(queries).run(xml)
        for n in (2, 7, 30):
            gap = GapEngine(queries, grammar=parse_dtd(dtd)).run(xml, n_chunks=n)
            assert gap.offsets_by_id == seq.offsets_by_id, n

    def test_deeply_nested_boundary_mid_descent(self):
        depth = 40
        xml = "".join(f"<l{i}>" for i in range(depth)) + "x" + "".join(
            f"</l{i}>" for i in reversed(range(depth))
        )
        queries = [f"//l{depth - 1}"]
        seq = SequentialEngine(queries).run(xml)
        pp = PPTransducerEngine(queries).run(xml, n_chunks=6)
        assert pp.offsets_by_id == seq.offsets_by_id


class TestMalformedInput:
    def test_nonconforming_document_raises_in_strict_mode(self):
        # an id directly under feed/entry/title is not in the grammar;
        # the non-speculative join detects the contradiction rather
        # than returning silently wrong results
        bad = "<feed><title><id>sneaky</id></title><id>x</id></feed>"
        engine = GapEngine(["/feed/entry/id"], grammar=FEED_DTD)
        with pytest.raises(JoinError):
            engine.run(bad, n_chunks=4)

    def test_speculative_mode_handles_unexpected_structure(self):
        bad = "<feed><weird><id>ok</id></weird><id>x</id></feed>"
        engine = GapEngine(["//id"], grammar=FEED_DTD, mode="spec")
        seq = SequentialEngine(["//id"]).run(bad)
        res = engine.run(bad, n_chunks=4)
        assert res.offsets_by_id == seq.offsets_by_id

    def test_unbalanced_document_fails_loudly(self):
        from repro.transducer import StackUnderflow

        with pytest.raises(StackUnderflow):
            SequentialEngine(["//x"]).run("<a></a></b>")


class TestRunnerDirect:
    def test_single_token_chunk(self):
        automaton, table = feed_setup()
        runner = DenseRunner(automaton, PathPolicy.gap(table))
        toks = list(lex(FEED_XML))
        mid = toks[len(toks) // 2]
        res = runner.run_chunk([mid], 1, mid.offset, mid.offset + 1)
        assert res.cohorts and res.counters.total_tokens == 1

    def test_baseline_empty_chunk_identity(self):
        automaton, _ = feed_setup()
        runner = DenseRunner(automaton, PathPolicy.baseline())
        res = runner.run_chunk([], 2, 10, 10)
        (cohort,) = res.cohorts
        assert len(cohort.segments[0].entries) == automaton.n_states
