"""Integration tests: split/parallel/join pipeline across engines.

The central invariant — every parallel configuration produces byte-
identical results to the sequential transducer — exercised over the
paper's examples, many chunk counts, and every benchmark dataset.
"""

from __future__ import annotations

import pytest

from repro import GapEngine, PPTransducerEngine, SequentialEngine
from repro.datasets import ALL_DATASETS
from repro.grammar import sample_partial_grammar
from repro.xmlstream import lex
from repro.xpath import build_document, evaluate_offsets

from tests.conftest import FEED_DTD, FEED_XML, RUNNING_DTD, RUNNING_QUERY, RUNNING_XML


class TestRunningExample:
    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 4, 5, 8])
    def test_all_engines_agree(self, n_chunks):
        qs = [RUNNING_QUERY, "//c", "/a/b"]
        seq = SequentialEngine(qs).run(RUNNING_XML)
        pp = PPTransducerEngine(qs).run(RUNNING_XML, n_chunks=n_chunks)
        gap = GapEngine(qs, grammar=RUNNING_DTD).run(RUNNING_XML, n_chunks=n_chunks)
        assert seq.offsets_by_id == pp.offsets_by_id == gap.offsets_by_id

    def test_matches_the_oracle(self):
        doc = build_document(lex(RUNNING_XML))
        seq = SequentialEngine([RUNNING_QUERY]).run(RUNNING_XML)
        assert seq.matches[RUNNING_QUERY] == evaluate_offsets(doc, RUNNING_QUERY)


class TestFeedExample:
    QUERIES = ["/feed/entry/id", "/feed/id", "//id", "/feed/entry[title]/id"]

    @pytest.mark.parametrize("n_chunks", [2, 3, 5])
    def test_figure1_scenario(self, n_chunks):
        seq = SequentialEngine(self.QUERIES).run(FEED_XML)
        gap = GapEngine(self.QUERIES, grammar=FEED_DTD).run(FEED_XML, n_chunks=n_chunks)
        pp = PPTransducerEngine(self.QUERIES).run(FEED_XML, n_chunks=n_chunks)
        assert seq.offsets_by_id == gap.offsets_by_id == pp.offsets_by_id
        doc = build_document(lex(FEED_XML))
        for q in self.QUERIES:
            assert seq.matches[q] == evaluate_offsets(doc, q)


DATASET_QUERIES = {
    "lineitem": ["/table/T/EP", "//T/DS", "/table/T[RF]/TX"],
    "dblp": ["/dp/ar/au", "//dp//ed", "/dp/ar[tit]/jn", "/dp/*[au]/yr"],
    "swissprot": ["/sp/e/rf/ra", "//e[og]/pn", "/sp/e/ft[nm and ds]/fr"],
    "nasa": ["/ds/d/tb/ts/tl/tit", "//ds/d/tit", "/ds/d[tit and al]/r/s/o/au/ln"],
    "protein": ["/pd/pe/r/ri/xs/x/u", "/pd/pe//u", "/pd/pe/r[aci/acs or at]/ri/ats/at"],
    "xmark": ["/s/r/*/item[parent::af]/name", "//k/ancestor::li/t/k", "//li//k"],
}


@pytest.mark.parametrize("name", sorted(ALL_DATASETS))
class TestDatasets:
    def test_parallel_equals_sequential_equals_oracle(self, name, small_documents):
        xml = small_documents[name]
        ds = ALL_DATASETS[name]
        queries = DATASET_QUERIES[name]
        seq = SequentialEngine(queries).run(xml)
        doc = build_document(lex(xml))
        for q in queries:
            assert seq.matches[q] == evaluate_offsets(doc, q), q
        for n_chunks in (3, 7):
            pp = PPTransducerEngine(queries).run(xml, n_chunks=n_chunks)
            gap = GapEngine(queries, grammar=ds.grammar).run(xml, n_chunks=n_chunks)
            assert pp.offsets_by_id == seq.offsets_by_id
            assert gap.offsets_by_id == seq.offsets_by_id

    def test_speculative_partial_grammars_agree(self, name, small_documents):
        xml = small_documents[name]
        ds = ALL_DATASETS[name]
        queries = DATASET_QUERIES[name]
        seq = SequentialEngine(queries).run(xml)
        for fraction in (0.2, 0.4, 0.8):
            partial = sample_partial_grammar(ds.grammar, fraction, seed=3)
            spec = GapEngine(queries, grammar=partial).run(xml, n_chunks=6)
            assert spec.offsets_by_id == seq.offsets_by_id, fraction

    def test_learned_grammar_agrees(self, name, small_documents):
        xml = small_documents[name]
        ds = ALL_DATASETS[name]
        queries = DATASET_QUERIES[name]
        seq = SequentialEngine(queries).run(xml)
        engine = GapEngine(queries)
        engine.learn(ds.generate(scale=0.2, seed=99))  # a *different* prior doc
        res = engine.run(xml, n_chunks=6)
        assert res.offsets_by_id == seq.offsets_by_id


class TestChunkGranularity:
    def test_many_tiny_chunks(self):
        qs = ["/feed/entry/id", "//title"]
        seq = SequentialEngine(qs).run(FEED_XML)
        gap = GapEngine(qs, grammar=FEED_DTD).run(FEED_XML, n_chunks=40)
        assert gap.offsets_by_id == seq.offsets_by_id

    def test_single_chunk_parallel_run(self):
        qs = ["//id"]
        seq = SequentialEngine(qs).run(FEED_XML)
        gap = GapEngine(qs, grammar=FEED_DTD).run(FEED_XML, n_chunks=1)
        assert gap.offsets_by_id == seq.offsets_by_id


class TestWorkerLexOutput:
    """The chunk worker hands the kernel whatever its lexer returns."""

    @pytest.mark.parametrize("trace", [False, True])
    def test_token_iterator_from_the_lexer(self, monkeypatch, trace):
        from repro.obs.tracer import Tracer
        from repro.transducer import pipeline

        qs = [RUNNING_QUERY, "//c"]
        expected = SequentialEngine(qs).run(RUNNING_XML).offsets_by_id
        lex_range = pipeline.lex_range
        if not trace:
            # an unsized iterable, as a wrapped lexer may return; only
            # the traced lex span counts the rows it gets
            monkeypatch.setattr(pipeline, "lex_range",
                                lambda *a: iter(list(lex_range(*a))))
        engine = GapEngine(qs, grammar=RUNNING_DTD,
                           tracer=Tracer() if trace else None)
        result = engine.run(RUNNING_XML, n_chunks=3)
        assert result.offsets_by_id == expected
        lex_spans = engine.tracer.by_name("xmlstream.lex")
        assert [s.args.get("tokens", 0) > 0 for s in lex_spans] == [trace] * (3 if trace else 0)
