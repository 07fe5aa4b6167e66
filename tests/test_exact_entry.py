"""Exact chunk entry contexts for registered documents.

A registered document records each chunk's open-element path at its
start (:func:`repro.store.docprep.chunk_paths`).  Stepped through a
query set's transition table, a path is the chunk's exact entry
configuration ``(state, stack)``, and every chunk runs the kernel's
single-stack loop from there (``DenseRunner.run_chunk(entry=...)``).
Four properties pin the path down:

* **answers** — exact ≡ DOM oracle ≡ the same engine without paths ≡
  ``SequentialEngine``, over the kernel differential's seeded DTD
  corpus (recursive and non-ASCII grammars among them) and the
  recursive XMark grammar, with predicate anchors open across chunk
  boundaries and value predicates, at 1, 2, 7 and 8 chunks;
* **counters** — equal to a sequential run cut at the same boundaries:
  every row a stack-mode row, no switches, one starting path per chunk,
  and the same events;
* **warm ≡ cold** — decoded paths equal computed ones, and a
  stale-schema or foreign split artifact is a clean miss, recomputed;
* **faults** — with supervision on and a fault plane injected, the
  answers do not change.
"""

from __future__ import annotations

import struct

import pytest

from repro import GapEngine, SequentialEngine
from repro.datasets import ALL_DATASETS
from repro.grammar import parse_dtd
from repro.obs.journal import Journal
from repro.obs.tracer import Tracer
from repro.parallel import RetryPolicy
from repro.service import QueryService, ServiceConfig
from repro.store import ArtifactStore, codec, prepare_xml
from repro.store.codec import SCHEMAS
from repro.store.docprep import chunk_paths, content_key
from repro.transducer.counters import WorkCounters
from repro.transducer.mapping import JoinError
from repro.transducer.pipeline import ParallelPipeline, run_sequential_pipeline
from repro.transducer.policies import BaselinePolicy
from repro.xmlstream import lex
from repro.xmlstream.chunking import split_chunks
from repro.xmlstream.lexer import lex_range
from repro.xpath import build_document, evaluate_offsets

from tests.conftest import non_ascii
from tests.test_kernel_differential import CORPUS, CORPUS_IDS, corpus_document

CHUNK_COUNTS = (1, 2, 7, 8)

XMARK = ALL_DATASETS["xmark"]

#: predicates on the recursive ``li`` and on ``item``/``t``, whose
#: anchors stay open across chunk boundaries at these widths
XMARK_QUERIES = [
    "//li//t", "//li[t]/li", "//item[d]/name", "//d//li[li]//k",
    "/s/r/af/item/name", "//t[k]//b", "//item[mb]//m",
]


def xmark_document(seed: int, transform=None) -> tuple[str, list[str]]:
    """An XMark document and its queries, two with value predicates on
    a name the document holds."""
    xml = XMARK.generate(scale=0.6, seed=seed)
    if transform is not None:
        xml = transform(xml)
    first = xml.index("<name>") + len("<name>")
    value = xml[first:xml.index("</name>", first)]
    return xml, XMARK_QUERIES + [f"//item[name = '{value}']/mb",
                                 f"//item[name != '{value}']/d"]


def exact_run(engine, xml, n_chunks):
    chunks, toks, paths = prepare_xml(None, xml, n_chunks)
    return engine.run(xml, chunks=chunks, chunk_tokens=toks, chunk_paths=paths)


def assert_exact_equals_oracle(grammar, xml, qs, label):
    doc = build_document(lex(xml))
    seq = SequentialEngine(qs).run(xml)
    for n in CHUNK_COUNTS:
        chunks, toks, paths = prepare_xml(None, xml, n)
        engine = GapEngine(qs, grammar=grammar)
        exact = engine.run(xml, chunks=chunks, chunk_tokens=toks, chunk_paths=paths)
        assert engine._table is None, "the exact path inferred the feasible table"
        gap = GapEngine(qs, grammar=grammar).run(xml, chunks=chunks, chunk_tokens=toks)
        for q in qs:
            oracle = evaluate_offsets(doc, q)
            assert exact.matches[q] == oracle, (label, n, q)
            assert gap.matches[q] == oracle, (label, n, q)
            assert seq.matches[q] == oracle, (label, n, q)


class TestExactEqualsOracle:
    @pytest.mark.parametrize("dtd,qs,transform", CORPUS, ids=CORPUS_IDS)
    def test_seeded_corpus(self, dtd, qs, transform):
        grammar = parse_dtd(dtd)
        for seed in range(3):
            xml = corpus_document(grammar, seed, transform)
            assert_exact_equals_oracle(grammar, xml, qs, (dtd[:20], seed))

    @pytest.mark.parametrize("transform", [None, non_ascii], ids=["ascii", "non-ascii"])
    def test_xmark_recursive_grammar(self, transform):
        for seed in (1, 2):
            xml, qs = xmark_document(seed, transform)
            assert_exact_equals_oracle(XMARK.dtd, xml, qs, ("xmark", seed))

    def test_anchors_open_across_chunk_boundaries(self):
        """The predicate anchors of the XMark queries are exercised where
        they open in one chunk and close in a later one."""
        xml, _qs = xmark_document(1)
        open_at_cuts = {name for n in CHUNK_COUNTS
                        for path in prepare_xml(None, xml, n)[2] for name in path}
        assert {"item", "li", "d", "t"} <= open_at_cuts

    def test_without_grammar(self):
        """Exact entries need no feasible table: a speculative engine
        answers exactly as well."""
        xml, qs = xmark_document(3)
        doc = build_document(lex(xml))
        for n in CHUNK_COUNTS:
            result = exact_run(GapEngine(qs), xml, n)
            assert result.stats.counters.misspeculations == 0
            for q in qs:
                assert result.matches[q] == evaluate_offsets(doc, q), (n, q)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_backends(self, backend):
        xml, qs = xmark_document(4)
        want = SequentialEngine(qs).run(xml).matches
        with GapEngine(qs, grammar=XMARK.dtd, backend=backend) as engine:
            assert exact_run(engine, xml, 7).matches == want


class TestCountersEqualSequentialCut:
    @pytest.mark.parametrize("n_chunks", CHUNK_COUNTS)
    def test_counters_and_events(self, n_chunks):
        xml, qs = xmark_document(5)
        engine = GapEngine(qs, grammar=XMARK.dtd)
        automaton = engine.automaton
        pipeline = ParallelPipeline(automaton, BaselinePolicy(automaton),
                                    engine.anchor_sids)
        chunks, toks, paths = prepare_xml(None, xml, n_chunks)

        # the sequential transducer, cut at the same chunk boundaries
        runner = pipeline.chunk_runner()
        state, stack = automaton.initial, []
        cut_entries, cut_rows, cut_events = [], [], []
        for cols in toks:
            cut_entries.append((state, tuple(stack)))
            counters = WorkCounters()
            state, stack, events = runner.run_from(cols, state, stack, counters)
            cut_rows.append(counters.stack_tokens)
            cut_events += events

        assert pipeline._entries(paths) == tuple(cut_entries)
        run = pipeline.run(xml, n_chunks, chunks=chunks, chunk_tokens=toks,
                           chunk_paths=paths)
        assert run.events == cut_events
        assert run.events == run_sequential_pipeline(
            xml, automaton, engine.anchor_sids).events
        assert run.final_state == state
        assert [c.stack_tokens for c in run.chunk_counters] == cut_rows
        assert cut_rows == [len(cols) for cols in toks]
        for c in run.chunk_counters:
            assert (c.chunks, c.starting_paths, c.switches, c.tree_tokens,
                    c.divergences, c.mapping_entries) == (1, 1, 0, 0, 0, 1)

        summary = exact_run(engine, xml, n_chunks).stats.summary()
        assert summary["avg_starting_paths"] == 1.0
        assert summary["switches"] == 0.0
        assert summary["tree_tokens"] == 0.0

    def test_journal_spawns_one_known_path_per_chunk(self):
        xml, qs = xmark_document(5)
        journal = Journal()
        exact_run(GapEngine(qs, grammar=XMARK.dtd, journal=journal), xml, 7)
        spawns = [(ev.chunk, ev.args["reason"], ev.args["live"])
                  for ev in journal.by_kind("path_spawn")]
        assert spawns == [(k, "initial", 1) for k in range(7)]
        assert journal.by_kind("switch") == []

    def test_paths_of_another_document_fail_the_join(self):
        xml, qs = xmark_document(6)
        chunks, toks, paths = prepare_xml(None, xml, 4)
        # one element too deep from chunk 1 on: no chunk underflows, but
        # chunk 0 ends where chunk 1 does not start
        wrong = (paths[0],) + tuple(path + ("li",) for path in paths[1:])
        with pytest.raises(JoinError):
            GapEngine(qs, grammar=XMARK.dtd).run(
                xml, chunks=chunks, chunk_tokens=toks, chunk_paths=wrong)

    def test_paths_need_one_per_chunk(self):
        xml, qs = xmark_document(6)
        chunks, toks, paths = prepare_xml(None, xml, 4)
        with pytest.raises(ValueError):
            GapEngine(qs).run(xml, chunks=chunks, chunk_paths=paths[:-1])


def _v1_split_payload(chunks) -> bytes:
    """A split artifact as schema 1 wrote it: chunk rows, no paths."""
    out = struct.pack("<I", len(chunks))
    for c in chunks:
        out += struct.pack("<IQQ", c.index, c.begin, c.end)
    return out


class TestWarmEqualsCold:
    def test_decoded_paths_equal_computed(self, tmp_path):
        xml, _qs = xmark_document(7)
        store = ArtifactStore(str(tmp_path))
        cold = prepare_xml(store, xml, 8)
        tracer = Tracer()
        warm = prepare_xml(store, xml, 8, tracer=tracer)
        assert warm == cold
        chunks = split_chunks(xml, 8)
        computed = chunk_paths(tuple(lex_range(xml, c.begin, c.end) for c in chunks))
        assert warm[2] == computed and computed[0] == ()
        assert tracer.spans == []  # nothing was recomputed
        assert store.counters()["hits"] == 2
        assert store.counters()["invalid"] == 0

    def test_stale_schema_is_a_clean_miss(self, tmp_path, monkeypatch):
        xml, _qs = xmark_document(7)
        fresh = prepare_xml(None, xml, 4)
        store = ArtifactStore(str(tmp_path))
        with monkeypatch.context() as mp:
            mp.setitem(SCHEMAS, "split", 1)
            store.put("split", content_key(xml, 4), _v1_split_payload(fresh[0]))
        assert prepare_xml(store, xml, 4) == fresh
        assert store.counters()["invalid"] == 1
        # recomputed and republished under the current schema
        assert prepare_xml(store, xml, 4) == fresh
        assert store.counters()["invalid"] == 1

    @pytest.mark.parametrize("foreign", ["other-document", "chunk-0-path"])
    def test_foreign_artifact_is_a_clean_miss(self, tmp_path, foreign):
        xml, _qs = xmark_document(7)
        fresh = prepare_xml(None, xml, 4)
        if foreign == "other-document":
            other = prepare_xml(None, xmark_document(8)[0], 4)
            payload = codec.encode_chunks(other[0], other[2])
        else:
            payload = codec.encode_chunks(fresh[0], (("s",),) + fresh[2][1:])
        store = ArtifactStore(str(tmp_path))
        store.put("split", content_key(xml, 4), payload)
        assert prepare_xml(store, xml, 4) == fresh
        assert store.counters()["invalid"] == 1


class TestFaultsDoNotChangeAnswers:
    FAULTS = "chunk:2:raise,chunk:5:corrupt:times=inf,chunk:3:hang:delay=2"

    def test_engine_with_fault_plane(self):
        xml, qs = xmark_document(9)
        want = SequentialEngine(qs).run(xml).matches
        policy = RetryPolicy(max_retries=1, chunk_timeout=0.5,
                             backoff_base=0.001, backoff_max=0.01)
        with GapEngine(qs, grammar=XMARK.dtd, backend="thread",
                       resilience=policy, faults=self.FAULTS) as engine:
            result = exact_run(engine, xml, 8)
        assert result.matches == want
        counters = result.stats.counters
        assert counters.retries > 0 and counters.timeouts > 0
        assert counters.fallbacks > 0

    def test_service_with_supervision(self, monkeypatch):
        xml, qs = xmark_document(9)
        want = SequentialEngine(qs).run(xml).matches
        monkeypatch.setenv("REPRO_FAULTS", self.FAULTS)
        config = ServiceConfig(backend="thread", n_chunks=8, workers=2,
                               collector=False, chunk_timeout=0.5, max_retries=1)
        with QueryService(config) as svc:
            doc = svc.register(xml, grammar=XMARK.dtd)
            response = svc.query(doc.doc_id, qs)
        assert response["matches"] == want
        assert response["stats"]["fallbacks"] > 0
        assert response["stats"]["avg_starting_paths"] == 1.0
