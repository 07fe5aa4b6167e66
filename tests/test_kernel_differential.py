"""Differential harness: dense kernel ≡ object kernel ≡ DOM oracle.

The dense table-driven chunk kernel (:class:`repro.core.kernel.DenseRunner`)
must be *observationally identical* to the object-graph interpreter
(:class:`tests.object_kernel.ChunkRunner`) — not just on matches but
on every counter the run statistics report (token/path-step/switch/
convergence/divergence accounting), because the stats pages regenerate
the paper's tables from those numbers.  And both must agree with the
DOM reference oracle (:func:`repro.xpath.evaluate_offsets`) on matches.

Three layers of evidence:

* a **seeded corpus sweep** — deterministic documents from fixed finite
  DTDs (one with non-ASCII element names and character data), run
  through every engine configuration (complete grammar, sampled
  partial grammar, no grammar, PP baseline, both ablation knobs)
  across chunk counts 1, 2 and 7;
* a **property-based sweep** — hypothesis-generated grammars, documents
  and queries (reusing the strategies of ``test_properties``), budget
  adjustable via ``REPRO_HYP_MAX_EXAMPLES`` for the nightly CI job;
* a **backend sweep** — serial and thread.

Chunk counts {1, 2, 7} are deliberate: the degenerate single chunk, the
minimal parallel split, and a count that does not divide typical
documents evenly (so chunks start mid-element in varied contexts).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GapEngine, PPTransducerEngine
from repro.core import DenseRunner
from repro.datasets import XMARK, DocumentGenerator, generate_query_set
from repro.grammar import parse_dtd, sample_partial_grammar
from repro.xmlstream import lex
from repro.xpath import build_document, evaluate_offsets

from tests.conftest import non_ascii
from tests.object_kernel import ChunkRunner, object_kernel
from tests.test_properties import documents, queries

CHUNK_COUNTS = (1, 2, 7)

#: nightly CI raises this (see .github/workflows/ci.yml); local default
#: keeps the tier-1 run fast
MAX_EXAMPLES = int(os.environ.get("REPRO_HYP_MAX_EXAMPLES", "15"))

HYP = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: finite DTDs (the document generator requires finitely derivable
#: grammars) with nesting, repetition, choice and dead declarations, as
#: (DTD, queries, transform of each generated document)
CORPUS = [
    (
        "<!ELEMENT a (b+, c)> <!ELEMENT b (c*)> <!ELEMENT c (#PCDATA)>",
        ["/a/b/c", "//c", "//b//c", "//*[b]", "/a/*"],
        None,
    ),
    (
        "<!ELEMENT r (x*, y?)> <!ELEMENT x (y, y)> <!ELEMENT y (#PCDATA)>",
        ["/r/x/y", "//y", "/r/*", "//x[y]"],
        None,
    ),
    (
        "<!ELEMENT m (m | n)*> <!ELEMENT n (#PCDATA)>",
        ["//m/n", "/m//n", "//*"],
        None,
    ),
    (
        "<!ELEMENT été (東京+, 𝔛?)> <!ELEMENT 東京 (ñu*, 𝔛, 東京?)>"
        " <!ELEMENT ñu (#PCDATA)> <!ELEMENT 𝔛 (#PCDATA)>",
        ["//東京/𝔛", "/été/東京//ñu", "//𝔛", "/été/*", "//東京[ñu]"],
        non_ascii,
    ),
]
CORPUS_IDS = ["seq", "nested", "recursive", "non-ascii"]


def corpus_document(grammar, seed, transform=None):
    xml = DocumentGenerator(grammar, seed=seed, max_depth=7,
                            repeat_range=(0, 3)).generate(include_prolog=False)
    return transform(xml) if transform else xml


def configs_for(qs, grammar, partial):
    """The engine configurations under test, as (name, engine factory)."""
    return [
        ("gap", lambda: GapEngine(qs, grammar=grammar)),
        ("gap-partial", lambda: GapEngine(qs, grammar=partial)),
        ("gap-nogrammar", lambda: GapEngine(qs)),
        ("pp", lambda: PPTransducerEngine(qs)),
        ("gap-always", lambda: GapEngine(qs, grammar=grammar, eliminate="always")),
        ("gap-never", lambda: GapEngine(qs, grammar=grammar, eliminate="never")),
        ("gap-noswitch", lambda: GapEngine(qs, grammar=grammar,
                                           switch_to_stack=False)),
    ]


def assert_kernels_equivalent(xml, qs, make_engine, n_chunks, label=""):
    """dense ≡ object on matches, aggregate stats and per-chunk stats."""
    dense = make_engine().run(xml, n_chunks=n_chunks)
    with object_kernel():
        obj = make_engine().run(xml, n_chunks=n_chunks)
    assert dense.matches == obj.matches, (label, n_chunks)
    d, o = dense.stats.counters.as_dict(), obj.stats.counters.as_dict()
    assert d == o, (label, n_chunks, {k: (d[k], o[k]) for k in d if d[k] != o[k]})
    assert [c.as_dict() for c in dense.stats.chunk_counters] == [
        c.as_dict() for c in obj.stats.chunk_counters
    ], (label, n_chunks)
    return dense


def assert_matches_oracle(xml, result, qs, label=""):
    doc = build_document(lex(xml))
    for q in qs:
        assert result.matches[q] == evaluate_offsets(doc, q), (label, q)


class TestOracleSwap:
    def test_object_kernel_replaces_the_dense_kernel(self):
        engine = PPTransducerEngine(CORPUS[0][1])
        assert type(engine._pipeline.chunk_runner()) is DenseRunner
        with object_kernel():
            assert type(engine._pipeline.chunk_runner()) is ChunkRunner
        assert type(engine._pipeline.chunk_runner()) is DenseRunner


class TestSeededCorpus:
    """Deterministic sweep: every config × chunk count × corpus seed."""

    @pytest.mark.parametrize("dtd,qs,transform", CORPUS, ids=CORPUS_IDS)
    def test_dense_equals_object_equals_reference(self, dtd, qs, transform):
        grammar = parse_dtd(dtd)
        partial = sample_partial_grammar(grammar, 0.5, seed=3)
        for seed in range(4):
            xml = corpus_document(grammar, seed, transform)
            for name, make in configs_for(qs, grammar, partial):
                for n in CHUNK_COUNTS:
                    result = assert_kernels_equivalent(
                        xml, qs, make, n, label=(name, seed))
                    assert_matches_oracle(xml, result, qs, label=(name, seed, n))

    def test_speculative_learned_grammar(self):
        """Kernels agree when speculating from a learned partial grammar.

        A tiny prefix-trained learner produces a table that is *wrong*
        about the rest of the document, forcing misspeculation, path
        revival and reprocessing — the hardest code path to mirror.
        """
        grammar = parse_dtd(CORPUS[0][0])
        qs = CORPUS[0][1]
        train = DocumentGenerator(grammar, seed=11, max_depth=7,
                                  repeat_range=(0, 3)).generate(include_prolog=False)
        xml = DocumentGenerator(grammar, seed=12, max_depth=7,
                                repeat_range=(0, 3)).generate(include_prolog=False)

        def make():
            # observing before the first run: the feasible table is
            # built lazily, so it is inferred from the learner's tree
            engine = GapEngine(qs)
            engine.learner.observe_prefix(train, 0.4)
            return engine

        for n in CHUNK_COUNTS:
            result = assert_kernels_equivalent(xml, qs, make, n, label="learned")
            assert_matches_oracle(xml, result, qs, label=("learned", n))


class TestTwoLivePaths:
    """The multi-path phase over long stretches with two paths live.

    On this input GAP keeps exactly two paths live for 92 rows, the
    longest stretch 54 rows: the regime a dedicated two-path loop once
    served, now run by the one multi-path loop.
    """

    def test_two_path_stretches(self):
        qs = generate_query_set(XMARK, 3)
        xml = XMARK.generate(scale=2, seed=0)
        result = assert_kernels_equivalent(
            xml, qs, lambda: GapEngine(qs, grammar=XMARK.grammar), 32,
            label="two-paths")
        assert_matches_oracle(xml, result, qs, label="two-paths")
        counters = result.stats.counters
        assert counters.tree_tokens and counters.tree_path_steps
        assert result.total_matches


class TestPropertyBased:
    """Hypothesis sweep; raise REPRO_HYP_MAX_EXAMPLES for the nightly run."""

    @HYP
    @given(documents(), st.data())
    def test_random_documents_and_queries(self, doc, data):
        grammar, xml = doc
        qs = sorted({data.draw(queries(grammar)) for _ in range(3)})
        partial = sample_partial_grammar(grammar, 0.5, seed=1)
        for name, make in (
            ("gap", lambda: GapEngine(qs, grammar=grammar)),
            ("gap-partial", lambda: GapEngine(qs, grammar=partial)),
            ("pp", lambda: PPTransducerEngine(qs)),
        ):
            for n in CHUNK_COUNTS:
                result = assert_kernels_equivalent(xml, qs, make, n, label=name)
                assert_matches_oracle(xml, result, qs, label=(name, n))


class TestBackends:
    """Kernel equivalence holds on every execution backend."""

    QS = CORPUS[0][1]

    @pytest.fixture(scope="class")
    def workload(self):
        grammar = parse_dtd(CORPUS[0][0])
        return grammar, corpus_document(grammar, 5)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_inline_backends(self, workload, backend):
        grammar, xml = workload
        for n in CHUNK_COUNTS:
            result = assert_kernels_equivalent(
                xml, self.QS,
                lambda: GapEngine(self.QS, grammar=grammar, backend=backend),
                n, label=backend)
            assert_matches_oracle(xml, result, self.QS, label=(backend, n))
