"""Differential battery: memoized dense kernel ≡ memo-off ≡ object ≡ oracle.

The structural-repetition memo (:mod:`repro.xpath.subseq`) must be
*observationally invisible*: with ``memo=True`` the dense kernel has to
produce exactly the matches, segments and
:class:`~repro.transducer.counters.WorkCounters` of a ``memo=False``
run, which in turn is pinned to the object kernel and the DOM oracle by
``test_kernel_differential``.  This battery closes the loop on the memo
itself:

* a **seeded corpus sweep** — the same finite DTDs as the kernel
  differential, plus hand-built *repetitive* documents that actually
  engage the memo, across chunk counts 1, 2 and 7;
* a **property-based sweep** — hypothesis-generated grammars/documents/
  queries (``REPRO_HYP_MAX_EXAMPLES`` raises the budget in nightly CI);
* a **backend sweep** — serial and thread (the thread backend
  exercises the shared memo's unlocked-read / batched-flush path from
  concurrent workers);
* **adversarial near-repeats** — rows identical in structure but
  differing in character data must *hit* (the memo's key is
  structural; text is invisible to the single-path fast loop), while a
  brute-forced CRC32-colliding tag-name pair forces a genuine
  ``memo_reject`` (same structural hash, different exact key) without
  corrupting results.

All memo tables go through the process-wide registry so hit/miss/
reject counts are observable via :func:`repro.xpath.memo_info`; the
autouse fixture clears the registry and shrinks ``min_span`` so the
small documents here form qualifying spans.
"""

from __future__ import annotations

import os
import zlib
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GapEngine, PPTransducerEngine
from repro.datasets import dataset_by_name, generate_query_set
from repro.grammar import parse_dtd, sample_partial_grammar
from repro.xmlstream import lex
from repro.xpath import (
    build_document,
    clear_memo_tables,
    evaluate_offsets,
    memo_info,
    set_memo_defaults,
)

from tests.object_kernel import object_kernel
from tests.test_kernel_differential import (
    CHUNK_COUNTS,
    CORPUS,
    CORPUS_IDS,
    corpus_document,
)
from tests.test_properties import documents, queries

MAX_EXAMPLES = int(os.environ.get("REPRO_HYP_MAX_EXAMPLES", "15"))

HYP = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@pytest.fixture(autouse=True)
def memo_sandbox():
    """Fresh registry + small ``min_span`` so tiny documents qualify."""
    prev = set_memo_defaults(min_span=4)
    clear_memo_tables()
    yield
    set_memo_defaults(**prev)
    clear_memo_tables()


def rows_doc(n: int, payload=None) -> str:
    """``n`` structurally identical rows; ``payload`` varies the text."""
    payload = payload or (lambda i: f"v{i}")
    rows = "".join(
        f"<row><a>{payload(i)}</a><b>k</b><c>{payload(n - i)}</c></row>"
        for i in range(n)
    )
    return f"<table>{rows}</table>"


def assert_memo_equivalent(xml, qs, make_engine, n_chunks, label=""):
    """memo-on ≡ memo-off ≡ object kernel, matches and all counters."""
    on = make_engine(True).run(xml, n_chunks=n_chunks)
    off = make_engine(False).run(xml, n_chunks=n_chunks)
    with object_kernel():
        obj = make_engine(False).run(xml, n_chunks=n_chunks)
    assert on.matches == off.matches == obj.matches, (label, n_chunks)
    a = on.stats.counters.as_dict()
    b = off.stats.counters.as_dict()
    c = obj.stats.counters.as_dict()
    assert a == b, (label, n_chunks, {k: (a[k], b[k]) for k in a if a[k] != b[k]})
    assert a == c, (label, n_chunks, {k: (a[k], c[k]) for k in a if a[k] != c[k]})
    assert [x.as_dict() for x in on.stats.chunk_counters] == [
        x.as_dict() for x in off.stats.chunk_counters
    ], (label, n_chunks)
    return on


def assert_matches_oracle(xml, result, qs, label=""):
    doc = build_document(lex(xml))
    for q in qs:
        assert result.matches[q] == evaluate_offsets(doc, q), (label, q)


class TestSeededCorpus:
    """Every kernel-differential corpus entry, memo on vs off vs object."""

    @pytest.mark.parametrize("dtd,qs,transform", CORPUS, ids=CORPUS_IDS)
    def test_memo_invisible_on_corpus(self, dtd, qs, transform):
        grammar = parse_dtd(dtd)
        partial = sample_partial_grammar(grammar, 0.5, seed=3)
        for seed in range(3):
            xml = corpus_document(grammar, seed, transform)
            for name, make in (
                ("gap", lambda m: GapEngine(qs, grammar=grammar, memo=m)),
                ("gap-partial", lambda m: GapEngine(qs, grammar=partial, memo=m)),
                ("gap-nogrammar", lambda m: GapEngine(qs, memo=m)),
                ("pp", lambda m: PPTransducerEngine(qs, memo=m)),
            ):
                for n in CHUNK_COUNTS:
                    result = assert_memo_equivalent(
                        xml, qs, make, n, label=(name, seed))
                    assert_matches_oracle(xml, result, qs, label=(name, seed, n))

    def test_repetitive_document_hits_and_agrees(self):
        """A row-repetitive document actually exercises the hit path."""
        xml = rows_doc(40)
        qs = ["//row/a", "/table/row/c", "//b"]

        def make(memo):
            return GapEngine(qs, memo=memo)

        for n in CHUNK_COUNTS:
            clear_memo_tables()
            result = assert_memo_equivalent(xml, qs, make, n, label="rows")
            assert_matches_oracle(xml, result, qs, label=("rows", n))
        clear_memo_tables()
        GapEngine(qs, memo=True).run(xml, n_chunks=1)
        info = memo_info()
        assert info["hits"] > 0, info

    def test_paper_dataset_lineitem(self):
        """The paper's defining memo workload, end to end."""
        ds = dataset_by_name("lineitem")
        xml = ds.generate(scale=0.5, seed=0)
        qs = generate_query_set(ds, 3)

        def make(memo):
            return GapEngine(qs, grammar=ds.grammar, memo=memo)

        for n in CHUNK_COUNTS:
            clear_memo_tables()
            result = assert_memo_equivalent(xml, qs, make, n, label="lineitem")
            assert_matches_oracle(xml, result, qs, label=("lineitem", n))


class TestPropertyBased:
    """Hypothesis sweep; raise REPRO_HYP_MAX_EXAMPLES for the nightly run."""

    @HYP
    @given(documents(), st.data())
    def test_random_documents_and_queries(self, doc, data):
        grammar, xml = doc
        qs = sorted({data.draw(queries(grammar)) for _ in range(3)})
        clear_memo_tables()
        for name, make in (
            ("gap", lambda m: GapEngine(qs, grammar=grammar, memo=m)),
            ("pp", lambda m: PPTransducerEngine(qs, memo=m)),
        ):
            for n in CHUNK_COUNTS:
                result = assert_memo_equivalent(xml, qs, make, n, label=name)
                assert_matches_oracle(xml, result, qs, label=(name, n))


class TestBackends:
    """Memo invisibility holds on every execution backend.

    The thread backend runs chunks from a worker pool against one
    shared registry memo — the unlocked ``entries.get`` reads and the
    per-chunk ``flush_chunk`` batching happen concurrently here.
    """

    QS = ["//row/a", "//b"]
    XML = rows_doc(30)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_inline_backends(self, backend):
        def make(memo):
            return GapEngine(self.QS, backend=backend, memo=memo)

        for n in CHUNK_COUNTS:
            result = assert_memo_equivalent(
                self.XML, self.QS, make, n, label=backend)
            assert_matches_oracle(self.XML, result, self.QS, label=(backend, n))


# ---------------------------------------------------------------------------
# adversarial near-repeats
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def crc_collision_pair() -> tuple[str, str]:
    """Two distinct tag names with equal CRC32 (brute-forced, deterministic).

    The structural token value is ``(crc32(name) << 2) + kind + 11``,
    so equal CRCs at the same token kind collide exactly; the birthday
    bound puts the first collision near ``sqrt(2^32)`` ≈ 82k names.
    """
    seen: dict[int, str] = {}
    i = 0
    while True:
        name = f"n{i:x}"
        c = zlib.crc32(name.encode())
        if c in seen:
            return seen[c], name
        seen[c] = name
        i += 1


class TestAdversarialNearRepeats:
    def test_text_variant_rows_are_hits_not_rejects(self):
        """Rows differing only in character data share one sequence.

        This is the lineitem shape: the structural key deliberately
        blanks text, so these are *hits* — and the differential assert
        proves the replay is exact despite the differing payloads.
        """
        xml = rows_doc(24, payload=lambda i: "x" * (1 + i % 7))
        qs = ["//row/a", "//c"]

        def make(memo):
            return GapEngine(qs, memo=memo)

        clear_memo_tables()
        result = assert_memo_equivalent(xml, qs, make, 1, label="near-repeat")
        assert_matches_oracle(xml, result, qs, label="near-repeat")
        info = memo_info()
        assert info["hits"] > 0, info
        assert info["rejects"] == 0, info

    def test_attribute_variant_rows_are_hits(self):
        """Attribute bytes shift offsets but not structure: still hits,
        and replayed offsets rebase to each occurrence's real tokens."""
        rows = "".join(
            f'<row id="{i:04d}"><a>p</a><b>q</b><c>r</c></row>'
            for i in range(20)
        )
        xml = f"<table>{rows}</table>"
        qs = ["//row/a", "//row"]

        def make(memo):
            return GapEngine(qs, memo=memo)

        clear_memo_tables()
        result = assert_memo_equivalent(xml, qs, make, 1, label="attr-variant")
        assert_matches_oracle(xml, result, qs, label="attr-variant")
        assert memo_info()["hits"] > 0

    def test_crc_collision_forces_reject(self):
        """A genuine (hash, length) collision is detected and counted.

        Two spans built around CRC32-colliding tag names have equal
        structural hashes and lengths but different exact keys; the
        exact-verification pass must refuse to share an interned id
        (``memo_reject``), intern the collider as its own sequence, and
        keep every result identical to memo-off.
        """
        a, b = crc_collision_pair()
        assert a != b and zlib.crc32(a.encode()) == zlib.crc32(b.encode())
        span_a = f"<{a}><x>1</x><y>2</y></{a}>"
        span_b = f"<{b}><x>1</x><y>2</y></{b}>"
        # each span repeats (so both qualify for interning); the first
        # B occurrence collides with A's bucket and must be rejected
        xml = f"<r>{span_a}{span_a}{span_b}{span_b}</r>"
        qs = ["//x", "//y", f"//{b}/x"]

        def make(memo):
            return GapEngine(qs, memo=memo)

        clear_memo_tables()
        result = assert_memo_equivalent(xml, qs, make, 1, label="crc-collision")
        assert_matches_oracle(xml, result, qs, label="crc-collision")
        info = memo_info()
        assert info["rejects"] >= 1, info
        # the rejected span was interned as its own sequence: its own
        # repeat still hits
        assert info["hits"] > 0, info
