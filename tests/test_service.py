"""The query service: registry, admission, batching equivalence, lifecycle.

Pins the serving-layer contracts of :mod:`repro.service`:

* **registry** — content-hash idempotence, the document bound
  (:class:`RegistryFull`), kind sniffing, and cached preparation
  (chunk list + pre-lexed tokens);
* **admission control** — a full queue rejects synchronously with
  :class:`QueueFull`, a closed service with :class:`ServiceClosed`,
  and both are counted in ``/metrics``;
* **deadlines** — an expired request fails with
  :class:`DeadlineExceeded` at dispatch without costing an execution;
* **batching equivalence** (the oracle property) — a merged-automaton
  pass answering several requests at once returns, for every request,
  exactly the matches an independent per-query engine returns, across
  serial and thread backends and for XML and JSON documents; a real
  backlog behind a held worker is answered by exactly one merged pass
  per document;
* **dispatch on arrival** — a lone request does not wait for
  companions, ``close()`` fails the queued backlog while the running
  pass finishes, and the batch window knob is gone;
* **lifecycle** — N sequential requests do not grow the process
  thread count (warm engines share the one service-owned backend and
  never close it), and shutdown releases everything exactly once;
* **HTTP** — register/query/metrics/journal/shutdown end-to-end over
  a real socket on an ephemeral port.
"""

from __future__ import annotations

import itertools
import threading
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GapEngine
from repro.datasets import ALL_DATASETS, generate_query_set
from repro.service import (
    DeadlineExceeded,
    DocumentRegistry,
    QueryClient,
    QueryService,
    QueueFull,
    RegistryFull,
    Request,
    ServiceClosed,
    ServiceConfig,
    ServiceError,
    UnknownDocument,
    serve,
)
from repro.transducer.mapping import StackUnderflow
from repro.xpath import memo_info

from tests.conftest import FEED_DTD, FEED_XML, RUNNING_DTD, RUNNING_QUERY, RUNNING_XML

JSON_DOC = (
    '{"feed": {"entry": [{"id": 1, "title": "a"}, {"title": "b"},'
    ' {"id": 3, "tags": ["x", "y"]}], "id": 99}}'
)

#: (grammar, document, query pool) corpora for the equivalence property
CORPORA = [
    (RUNNING_DTD, RUNNING_XML, [RUNNING_QUERY, "//c", "/a/c", "//b//c", "/a/*"]),
    (FEED_DTD, FEED_XML,
     ["/feed/entry/title", "//id", "/feed/id", "//title", "/feed/entry[id]/title"]),
    (None, JSON_DOC, ["//id", "//title", "//tags", "/json/feed/id"]),
]


def small_config(**overrides) -> ServiceConfig:
    defaults = dict(backend="serial", n_chunks=4, workers=2)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture
def service():
    with QueryService(small_config()) as svc:
        yield svc


def oracle_matches(text, grammar, query, n_chunks=4):
    """What an independent single-query engine returns for ``query``."""
    engine = GapEngine([query], grammar=grammar, n_chunks=n_chunks, backend="serial")
    try:
        if text.lstrip()[:1] in ("{", "["):
            from repro.jsonstream import tokenize_json

            return list(engine.run_tokens(tokenize_json(text)).matches[query])
        return list(engine.run(text).matches[query])
    finally:
        engine.close()


def gate_first_pass(monkeypatch) -> SimpleNamespace:
    """Hold the first merged pass of any service until ``release`` is set.

    With one worker, requests submitted while the pass is held build a
    real backlog that the worker drains when it is released.
    """
    gate = SimpleNamespace(entered=threading.Event(), release=threading.Event())
    original = QueryService._execute_group

    def gated(self, doc_id, group):
        if not gate.entered.is_set():
            gate.entered.set()
            assert gate.release.wait(30.0), "gate never released"
        return original(self, doc_id, group)

    monkeypatch.setattr(QueryService, "_execute_group", gated)
    return gate


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_idempotent_on_identical_content(self):
        reg = DocumentRegistry()
        a = reg.register(RUNNING_XML, grammar=RUNNING_DTD, n_chunks=4)
        b = reg.register(RUNNING_XML, grammar=RUNNING_DTD, n_chunks=4)
        assert a is b and len(reg) == 1

    def test_distinct_ids_for_distinct_preparation(self):
        reg = DocumentRegistry()
        a = reg.register(RUNNING_XML, grammar=RUNNING_DTD, n_chunks=4)
        b = reg.register(RUNNING_XML, grammar=RUNNING_DTD, n_chunks=8)
        c = reg.register(RUNNING_XML, n_chunks=4)
        assert len({a.doc_id, b.doc_id, c.doc_id}) == 3

    def test_bound_refuses_with_registry_full(self):
        reg = DocumentRegistry(max_documents=1)
        reg.register(RUNNING_XML)
        with pytest.raises(RegistryFull):
            reg.register(FEED_XML)
        # identical content is still accepted (idempotent hit, not growth)
        assert reg.register(RUNNING_XML).doc_id

    def test_unknown_document(self):
        reg = DocumentRegistry()
        with pytest.raises(UnknownDocument):
            reg.get("no-such-doc")
        with pytest.raises(UnknownDocument):
            reg.remove("no-such-doc")

    def test_remove(self):
        reg = DocumentRegistry()
        rec = reg.register(RUNNING_XML)
        reg.remove(rec.doc_id)
        assert len(reg) == 0

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            DocumentRegistry().register("")

    def test_xml_preparation_is_cached(self):
        rec = DocumentRegistry().register(
            FEED_XML, grammar=FEED_DTD, n_chunks=4
        )
        assert rec.kind == "xml" and rec.grammar is not None
        assert rec.chunks and rec.chunk_tokens is not None
        assert len(rec.chunk_tokens) == len(rec.chunks)
        # the pre-lexed tuples partition the sequential token stream
        from repro.xmlstream.lexer import lex

        flat = [t for chunk in rec.chunk_tokens for t in chunk]
        assert flat == list(lex(FEED_XML))

    def test_malformed_document_rejected_at_registration(self):
        """An end tag that closes more elements than are open fails the
        registration, not every later query."""
        reg = DocumentRegistry()
        for n_chunks in (1, 2, 3):
            with pytest.raises(StackUnderflow, match="at offset 22"):
                reg.register("<r><a><b/></a></a><a/></r>", n_chunks=n_chunks)
        assert len(reg) == 0

    def test_unclosed_document_registers_and_answers(self, service):
        doc = service.register("<r><a><b/></a><a>", n_chunks=2)
        assert doc.chunk_paths[0] == ()
        response = service.query(doc.doc_id, ["//a", "//b", "/r/a/b"])
        assert response["matches"] == {"//a": [3, 14], "//b": [6], "/r/a/b": [6]}

    def test_documents_share_one_grammar(self):
        reg = DocumentRegistry()
        a = reg.register(FEED_XML, grammar=FEED_DTD, n_chunks=4)
        b = reg.register(FEED_XML + " ", grammar=FEED_DTD, n_chunks=4)
        c = reg.register(FEED_DTD + FEED_XML, n_chunks=4)  # inline DOCTYPE
        d = reg.register(FEED_DTD + FEED_XML + " ", n_chunks=4)
        assert a.grammar is b.grammar and a.grammar_key == b.grammar_key
        assert c.grammar is d.grammar and c.grammar_key == d.grammar_key
        assert reg.register(FEED_XML).grammar_key == ""
        reg.remove(a.doc_id)
        assert reg.get(b.doc_id).grammar is b.grammar

    def test_inline_doctype_grammar(self):
        rec = DocumentRegistry().register(RUNNING_DTD + RUNNING_XML)
        assert rec.grammar is not None and rec.grammar.is_complete

    def test_json_kind_tokenises_once(self):
        from repro.jsonstream import tokenize_json

        rec = DocumentRegistry().register(JSON_DOC, n_chunks=4)
        assert rec.kind == "json" and rec.decoder is not None
        # one tokenisation, cut into the chunks a request runs
        assert [t for cols in rec.chunk_tokens for t in cols] == tokenize_json(JSON_DOC)
        assert len(rec.chunk_tokens) == len(rec.chunk_paths) == 4
        assert rec.chunk_paths[0] == () and rec.chunk_paths[1][0] == "json"
        assert rec.describe()["chunks"] == 4


# ---------------------------------------------------------------------------
# admission control + deadlines
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_queue_full_rejects_synchronously(self):
        # scheduler deliberately NOT started: the queue can only fill
        svc = QueryService(small_config(max_queue=2))
        try:
            doc = svc.register(RUNNING_XML, grammar=RUNNING_DTD)
            svc.submit(doc.doc_id, ["//c"])
            svc.submit(doc.doc_id, ["//c"])
            with pytest.raises(QueueFull):
                svc.submit(doc.doc_id, ["//c"])
            assert 'status="rejected"} 1' in svc.metrics_text()
        finally:
            svc.close()

    def test_unknown_document_fails_fast(self, service):
        with pytest.raises(UnknownDocument):
            service.submit("no-such-doc", ["//c"])

    def test_empty_query_list_rejected(self, service):
        doc = service.register(RUNNING_XML)
        with pytest.raises(ValueError):
            service.submit(doc.doc_id, [])

    def test_closed_service_rejects(self):
        svc = QueryService(small_config()).start()
        doc = svc.register(RUNNING_XML)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(doc.doc_id, ["//c"])

    def test_queued_requests_fail_on_close(self):
        svc = QueryService(small_config())  # never started: nothing drains
        doc = svc.register(RUNNING_XML)
        future = svc.submit(doc.doc_id, ["//c"])
        svc.close()
        with pytest.raises(ServiceClosed):
            future.result(timeout=5.0)

    def test_expired_request_fails_without_execution(self, service):
        doc = service.register(RUNNING_XML, grammar=RUNNING_DTD)
        future = service.submit(doc.doc_id, ["//c"], deadline=-0.001)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=5.0)
        text = service.metrics_text()
        assert 'status="expired"} 1' in text
        # the expiry cost no merged pass (counter lazily created, so
        # either absent entirely or still zero)
        batches = [
            line for line in text.splitlines()
            if line.startswith("repro_service_batches_total")
        ]
        assert batches in ([], ["repro_service_batches_total 0"])

    def test_request_without_deadline_completes(self):
        with QueryService(small_config(default_deadline=None)) as svc:
            doc = svc.register(RUNNING_XML, grammar=RUNNING_DTD)
            response = svc.query(doc.doc_id, ["//c"])
        assert response["counts"]["//c"] == 2


# ---------------------------------------------------------------------------
# batching equivalence (the oracle property)
# ---------------------------------------------------------------------------


def batch_case():
    """Strategy: one corpus + 1..5 requests of 1..3 queries each."""
    def build(draw):
        grammar, text, pool = draw(st.sampled_from(CORPORA))
        requests = draw(
            st.lists(
                st.lists(st.sampled_from(pool), min_size=1, max_size=3),
                min_size=1,
                max_size=5,
            )
        )
        return grammar, text, requests

    return st.composite(build)()


class TestBatchingEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=batch_case(), backend=st.sampled_from(["serial", "thread"]))
    def test_merged_pass_equals_per_query_engines(self, case, backend):
        """Batched responses ≡ independent per-query engine runs.

        Drives ``_execute_group`` directly (the scheduler's callback)
        so the grouping is deterministic; the threaded end-to-end path
        is covered below.
        """
        grammar, text, query_lists = case
        svc = QueryService(small_config(backend=backend))
        try:
            doc = svc.register(text, grammar=grammar)
            group = [
                Request(req_id=i, doc_id=doc.doc_id, queries=tuple(qs))
                for i, qs in enumerate(query_lists)
            ]
            svc._execute_group(doc.doc_id, group)
            for req, qs in zip(group, query_lists):
                response = req.future.result(timeout=0)
                assert response["batch"]["size"] == len(group)
                for q in qs:
                    expected = oracle_matches(text, grammar, q)
                    assert response["matches"][q] == expected, (q, backend)
                    assert response["counts"][q] == len(expected)
        finally:
            svc.close()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_concurrent_submissions_coalesce_and_agree(self, backend, monkeypatch):
        """End to end through the scheduler: a real backlog, one doc.

        The only worker is held inside its first pass while N more
        requests queue; once released it drains all N into ONE merged
        pass.
        """
        gate = gate_first_pass(monkeypatch)
        config = small_config(backend=backend, workers=1, max_batch=32)
        queries = ["/feed/entry/title", "//id", "/feed/id", "//title"]
        with QueryService(config) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            blocker = svc.submit(doc.doc_id, ["//id"])
            assert gate.entered.wait(10.0)
            futures = [svc.submit(doc.doc_id, [q]) for q in queries * 4]
            gate.release.set()
            responses = [f.result(timeout=30.0) for f in futures]
            assert blocker.result(timeout=30.0)["batch"]["size"] == 1
        for response, q in zip(responses, queries * 4):
            assert response["matches"][q] == oracle_matches(FEED_XML, FEED_DTD, q)
        # the backlog was answered by exactly one merged pass
        assert {r["batch"]["size"] for r in responses} == {len(futures)}
        assert len({r["batch"]["seq"] for r in responses}) == 1

    @pytest.mark.parametrize("memo", [False, True])
    def test_end_to_end_query_with_and_without_memo(self, memo):
        """Through the scheduler, with the opt-in memo and without.

        A registered XML document runs every chunk from its exact entry
        configuration, a path that never consults the memo.
        """
        ds = ALL_DATASETS["xmark"]
        text = ds.generate(scale=2.0, seed=7)
        queries = generate_query_set(ds, 3)
        before = memo_info()
        with QueryService(small_config(memo=memo)) as svc:
            doc = svc.register(text, grammar=ds.dtd)
            response = svc.query(doc.doc_id, queries)
        for q in queries:
            assert response["matches"][q] == oracle_matches(text, ds.dtd, q)
        after = memo_info()
        consulted = (after["hits"] + after["misses"]
                     > before["hits"] + before["misses"])
        assert not consulted

    def test_distinct_documents_do_not_cross_talk(self, monkeypatch):
        """A backlog over two documents: one merged pass per document."""
        gate = gate_first_pass(monkeypatch)
        with QueryService(small_config(workers=1)) as svc:
            running = svc.register(RUNNING_XML, grammar=RUNNING_DTD)
            feed = svc.register(FEED_XML, grammar=FEED_DTD)
            blocker = svc.submit(running.doc_id, ["//c"])
            assert gate.entered.wait(10.0)
            backlog = [
                (running, RUNNING_XML, RUNNING_DTD, "//c"),
                (feed, FEED_XML, FEED_DTD, "//id"),
                (running, RUNNING_XML, RUNNING_DTD, "/a/c"),
                (feed, FEED_XML, FEED_DTD, "//title"),
            ]
            futures = [svc.submit(doc.doc_id, [q]) for doc, _, _, q in backlog]
            gate.release.set()
            responses = [f.result(timeout=30.0) for f in futures]
            blocker.result(timeout=30.0)
        seqs = {}
        for response, (doc, text, grammar, q) in zip(responses, backlog):
            assert response["doc_id"] == doc.doc_id
            assert response["matches"] == {q: oracle_matches(text, grammar, q)}
            assert response["batch"]["size"] == 2
            seqs.setdefault(doc.doc_id, set()).add(response["batch"]["seq"])
        # each document's two requests shared one pass; the passes differ
        assert all(len(s) == 1 for s in seqs.values())
        assert len(set.union(*seqs.values())) == 2

    def test_json_document_round_trip(self, service):
        doc = service.register(JSON_DOC)
        response = service.query(doc.doc_id, ["//id", "//tags"])
        assert response["matches"]["//id"] == oracle_matches(JSON_DOC, None, "//id")
        assert response["counts"]["//tags"] == 2


# ---------------------------------------------------------------------------
# dispatch on arrival: no batch window
# ---------------------------------------------------------------------------


class TestDispatchOnArrival:
    def test_lone_requests_do_not_wait_for_companions(self):
        """An idle worker runs a lone request at once (default config)."""
        import json as _json
        import statistics

        config = ServiceConfig(backend="serial", n_chunks=4, workers=1)
        with QueryService(config) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            for _ in range(20):
                svc.query(doc.doc_id, ["//id"])
            events = [_json.loads(line) for line in svc.journal_jsonl().splitlines()]
        assembly = [e["args"]["stages_ms"]["batch_assembly"]
                    for e in events if e["kind"] == "trace"]
        assert len(assembly) == 20
        assert statistics.median(assembly) < 2.0

    def test_close_fails_the_backlog_and_finishes_the_running_pass(
        self, monkeypatch
    ):
        gate = gate_first_pass(monkeypatch)
        svc = QueryService(small_config(workers=1)).start()
        doc = svc.register(FEED_XML, grammar=FEED_DTD)
        running = svc.submit(doc.doc_id, ["//id"])
        assert gate.entered.wait(10.0)
        queued = [svc.submit(doc.doc_id, ["//title"]) for _ in range(5)]
        closer = threading.Thread(target=svc.close)
        closer.start()
        try:
            for future in queued:
                assert isinstance(future.exception(timeout=10.0), ServiceClosed)
            assert not running.done()
        finally:
            gate.release.set()
            closer.join(timeout=30.0)
        assert not closer.is_alive()
        response = running.result(timeout=0)
        assert response["matches"]["//id"] == oracle_matches(FEED_XML, FEED_DTD, "//id")
        assert svc._scheduler.snapshot() == {"queue_depth": 0, "in_flight": 0}

    def test_batch_info_reports_the_engine_share_of_execute(self, service):
        import json as _json

        doc = service.register(FEED_XML, grammar=FEED_DTD)
        infos = [service.query(doc.doc_id, ["//id"])["batch"] for _ in range(2)]
        events = [_json.loads(line) for line in service.journal_jsonl().splitlines()]
        infos += [e["args"] for e in events if e["kind"] == "batch"]
        assert len(infos) == 4  # a cold build, a warm hit, and both journaled
        for info in infos:
            assert 0.0 <= info["engine_seconds"] <= info["exec_seconds"]

    def test_batch_window_knob_is_gone(self):
        from repro.cli import main

        with pytest.raises(TypeError):
            ServiceConfig(batch_wait=0.01)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--batch-wait", "0.02"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# lifecycle: warm engines, shared backend, no leaks
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_sequential_requests_do_not_grow_thread_count(self):
        """Satellite regression: request N+1 reuses request N's pools."""
        config = small_config(backend="thread", workers=2)
        with QueryService(config) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            for _ in range(3):  # warm every lazy pool thread
                svc.query(doc.doc_id, ["//id"])
            baseline = threading.active_count()
            for _ in range(20):
                svc.query(doc.doc_id, ["//id"])
            assert threading.active_count() <= baseline

    def test_engines_share_the_service_backend_and_never_own_it(self):
        with QueryService(small_config(backend="thread")) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            svc.query(doc.doc_id, ["//id"])
            svc.query(doc.doc_id, ["//title"])
            engines = list(svc._engines.values())
            assert engines, "warm cache should hold the built engines"
            for engine in engines:
                assert engine.backend is svc._backend
                assert not engine._owns_backend

    def test_engine_cache_is_bounded_and_reused(self):
        with QueryService(small_config(engine_cache_size=2)) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            for qs in (["//id"], ["//title"], ["/feed/id"], ["//id"]):
                svc.query(doc.doc_id, qs)
            assert len(svc._engines) <= 2
            text = svc.metrics_text()
            assert 'repro_service_engine_cache_total{event="miss"}' in text

    def test_documents_with_one_grammar_share_engines(self):
        with QueryService(small_config()) as svc:
            docs = [svc.register(FEED_XML + " " * k, grammar=FEED_DTD)
                    for k in range(3)]
            for doc in docs:
                response = svc.query(doc.doc_id, ["//id"])
                assert response["matches"]["//id"] == oracle_matches(
                    FEED_XML, FEED_DTD, "//id")
            assert len(svc._engines) == 1 and len(svc._trees) == 1
            cache = svc.varz()["engine_cache"]
            assert (cache["miss"], cache["hit"]) == (1, 2)

    def test_shared_engines_and_trees_under_concurrency(self):
        """More clients than cores over documents that share grammars,
        with a cache smaller than the working set: every answer stays the
        oracle's and both caches stay bounded."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        cases = [(FEED_XML + " " * k, FEED_DTD, q)
                 for k in range(2) for q in ("//id", "//title", "/feed/id")]
        cases += [(RUNNING_XML, RUNNING_DTD, q) for q in (RUNNING_QUERY, "//c")]
        want = {(t, q): oracle_matches(t, g, q) for t, g, q in cases}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(small_config(workers=4, engine_cache_size=2)) as svc:
                ids = {t: svc.register(t, grammar=g).doc_id for t, g, _q in cases}

                def ask(case):
                    text, _g, q = case
                    return svc.query(ids[text], [q])["matches"][q] == want[(text, q)]

                with ThreadPoolExecutor(8) as pool:
                    answers = list(pool.map(ask, cases * 6, timeout=60))
                assert len(svc._engines) <= 2 and len(svc._trees) <= 2
        finally:
            sys.setswitchinterval(interval)
        assert all(answers) and len(answers) == len(cases) * 6

    def test_partial_grammar_engine_speculates(self):
        """An engine built from the shared syntax tree keeps the grammar's
        completeness: a partial grammar's engine speculates."""
        partial = "<!DOCTYPE feed [ <!ELEMENT feed (entry+, id)> ]>"
        with QueryService(small_config()) as svc:
            full = svc.register(FEED_XML, grammar=FEED_DTD)
            part = svc.register(FEED_XML, grammar=partial)
            assert svc._engine_for(full, ("//id",)).mode == "nonspec"
            assert svc._engine_for(part, ("//id",)).mode == "spec"
            assert GapEngine(["//id"], grammar=part.grammar).mode == "spec"

    def test_process_backend_is_refused_at_construction(self, tmp_path):
        """An unknown backend name fails before any side effect: no
        thread started, no process-global artifact store installed."""
        from repro.xpath.compile_tables import get_artifact_store

        before = threading.active_count()
        with pytest.raises(ValueError, match="serial/thread"):
            QueryService(ServiceConfig(backend="process",
                                       artifact_store=str(tmp_path / "st")))
        assert threading.active_count() == before
        assert get_artifact_store() is None

    def test_close_is_idempotent(self):
        svc = QueryService(small_config()).start()
        svc.close()
        svc.close()

    def test_shutdown_releases_threads(self):
        before = threading.active_count()
        svc = QueryService(small_config(backend="thread")).start()
        doc = svc.register(FEED_XML, grammar=FEED_DTD)
        svc.query(doc.doc_id, ["//id"])
        assert threading.active_count() > before
        svc.close()
        assert threading.active_count() <= before + 1  # a worker may linger briefly


# ---------------------------------------------------------------------------
# the request path: no chunk pool, no compile-cache lookup, no disk
# ---------------------------------------------------------------------------


#: more distinct FEED query sets than any test below asks for
_FEED_QUERY_SETS = [
    list(qs) for qs in itertools.combinations(
        ["/feed/entry/title", "//id", "/feed/id", "//title", "/feed/entry/id",
         "//entry", "/feed/entry", "//feed"], 3)
]


class TestRequestPath:
    def test_serial_is_the_default_backend(self):
        assert ServiceConfig().backend == "serial"
        svc = QueryService(ServiceConfig(collector=False))
        try:
            assert svc._backend.name == "serial"
        finally:
            svc.close()

    def test_chunks_run_on_the_worker_that_took_the_request(self, monkeypatch):
        import repro.transducer.pipeline as pipeline

        seen: list[tuple[int, str]] = []
        run_one_chunk = pipeline._run_one_chunk

        def spy(ctx, chunk, attempt=0):
            seen.append((threading.get_ident(), threading.current_thread().name))
            return run_one_chunk(ctx, chunk, attempt)

        monkeypatch.setattr(pipeline, "_run_one_chunk", spy)
        with QueryService(ServiceConfig(n_chunks=4, workers=2,
                                        collector=False)) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            runs: list[int] = []
            run = svc._run

            def traced_run(engine, record, tracer=None):
                runs.append(threading.get_ident())
                start = len(seen)
                result = run(engine, record, tracer)
                assert {ident for ident, _ in seen[start:]} == {runs[-1]}
                return result

            svc._run = traced_run
            for qs in (["//id"], ["//title"], ["//id"]):
                svc.query(doc.doc_id, qs)
        assert len(runs) == 3 and len(seen) == 3 * len(doc.chunks)
        assert all(name.startswith("repro-svc-worker-") for _, name in seen)

    def test_warm_engine_skips_the_compile_cache(self, monkeypatch):
        import repro.core.kernel as kernel_mod

        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        # engines compile every kind of table through the kernel module
        monkeypatch.setattr(kernel_mod, "compiled_tables",
                            counting(kernel_mod.compiled_tables))
        with QueryService(small_config()) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            first = svc.query(doc.doc_id, ["//id", "//title"])
            assert calls == ["compiled_tables"]  # the engine's one compile
            for _ in range(50):
                again = svc.query(doc.doc_id, ["//title", "//id"])
                assert again["matches"] == first["matches"]
            assert calls == ["compiled_tables"]

    def test_requests_neither_read_nor_write_the_store(self, tmp_path):
        config = small_config(artifact_store=str(tmp_path / "store"),
                              collector=False)
        with QueryService(config) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            registered = svc.store.counters()
            assert registered["writes"] == 2  # split, tokens
            for qs in _FEED_QUERY_SETS[:50]:
                response = svc.query(doc.doc_id, qs)
                for q in qs:
                    assert response["matches"][q] == oracle_matches(
                        FEED_XML, FEED_DTD, q)
            assert svc.varz()["engine_cache"]["miss"] == 50
            assert svc.store.counters() == registered

    def test_supervision_on_the_serial_default(self, monkeypatch):
        """``chunk_timeout`` still bounds a hung chunk: the supervisor
        runs the attempts on a daemon worker thread, whatever the backend."""
        want = {q: oracle_matches(FEED_XML, FEED_DTD, q) for q in ("//id", "//title")}
        monkeypatch.setenv("REPRO_FAULTS", "chunk:1:raise,chunk:2:hang:delay=2")
        config = ServiceConfig(n_chunks=4, workers=1, collector=False,
                               chunk_timeout=0.3, max_retries=1)
        with QueryService(config) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            response = svc.query(doc.doc_id, list(want))
        assert response["matches"] == want
        assert response["stats"]["retries"] > 0
        assert response["stats"]["timeouts"] > 0


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_metrics_exposition(self, service):
        doc = service.register(FEED_XML, grammar=FEED_DTD)
        service.query(doc.doc_id, ["//id"])
        text = service.metrics_text()
        for name in (
            'repro_service_requests_total{status="ok"} 1',
            "repro_service_batches_total 1",
            "repro_service_batch_size_bucket",
            "repro_service_request_seconds_count 1",
            "repro_service_documents 1",
            "repro_service_engines 1",
            "repro_service_queue_depth 0",
        ):
            assert name in text, name

    def test_kernel_share_per_batch_on_metrics(self, service):
        doc = service.register(FEED_XML, grammar=FEED_DTD)
        n = 5
        for _ in range(n):
            service.query(doc.doc_id, ["//id", "//title"])
        text = service.metrics_text()
        for layer in ("core.kernel", "xpath.filtering"):
            line = next(l for l in text.splitlines() if l.startswith(
                f'repro_layer_seconds_count{{layer="{layer}"}}'))
            assert float(line.split()[-1]) == n, line

    def test_journal_records_request_lifecycle(self, service):
        import json as _json

        doc = service.register(FEED_XML, grammar=FEED_DTD)
        service.query(doc.doc_id, ["//id"])
        kinds = [
            _json.loads(line)["kind"]
            for line in service.journal_jsonl().splitlines()
        ]
        assert kinds == ["ingest", "admit", "batch", "respond", "trace"]


# ---------------------------------------------------------------------------
# HTTP end to end (ephemeral port)
# ---------------------------------------------------------------------------


@pytest.fixture
def http_service():
    svc = QueryService(small_config(backend="thread"))
    server = serve("127.0.0.1", 0, svc)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    client = QueryClient("127.0.0.1", server.server_address[1], timeout=30.0)
    client.wait_healthy()
    yield client
    try:
        client.shutdown()
    except (OSError, ServiceError):
        pass  # already shut down by the test
    thread.join(timeout=10.0)
    assert not thread.is_alive()


class TestHTTP:
    def test_register_query_round_trip(self, http_service):
        client = http_service
        doc = client.register(content=FEED_XML, grammar=FEED_DTD, name="feed")
        assert doc["kind"] == "xml" and doc["grammar"]
        response = client.query(doc["doc_id"], ["//id", "/feed/entry/title"])
        assert response["matches"]["//id"] == oracle_matches(FEED_XML, FEED_DTD, "//id")
        assert response["counts"]["/feed/entry/title"] == 2
        assert [d["doc_id"] for d in client.documents()] == [doc["doc_id"]]

    def test_error_mapping(self, http_service):
        client = http_service
        with pytest.raises(ServiceError) as err:
            client.query("no-such-doc", ["//x"])
        assert err.value.status == 404 and not err.value.rejected
        doc = client.register(content=FEED_XML)
        with pytest.raises(ServiceError) as err:
            client.query(doc["doc_id"], [])
        assert err.value.status == 400

    def test_malformed_document_is_a_400(self, http_service):
        with pytest.raises(ServiceError) as err:
            http_service.register(content="<r><a><b/></a></a><a/></r>")
        assert err.value.status == 400
        assert "ingestion failed" in str(err.value)
        assert "at offset 22" in str(err.value)

    def test_metrics_and_journal_endpoints(self, http_service):
        client = http_service
        doc = client.register(content=FEED_XML, grammar=FEED_DTD)
        client.query(doc["doc_id"], ["//id"])
        assert 'repro_service_requests_total{status="ok"}' in client.metrics()
        assert '"kind":"respond"' in client.journal()

    def test_delete_document(self, http_service):
        client = http_service
        doc = client.register(content=FEED_XML)
        client.delete(doc["doc_id"])
        with pytest.raises(ServiceError) as err:
            client.delete(doc["doc_id"])
        assert err.value.status == 404

    def test_concurrent_http_clients_agree_with_oracle(self, http_service):
        from concurrent.futures import ThreadPoolExecutor

        client = http_service
        doc = client.register(content=FEED_XML, grammar=FEED_DTD)
        queries = ["/feed/entry/title", "//id", "/feed/id", "//title"]
        with ThreadPoolExecutor(8) as pool:
            responses = list(
                pool.map(lambda q: client.query(doc["doc_id"], [q]), queries * 4)
            )
        for response, q in zip(responses, queries * 4):
            assert response["matches"][q] == oracle_matches(FEED_XML, FEED_DTD, q)

    def test_listen_backlog_holds_a_full_request_queue(self):
        """A connection burst reaches admission control, not a TCP reset."""
        svc = QueryService(small_config(max_queue=100))
        server = serve("127.0.0.1", 0, svc)
        try:
            assert server.request_queue_size == 100
        finally:
            server.server_close()
            svc.close()

    def test_graceful_shutdown(self, http_service):
        client = http_service
        assert client.shutdown()["status"] == "shutting down"
