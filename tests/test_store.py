"""The persistent artifact store battery: round-trip, corruption, concurrency.

Pins the contracts of :mod:`repro.store`:

* **codec exactness** — serialize→deserialize of chunk splits and
  token caches is the identity, across hypothesis-generated documents
  and for both XML and JSON inputs; a run from stored artifacts is equal to a
  fresh run on matches *and* every deterministic counter;
* **corruption safety** — truncated, bit-flipped, zero-filled and
  version-bumped artifacts read as clean misses (counted in
  ``repro_store_invalid_total``, journalled as ``store_invalid``),
  never an exception or wrong matches; recomputation republishes;
* **concurrency** — racing multi-process writers publish atomically
  (readers see a complete payload or nothing, never a torn file), and
  a fresh process with a warm store reproduces a cold process's
  matches and counters exactly while skipping split and lex work
  entirely (no ``xmlstream.lex`` spans, a hit per split and tokens
  artifact); queries never read or write the store;
* **admission errors** — :class:`RegistryFull` reports capacity and
  the rejected document's content hash, through HTTP 429 included.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GapEngine
from repro.obs.journal import Journal
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    QueryService,
    RegistryFull,
    ServiceConfig,
    ServiceError,
    serve,
)
from repro.service.registry import DocumentRegistry
from repro.store import ArtifactStore, CodecError, prepare_json, prepare_xml
from repro.store.docprep import chunk_paths
from repro.store import codec
from repro.store.artifacts import _HEADER
from repro.xmlstream.chunking import split_chunks
from repro.xmlstream.lexer import lex_range
from repro.xpath.compile_tables import clear_compile_cache, set_artifact_store

from tests.conftest import FEED_DTD, FEED_XML, RUNNING_DTD, RUNNING_QUERY, RUNNING_XML
from tests.test_properties import documents, queries

#: nightly CI raises this (see .github/workflows/ci.yml)
MAX_EXAMPLES = int(os.environ.get("REPRO_HYP_MAX_EXAMPLES", "15"))

HYP = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

JSON_DOC = (
    '{"feed": {"entry": [{"id": 1, "title": "a"}, {"title": "b"},'
    ' {"id": 3, "tags": ["x", "y"]}], "id": 99}}'
)


@pytest.fixture(autouse=True)
def _clean_compile_cache():
    """Every test starts (and leaves) with a cold cache and no store."""
    clear_compile_cache()
    set_artifact_store(None)
    yield
    clear_compile_cache()
    set_artifact_store(None)


# ---------------------------------------------------------------------------
# codec round trips (hypothesis)
# ---------------------------------------------------------------------------


class TestCodecRoundTrip:
    @given(doc=documents(), n_chunks=st.integers(min_value=1, max_value=9))
    @HYP
    def test_chunks_and_tokens_exact(self, doc, n_chunks):
        _grammar, text = doc
        chunks = split_chunks(text, n_chunks)
        chunk_tokens = tuple(lex_range(text, c.begin, c.end) for c in chunks)
        paths = chunk_paths(chunk_tokens)
        back = codec.decode_chunks(codec.encode_chunks(chunks, paths))
        assert back == (chunks, paths)
        back = codec.decode_chunk_tokens(codec.encode_chunk_tokens(chunk_tokens))
        assert back == chunk_tokens

    def test_json_tokens_exact(self):
        from repro.jsonstream import tokenize_json

        tokens = tokenize_json(JSON_DOC)
        assert codec.decode_tokens(codec.encode_tokens(tokens)) == tokens

    def test_trailing_garbage_rejected(self):
        chunks = split_chunks(RUNNING_XML, 2)
        payload = codec.encode_chunks(chunks, ((), ("a",))) + b"\x00"
        with pytest.raises(CodecError):
            codec.decode_chunks(payload)

    def test_truncated_payload_rejected(self):
        payload = codec.encode_chunks(split_chunks(RUNNING_XML, 2), ((), ("a",)))
        for cut in (1, len(payload) // 2, len(payload) - 1):
            with pytest.raises(CodecError):
                codec.decode_chunks(payload[:cut])


class TestStoredRunEquivalence:
    """A run from stored artifacts ≡ a fresh run, XML and JSON."""

    def _fresh(self, text, grammar, qs):
        engine = GapEngine(qs, grammar=grammar, n_chunks=4, backend="serial")
        if text.lstrip()[:1] in ("{", "["):
            from repro.jsonstream import tokenize_json

            return engine.run_tokens(tokenize_json(text))
        return engine.run(text)

    @pytest.mark.parametrize("grammar,text,qs", [
        (RUNNING_DTD, RUNNING_XML, [RUNNING_QUERY, "//c"]),
        (FEED_DTD, FEED_XML, ["/feed/entry/title", "//id"]),
        (None, JSON_DOC, ["//id", "//title"]),
    ])
    def test_warm_equals_fresh(self, tmp_path, grammar, text, qs):
        fresh = self._fresh(text, grammar, qs)
        clear_compile_cache()  # the oracle must not pre-warm the cache
        store = ArtifactStore(str(tmp_path / "store"))
        set_artifact_store(store)
        as_json = text.lstrip()[:1] in ("{", "[")

        def run():
            engine = GapEngine(qs, grammar=grammar, n_chunks=4, backend="serial")
            if as_json:
                return engine.run_tokens(prepare_json(store, text))
            chunks, toks, _paths = prepare_xml(store, text, 4)
            return engine.run(text, chunks=chunks, chunk_tokens=toks)

        cold = run()
        assert store.counters()["writes"] > 0
        clear_compile_cache()  # simulate a restarted process
        warm = run()
        assert store.counters()["hits"] > 0
        assert store.counters()["invalid"] == 0
        for run_result in (cold, warm):
            assert run_result.matches == fresh.matches
            assert run_result.stats.summary() == fresh.stats.summary()


# ---------------------------------------------------------------------------
# corruption injection
# ---------------------------------------------------------------------------


def _truncate(data: bytes) -> bytes:
    return data[: max(1, len(data) // 2)]


def _bit_flip(data: bytes) -> bytes:
    # flip one payload bit (past the header so the checksum is what trips)
    pos = min(len(data) - 1, _HEADER.size + (len(data) - _HEADER.size) // 2)
    return data[:pos] + bytes([data[pos] ^ 0x10]) + data[pos + 1:]


def _zero_fill(data: bytes) -> bytes:
    return bytes(len(data))


def _version_bump(data: bytes) -> bytes:
    # rewrite the per-kind schema version field (header offset 6)
    return data[:6] + struct.pack("<H", 0x7FFF) + data[8:]


_MUTATIONS = {
    "truncate": _truncate,
    "bit_flip": _bit_flip,
    "zero_fill": _zero_fill,
    "version_bump": _version_bump,
}


def _seed_store(root: str):
    """Publish one artifact of every kind and return the oracle result."""
    store = ArtifactStore(root)
    set_artifact_store(store)
    try:
        engine = GapEngine([RUNNING_QUERY, "//c"], grammar=RUNNING_DTD,
                           n_chunks=4, backend="serial")
        chunks, toks, _paths = prepare_xml(store, RUNNING_XML, 4)
        result = engine.run(RUNNING_XML, chunks=chunks, chunk_tokens=toks)
    finally:
        set_artifact_store(None)
    files = [i.path for i in store.scan()]
    assert len(files) == 2  # split, tokens
    return result, files


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
class TestCorruption:
    def test_clean_miss_and_recovery(self, tmp_path, mutation):
        root = str(tmp_path / "store")
        oracle, files = _seed_store(root)
        mutate = _MUTATIONS[mutation]
        for path in files:
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(mutate(data))
        clear_compile_cache()

        journal = Journal()
        metrics = MetricsRegistry()
        store = ArtifactStore(root, metrics=metrics, journal=journal)
        set_artifact_store(store)
        engine = GapEngine([RUNNING_QUERY, "//c"], grammar=RUNNING_DTD,
                           n_chunks=4, backend="serial")
        chunks, toks, paths = prepare_xml(store, RUNNING_XML, 4)
        result = engine.run(RUNNING_XML, chunks=chunks, chunk_tokens=toks)

        # never a crash, never a poisoned result
        assert result.matches == oracle.matches
        assert result.stats.summary() == oracle.stats.summary()
        counters = store.counters()
        assert counters["hits"] == 0
        assert counters["invalid"] == 2, counters  # one per corrupted artifact
        assert counters["writes"] == 2  # every artifact republished
        # metrics and journal carry the evidence
        invalid_metric = [
            m.value for m in metrics if m.name == "repro_store_invalid_total"
        ]
        assert invalid_metric == [2.0]
        events = journal.by_kind("store_invalid")
        assert len(events) == 2
        assert all(ev.args.get("reason") for ev in events)

        # the republished artifacts verify clean and hit on re-read
        assert all(i.valid for i in store.scan())
        clear_compile_cache()
        chunks2, toks2, paths2 = prepare_xml(store, RUNNING_XML, 4)
        assert (chunks2, toks2, paths2) == (chunks, toks, paths)
        assert store.counters()["hits"] >= 2

    def test_direct_get_is_none(self, tmp_path, mutation):
        root = str(tmp_path / "store")
        _oracle, files = _seed_store(root)
        mutate = _MUTATIONS[mutation]
        for path in files:
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(mutate(data))
        store = ArtifactStore(root)
        for info in store.scan():
            assert not info.valid
            assert store.get(info.kind, info.key) is None
        assert store.counters()["invalid"] == 2


class TestStoreMechanics:
    def test_atomic_publish_leaves_no_temp_files(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "ab" * 16
        assert store.put("split", key, b"payload")
        assert os.listdir(os.path.join(str(tmp_path), "tmp")) == []
        assert store.get("split", key) == b"payload"

    def test_key_and_kind_validation(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.get("nope", "ab" * 16)
        for bad in ("../../etc/passwd", "ABCDEF", "ab", "", "xy" * 16):
            with pytest.raises(ValueError):
                store.get("split", bad)

    def test_miss_on_absent(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.get("split", "cd" * 16) is None
        assert store.counters() == {
            "hits": 0, "misses": 1, "writes": 0, "invalid": 0}

    def test_gc_removes_invalid_keeps_valid(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("split", "aa" * 16, b"good")
        store.put("split", "bb" * 16, b"doomed")
        bad_path = store._path("split", "bb" * 16)
        with open(bad_path, "wb") as fh:
            fh.write(b"garbage")
        assert [i.valid for i in store.scan()] == [True, False]
        result = store.gc()
        assert result["removed"] == 1 and result["kept"] == 1
        assert not os.path.exists(bad_path)
        assert store.get("split", "aa" * 16) == b"good"

    def test_invalidate_counts_and_unlinks(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("tokens", "cc" * 16, b"x")
        store.invalidate("tokens", "cc" * 16, "decode:test")
        assert store.counters()["invalid"] == 1
        assert store.get("tokens", "cc" * 16) is None  # gone -> miss

    def test_registry_cache_aside(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        reg = DocumentRegistry(store=store)
        rec = reg.register(FEED_XML, grammar=FEED_DTD, n_chunks=4)
        assert store.counters()["writes"] == 2  # split + tokens
        reg2 = DocumentRegistry(store=store)
        rec2 = reg2.register(FEED_XML, grammar=FEED_DTD, n_chunks=4)
        assert store.counters()["hits"] == 2
        assert rec2.chunks == rec.chunks
        assert rec2.chunk_tokens == rec.chunk_tokens
        # JSON documents cache their flat token list and cut it again
        reg.register(JSON_DOC, n_chunks=4)
        reg3 = DocumentRegistry(store=store)
        rec3 = reg3.register(JSON_DOC, n_chunks=4)
        assert store.counters()["hits"] == 3
        cold = reg.get(rec3.doc_id)
        assert rec3.chunks == cold.chunks and len(rec3.chunks) == 4
        assert rec3.chunk_tokens == cold.chunk_tokens
        assert rec3.chunk_paths == cold.chunk_paths


# ---------------------------------------------------------------------------
# concurrency: racing processes over one store directory
# ---------------------------------------------------------------------------

_HAMMER = """
import sys
from repro.store import ArtifactStore

root, role, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = ArtifactStore(root)
keys = ["%064x" % k for k in range(4)]
payloads = {k: [bytes([w]) * (1024 + 512 * w) for w in range(8)] for k in keys}
for i in range(rounds):
    for k in keys:
        if role == "writer":
            store.put("tokens", k, payloads[k][i % 8])
        else:
            got = store.get("tokens", k)
            if got is not None and got not in payloads[k]:
                sys.exit(3)  # torn or foreign payload observed
c = store.counters()
if c["invalid"]:
    sys.exit(4)  # a reader saw a partial publication
print(c["hits"], c["misses"], c["writes"])
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestConcurrency:
    def test_multiprocess_hammer(self, tmp_path):
        root = str(tmp_path / "store")
        os.makedirs(root)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _HAMMER, root, role, "40"],
                env=_env(), cwd=os.path.dirname(os.path.dirname(__file__)),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for role in ("writer", "writer", "reader", "reader")
        ]
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, (p.returncode, out, err)
        # the directory ends consistent: every artifact verifies
        store = ArtifactStore(root)
        infos = store.scan()
        assert len(infos) == 4
        assert all(i.valid for i in infos)

    def test_concurrent_threads_share_one_store(self, tmp_path):
        """In-process: many threads hammer one ArtifactStore instance."""
        store = ArtifactStore(str(tmp_path))
        errors: list = []

        def work(seed: int) -> None:
            try:
                for i in range(30):
                    key = "%064x" % (i % 5)
                    store.put("split", key, bytes([seed]) * 256)
                    got = store.get("split", key)
                    assert got is None or (len(got) == 256 and len(set(got)) == 1)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.counters()["invalid"] == 0


_DIFFERENTIAL = """
import json, sys
from repro.core.engine import GapEngine
from repro.grammar import parse_dtd
from repro.obs.tracer import Tracer
from repro.store import ArtifactStore, prepare_xml
from repro.xpath.compile_tables import set_artifact_store

doc_path, store_dir, backend = sys.argv[1], sys.argv[2], sys.argv[3]
text = open(doc_path).read()
grammar = parse_dtd(text) if "<!DOCTYPE" in text[:65536] else None
store = ArtifactStore(store_dir)
set_artifact_store(store)
tracer = Tracer()
chunks, toks, _paths = prepare_xml(store, text, 8, tracer=tracer)
engine = GapEngine(["//item/name", "//name"], grammar=grammar, n_chunks=8,
                   backend=backend, tracer=tracer)
result = engine.run(text, chunks=chunks, chunk_tokens=toks)
engine.close()
print(json.dumps({
    "matches": {q: list(v) for q, v in result.matches.items()},
    "stats": result.stats.summary(),
    "spans": sorted({s.name for s in tracer.spans}),
    "store": store.counters(),
}))
"""


def _differential(tmp_path, backend: str) -> None:
    from repro.datasets import ALL_DATASETS

    doc_path = str(tmp_path / "doc.xml")
    with open(doc_path, "w") as fh:
        fh.write(ALL_DATASETS["xmark"].generate(scale=1.0, seed=3))
    store_dir = str(tmp_path / "store")

    def run():
        proc = subprocess.run(
            [sys.executable, "-c", _DIFFERENTIAL, doc_path, store_dir, backend],
            env=_env(), cwd=os.path.dirname(os.path.dirname(__file__)),
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return json.loads(proc.stdout)

    cold = run()
    warm = run()
    # byte-identical matches and deterministic counters
    assert warm["matches"] == cold["matches"]
    assert warm["stats"] == cold["stats"]
    # the cold process did the work; the warm one provably skipped it
    assert cold["store"]["writes"] == 2  # split, tokens
    assert "xmlstream.lex" in cold["spans"] and "xmlstream.split" in cold["spans"]
    assert warm["store"]["hits"] == 2
    assert warm["store"]["writes"] == 0
    assert warm["store"]["invalid"] == 0
    assert "xmlstream.lex" not in warm["spans"]


class TestWarmStartDifferential:
    def test_cross_process_serial(self, tmp_path):
        _differential(tmp_path, "serial")

    def test_cross_process_thread(self, tmp_path):
        _differential(tmp_path, "thread")


# ---------------------------------------------------------------------------
# RegistryFull error shape (and its HTTP 429 mapping)
# ---------------------------------------------------------------------------


class TestRegistryFullReporting:
    def test_message_shape(self):
        reg = DocumentRegistry(max_documents=1)
        reg.register(RUNNING_XML, n_chunks=4)
        with pytest.raises(RegistryFull) as err:
            reg.register(FEED_XML, n_chunks=4)
        exc = err.value
        expected_id = DocumentRegistry._content_id(FEED_XML, None, 4)
        assert exc.capacity == 1
        assert exc.doc_id == expected_id
        assert str(exc) == (
            f"registry full (1/1 documents); rejected document {expected_id}"
        )

    def test_http_429_reports_capacity_and_hash(self):
        svc = QueryService(ServiceConfig(
            backend="serial", max_documents=1))
        server = serve("127.0.0.1", 0, svc)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            from http.client import HTTPConnection

            def post(content):
                conn = HTTPConnection("127.0.0.1", port, timeout=30.0)
                try:
                    conn.request(
                        "POST", "/documents",
                        body=json.dumps({"content": content}).encode(),
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    return resp.status, json.loads(resp.read().decode())
                finally:
                    conn.close()

            status, _body = post(RUNNING_XML)
            assert status == 201
            status, body = post(FEED_XML)
            assert status == 429
            expected_id = DocumentRegistry._content_id(FEED_XML, None, 8)
            assert body["capacity"] == 1
            assert body["doc_id"] == expected_id
            assert f"rejected document {expected_id}" in body["error"]
        finally:
            from repro.service import QueryClient

            try:
                QueryClient("127.0.0.1", port).shutdown()
            except (OSError, ServiceError):
                pass
            thread.join(timeout=10.0)


# ---------------------------------------------------------------------------
# service restart warm start (in one test process, fresh service objects)
# ---------------------------------------------------------------------------


class TestServiceWarmStart:
    def test_restart_hits_store(self, tmp_path):
        config = ServiceConfig(
            backend="serial",
            artifact_store=str(tmp_path / "store"),
        )
        with QueryService(config) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            assert svc.store.counters()["writes"] == 2  # split, tokens
            first = svc.query(doc.doc_id, ["//id"])
            assert svc.varz()["store"]["writes"] == 2  # the query wrote nothing
        clear_compile_cache()  # the "restart": new process state
        with QueryService(config) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            second = svc.query(doc.doc_id, ["//id"])
            varz = svc.varz()
            assert varz["store"]["hits"] == 2  # split, tokens
            assert varz["store"]["writes"] == 0
            assert varz["store"]["invalid"] == 0
            assert second["matches"] == first["matches"]
            assert second["stats"] == first["stats"]
            metrics = svc.metrics_text()
            assert "repro_store_hits_total" in metrics

    def test_store_uninstalled_on_close(self, tmp_path):
        from repro.xpath.compile_tables import get_artifact_store

        config = ServiceConfig(
            backend="serial",
            artifact_store=str(tmp_path / "store"),
        )
        svc = QueryService(config).start()
        assert get_artifact_store() is svc.store
        svc.close()
        assert get_artifact_store() is None


# ---------------------------------------------------------------------------
# structural-memo persistence (schema kind "subseq")
# ---------------------------------------------------------------------------


def _memo_payloads(data):
    """Hypothesis-built (sequences, entries) in the codec's domain."""
    kinds = st.integers(min_value=0, max_value=2)
    names = st.text(min_size=0, max_size=6)
    seq = st.lists(st.tuples(kinds, names), min_size=1, max_size=8).map(tuple)
    seqs = data.draw(st.lists(seq, min_size=0, max_size=5))
    entries = {}
    if seqs:
        n_entries = data.draw(st.integers(min_value=0, max_value=6))
        for _ in range(n_entries):
            key = (
                data.draw(st.integers(min_value=-1, max_value=1 << 40)),
                data.draw(st.integers(min_value=0, max_value=len(seqs) - 1)),
            )
            events = tuple(
                (
                    data.draw(st.integers(min_value=0, max_value=1)),
                    data.draw(st.integers(min_value=0, max_value=1 << 20)),
                    data.draw(st.integers(min_value=0, max_value=1 << 20)),
                    data.draw(st.integers(min_value=-64, max_value=1 << 30)),
                )
                for _ in range(data.draw(st.integers(min_value=0, max_value=4)))
            )
            entries[key] = (
                data.draw(st.integers(min_value=-1, max_value=1 << 40)),
                events,
            )
    return seqs, entries


class TestMemoCodec:
    @given(data=st.data())
    @HYP
    def test_round_trip_exact(self, data):
        seqs, entries = _memo_payloads(data)
        payload = codec.encode_memo_table(seqs, entries)
        back_seqs, back_entries = codec.decode_memo_table(payload)
        assert back_seqs == list(seqs)
        assert back_entries == entries

    def test_live_snapshot_round_trips_and_warms(self):
        """A real table's snapshot decodes back and warms a fresh table
        to all-hits — the in-process model of a warm restart."""
        from tests.test_table_compile import _MemoRig, _rows

        xml = f"<t>{_rows('r', 8, payload=lambda i: str(i))}</t>"
        rig = _MemoRig(xml, ["//r/a"])
        rig.run_once(rig.runner())
        seqs, entries = rig.memo.snapshot()
        assert seqs and entries
        payload = codec.encode_memo_table(seqs, entries)
        assert codec.decode_memo_table(payload) == (seqs, entries)

        warm = _MemoRig(xml, ["//r/a"])
        warm.memo.adopt(*codec.decode_memo_table(payload))
        warm.run_once(warm.runner())
        stats = warm.memo.stats()
        # every consulted span replays from the adopted entries
        assert stats["misses"] == 0, stats
        total = rig.memo.stats()
        assert stats["hits"] == total["hits"] + total["misses"]

    def test_trailing_garbage_rejected(self):
        payload = codec.encode_memo_table([((0, "a"), (2, ""), (1, "a"))], {})
        with pytest.raises(CodecError):
            codec.decode_memo_table(payload + b"\x00")

    def test_truncation_rejected(self):
        payload = codec.encode_memo_table(
            [((0, "a"), (1, "a"))], {(3, 0): (3, ((0, 1, 0, 1),))}
        )
        for cut in (1, len(payload) // 2, len(payload) - 1):
            with pytest.raises(CodecError):
                codec.decode_memo_table(payload[:cut])

    def test_dangling_sequence_reference_rejected(self):
        """The encoder is trusting; the decoder must not be."""
        payload = codec.encode_memo_table([((0, "a"), (1, "a"))],
                                          {(0, 99): (0, ())})
        with pytest.raises(CodecError):
            codec.decode_memo_table(payload)


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
class TestMemoCorruption:
    def test_corrupt_subseq_artifact_is_a_clean_miss(self, tmp_path, mutation):
        store = ArtifactStore(str(tmp_path / "store"))
        key = "cd" * 32
        payload = codec.encode_memo_table(
            [((0, "r"), (0, "a"), (2, ""), (1, "a"), (1, "r"))],
            {(0, 0): (0, ((0, 2, 1, 1), (1, 2, 3, 1)))},
        )
        assert store.put("subseq", key, payload)
        (info,) = store.scan()
        assert info.kind == "subseq"
        with open(info.path, "rb") as fh:
            data = fh.read()
        with open(info.path, "wb") as fh:
            fh.write(_MUTATIONS[mutation](data))
        assert store.get("subseq", key) is None
        assert store.counters()["invalid"] == 1
        # recovery: a republish verifies clean and hits
        assert store.put("subseq", key, payload)
        assert store.get("subseq", key) == payload


_MEMO_RESTART = """
import json, sys
from repro.core.engine import GapEngine
from repro.store import ArtifactStore
from repro.xpath import memo_info, set_memo_defaults
from repro.xpath.compile_tables import set_artifact_store

doc_path, store_dir = sys.argv[1], sys.argv[2]
text = open(doc_path).read()
set_memo_defaults(min_span=4)
store = ArtifactStore(store_dir)
set_artifact_store(store)
engine = GapEngine(["//r/a", "//b"], n_chunks=4, backend="serial", memo=True)
result = engine.run(text)
print(json.dumps({
    "matches": {q: list(v) for q, v in result.matches.items()},
    "memo": memo_info(),
    "store": store.counters(),
    "kinds": sorted({i.kind for i in store.scan()}),
}))
"""


class TestMemoWarmRestart:
    """The memo survives a process restart through the artifact store."""

    def _doc(self, tmp_path) -> str:
        path = str(tmp_path / "doc.xml")
        rows = "".join(
            f"<r><a>v{i}</a><b>w{i}</b></r>" for i in range(40)
        )
        with open(path, "w") as fh:
            fh.write(f"<t>{rows}</t>")
        return path

    def _run(self, doc_path, store_dir):
        proc = subprocess.run(
            [sys.executable, "-c", _MEMO_RESTART, doc_path, store_dir],
            env=_env(), cwd=os.path.dirname(os.path.dirname(__file__)),
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return json.loads(proc.stdout)

    def test_warm_restart_replays_from_first_sight(self, tmp_path):
        doc_path = self._doc(tmp_path)
        store_dir = str(tmp_path / "store")
        cold = self._run(doc_path, store_dir)
        warm = self._run(doc_path, store_dir)
        warm2 = self._run(doc_path, store_dir)

        # the cold process interned, recorded, and persisted the memo
        assert cold["memo"]["misses"] >= 1
        assert "subseq" in cold["kinds"]
        # matches are identical across restarts
        assert warm["matches"] == cold["matches"]
        assert warm2["matches"] == cold["matches"]
        # the warm process replays every span the cold process consulted:
        # zero first-sight misses, hits absorb them exactly
        assert warm["memo"]["misses"] == 0, warm["memo"]
        assert warm["memo"]["hits"] == \
            cold["memo"]["hits"] + cold["memo"]["misses"]
        assert warm["memo"]["sequences"] == cold["memo"]["sequences"]
        assert warm["store"]["invalid"] == 0
        # and the warm-start state is reproducible run over run
        assert warm2["memo"] == warm["memo"]

    def test_corrupted_memo_artifact_recovers(self, tmp_path):
        doc_path = self._doc(tmp_path)
        store_dir = str(tmp_path / "store")
        cold = self._run(doc_path, store_dir)
        store = ArtifactStore(store_dir)
        (subseq,) = [i for i in store.scan() if i.kind == "subseq"]
        with open(subseq.path, "rb") as fh:
            data = fh.read()
        with open(subseq.path, "wb") as fh:
            fh.write(_bit_flip(data))

        relearn = self._run(doc_path, store_dir)
        # clean miss: the run re-learns from scratch, results intact
        assert relearn["matches"] == cold["matches"]
        assert relearn["memo"]["misses"] == cold["memo"]["misses"]
        assert relearn["store"]["invalid"] >= 1
        # and the republished artifact warms the next restart again
        warm = self._run(doc_path, store_dir)
        assert warm["memo"]["misses"] == 0, warm["memo"]
