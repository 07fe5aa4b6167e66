"""The streaming subsystem: sessions, delivery, checkpoints, manager.

The load-bearing property is the stream-vs-batch differential: an XML
stream fed in arbitrary pieces and finalized equals — in matches AND
work counters — the exact-entry batch run of the concatenated document
over the chunks the stream sealed, across execution backends; a JSON
stream's matches equal the batch run's.
Everything else (bounded residency, delta hub gap accounting,
checkpoint resume with exactly-once delivery) guards the subsystem's
"unbounded input on bounded memory" contract.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.core.engine import GapEngine, SequentialEngine
from repro.datasets import ALL_DATASETS
from repro.service import (
    QueryClient,
    QueryService,
    ServiceConfig,
    ServiceError,
    serve,
)
from repro.store import ArtifactStore
from repro.stream import (
    DeltaHub,
    StreamConflict,
    StreamDelta,
    StreamError,
    StreamManager,
    StreamSession,
    UnknownStream,
)
from repro.transducer import StackUnderflow
from repro.stream.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    stream_key,
)
from repro.xpath import clear_memo_tables, memo_info

from tests.conftest import FEED_DTD, FEED_XML, sealed_batch

XML_QUERIES = ["/feed/entry/id", "//title", "/feed/entry[id]/title"]

JSON_DOC = json.dumps({
    "feed": {
        "entry": [
            {"id": i, "title": f"t{i}", "tags": [f"a{i}", f"b{i}"]}
            for i in range(40)
        ],
        "id": "feed",
    }
})
JSON_QUERIES = ["/json/feed/entry/id", "//title"]


def pieces_of(text: str, seed: int, lo: int = 3, hi: int = 120) -> list[str]:
    rng = random.Random(seed)
    out, i = [], 0
    while i < len(text):
        j = min(len(text), i + rng.randint(lo, hi))
        out.append(text[i:j])
        i = j
    return out


def collect(session: StreamSession, parts: list[str]) -> list[StreamDelta]:
    deltas = []
    for part in parts:
        deltas.extend(session.feed(part))
    deltas.extend(session.finalize())
    return deltas


def merged_matches(deltas: list[StreamDelta]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for delta in deltas:
        for q, offs in delta.matches.items():
            out.setdefault(q, []).extend(offs)
    return out


class TestStreamVsBatch:
    """Satellite: the differential. An XML stream equals the exact-entry
    batch run over its sealed partition on matches and every counter,
    across backends, with a grammar and without; a JSON stream's matches
    equal the batch run's and its token counters the sequential run's."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_xml_differential(self, backend, seed):
        doc = ALL_DATASETS["dblp"].generate(scale=0.5, seed=7)
        grammar = ALL_DATASETS["dblp"].dtd
        queries = list(ALL_DATASETS["dblp"].queries.values())[:2]
        session = StreamSession(queries, grammar=grammar, chunk_bytes=512)
        session.sealed_log = []
        deltas = collect(session, pieces_of(doc, seed))
        batch = sealed_batch(
            GapEngine(queries, grammar=grammar, backend=backend), doc, session)
        got = merged_matches(deltas)
        for q in queries:
            assert got.get(q, []) == list(batch.matches[q])
        assert session.totals.as_dict() == batch.stats.counters.as_dict()
        assert got == {q: v for q, v in GapEngine(
            queries, grammar=grammar).run(doc).matches.items() if v}

    @pytest.mark.parametrize("memo", [False, True])
    def test_xml_differential_memo(self, memo):
        """A stream never consults the structural memo, and its matches
        equal a batch run with the memo off or on."""
        doc = ALL_DATASETS["dblp"].generate(scale=0.5, seed=7)
        grammar = ALL_DATASETS["dblp"].dtd
        queries = list(ALL_DATASETS["dblp"].queries.values())[:2]
        clear_memo_tables()
        session = StreamSession(queries, grammar=grammar, chunk_bytes=512)
        deltas = collect(session, pieces_of(doc, 1))
        assert memo_info()["tables"] == 0
        batch = GapEngine(queries, grammar=grammar, memo=memo).run(
            doc, n_chunks=1)
        assert merged_matches(deltas) == {
            q: list(v) for q, v in batch.matches.items() if v}
        info = memo_info()
        assert (info["hits"] + info["misses"] > 0) is memo

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_xml_speculative_differential(self, backend):
        # no grammar: the stream runs exactly as it does with one
        session = StreamSession(XML_QUERIES, chunk_bytes=16)
        session.sealed_log = []
        deltas = collect(session, pieces_of(FEED_XML, 3, lo=1, hi=9))
        batch = sealed_batch(GapEngine(XML_QUERIES, backend=backend),
                             FEED_XML, session)
        assert merged_matches(deltas) == {
            q: list(v) for q, v in batch.matches.items() if v
        }
        assert session.totals.as_dict() == batch.stats.counters.as_dict()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("seed", [4, 5])
    def test_json_differential(self, backend, seed):
        session = StreamSession(JSON_QUERIES, kind="json", chunk_bytes=256)
        session.sealed_log = []
        deltas = collect(session, pieces_of(JSON_DOC, seed))
        from repro.jsonstream import tokenize_json

        tokens = tokenize_json(JSON_DOC)
        batch = GapEngine(JSON_QUERIES, backend=backend).run_tokens(
            tokens, n_chunks=len(session.sealed_log))
        got = merged_matches(deltas)
        for q in JSON_QUERIES:
            assert got.get(q, []) == list(batch.matches[q])
        # every sealed chunk runs the sequential loop from its carried
        # configuration: the token counters are the sequential run's
        seq = SequentialEngine(JSON_QUERIES).run_tokens(tokens).stats.counters
        for name in ("stack_tokens", "skipped_tokens", "total_tokens",
                     "bytes_lexed"):
            assert getattr(session.totals, name) == getattr(seq, name), name

    def test_single_piece_equals_many_pieces(self):
        one = StreamSession(XML_QUERIES, grammar=FEED_DTD, chunk_bytes=32)
        many = StreamSession(XML_QUERIES, grammar=FEED_DTD, chunk_bytes=32)
        d_one = collect(one, [FEED_XML])
        d_many = collect(many, list(FEED_XML))  # one char at a time
        assert merged_matches(d_one) == merged_matches(d_many)
        assert one.totals.as_dict() == many.totals.as_dict()


class TestCarriedConfiguration:
    """Every sealed chunk runs from the configuration the previous seal
    ended in, with a grammar or without one."""

    @pytest.mark.parametrize("grammar", [None, FEED_DTD],
                             ids=["no-grammar", "dtd"])
    def test_underflow_raises_at_its_offset(self, grammar):
        head = "<feed><entry><id>1</id></entry></feed>"
        doc = head + "</feed><feed><id>2</id></feed>"
        session = StreamSession(XML_QUERIES, grammar=grammar, chunk_bytes=16)
        with pytest.raises(StreamError) as err:
            collect(session, pieces_of(doc, 1, lo=1, hi=9))
        assert isinstance(err.value.__cause__, StackUnderflow)
        assert err.value.__cause__.offset == len(head)
        # the stream stays broken, naming the same offset
        with pytest.raises(StreamError, match=f"at offset {len(head)}$"):
            session.finalize()

    def test_never_infers_the_feasible_table(self, monkeypatch):
        import repro.core.engine as engine_module

        calls = []
        real = engine_module.infer_feasible_paths
        monkeypatch.setattr(engine_module, "infer_feasible_paths",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        session = StreamSession(XML_QUERIES, grammar=FEED_DTD, chunk_bytes=16)
        assert session.engine.mode == "nonspec"
        deltas = collect(session, pieces_of(FEED_XML, 2, lo=1, hi=9))
        assert merged_matches(deltas)
        assert session.engine._table is None
        assert calls == []


class TestBoundedMemory:
    def test_resident_state_bounded_by_chunk_size(self):
        doc = ALL_DATASETS["lineitem"].generate(scale=0.5, seed=7)
        queries = list(ALL_DATASETS["lineitem"].queries.values())[:1]
        session = StreamSession(
            queries, grammar=ALL_DATASETS["lineitem"].dtd, chunk_bytes=512)
        max_tokens = max_pending = max_lag = 0
        for part in pieces_of(doc, 9):
            session.feed(part)
            max_tokens = max(max_tokens, session.resident_tokens)
            max_pending = max(max_pending, session.pending_events)
            max_lag = max(max_lag, session.lag_bytes)
        session.finalize()
        from repro.xmlstream import lex

        total_tokens = len(list(lex(doc)))
        # resident state tracks the unsealed tail, never the document:
        # one chunk's worth of tokens plus one feed piece, with slack
        assert max_tokens < total_tokens / 4
        assert max_tokens < 2 * 512  # << 1 token/byte, chunk + piece
        assert max_lag < 512 + 256 + 120  # chunk + largest tail + piece
        assert max_pending < 64

    def test_matches_not_accumulated_when_untracked(self):
        session = StreamSession(XML_QUERIES, chunk_bytes=16,
                                track_matches=False)
        collect(session, [FEED_XML])
        assert session.matches is None


class TestSnapshotRestore:
    def test_mid_stream_roundtrip_exact(self):
        doc = ALL_DATASETS["dblp"].generate(scale=0.5, seed=7)
        grammar = ALL_DATASETS["dblp"].dtd
        queries = list(ALL_DATASETS["dblp"].queries.values())[:2]
        parts = pieces_of(doc, 11)
        reference = StreamSession(queries, grammar=grammar, chunk_bytes=512)
        ref_deltas = collect(reference, parts)

        session = StreamSession(queries, grammar=grammar, chunk_bytes=512)
        cut = len(parts) // 2
        deltas = []
        for part in parts[:cut]:
            deltas.extend(session.feed(part))
        snap = session.snapshot()
        assert json.loads(json.dumps(snap)) == snap  # JSON-safe, bounded
        resumed = StreamSession(queries, grammar=grammar, chunk_bytes=512)
        resumed.restore(snap)
        assert resumed.offset == session.offset
        for part in parts[cut:]:
            deltas.extend(resumed.feed(part))
        deltas.extend(resumed.finalize())
        assert merged_matches(deltas) == merged_matches(ref_deltas)
        assert resumed.totals.as_dict() == reference.totals.as_dict()

    def test_restore_rejects_kind_mismatch(self):
        xml = StreamSession(XML_QUERIES)
        snap = xml.snapshot()
        other = StreamSession(JSON_QUERIES, kind="json")
        with pytest.raises(StreamError):
            other.restore(snap)


class TestSessionValidation:
    def test_value_predicates_rejected(self):
        with pytest.raises(StreamError):
            StreamSession(['/feed/entry[id="x"]/title'])

    def test_unknown_kind_rejected(self):
        with pytest.raises(StreamError):
            StreamSession(XML_QUERIES, kind="yaml")

    def test_feed_after_finalize_rejected(self):
        session = StreamSession(XML_QUERIES)
        collect(session, [FEED_XML])
        with pytest.raises(StreamError):
            session.feed("<feed/>")


class TestDeltaHub:
    def delta(self, i: int) -> StreamDelta:
        return StreamDelta(chunk=i, begin=i * 10, end=i * 10 + 10,
                           matches={"q": [i]})

    def test_consecutive_seqs_and_cursor_reads(self):
        hub = DeltaHub(capacity=8)
        for i in range(3):
            assert hub.publish(self.delta(i)) == i + 1
        out, gap, closed = hub.read(since=0)
        assert [d.seq for d in out] == [1, 2, 3] and gap == 0 and not closed
        out, gap, _ = hub.read(since=2)
        assert [d.seq for d in out] == [3] and gap == 0

    def test_drop_oldest_with_counted_gap(self):
        hub = DeltaHub(capacity=4)
        for i in range(10):
            hub.publish(self.delta(i))
        assert hub.dropped_total == 6
        out, gap, _ = hub.read(since=0)
        assert gap == 6  # deltas 1..6 fell off before this cursor
        assert [d.seq for d in out] == [7, 8, 9, 10]
        # a caught-up cursor sees no gap
        out, gap, _ = hub.read(since=8)
        assert gap == 0 and [d.seq for d in out] == [9, 10]

    def test_blocking_read_wakes_on_publish(self):
        hub = DeltaHub()
        result = {}

        def reader():
            result["out"] = hub.read(since=0, timeout=5.0)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        hub.publish(self.delta(0))
        t.join(timeout=5)
        assert not t.is_alive()
        assert [d.seq for d in result["out"][0]] == [1]

    def test_close_wakes_and_reports(self):
        hub = DeltaHub()
        hub.publish(self.delta(0))
        hub.close()
        out, gap, closed = hub.read(since=1, timeout=5.0)
        assert out == [] and closed
        with pytest.raises(RuntimeError):
            hub.publish(self.delta(1))

    def test_preload_restores_window_and_seq(self):
        hub = DeltaHub(capacity=8, next_seq=5)
        d = self.delta(0)
        d.seq = 5
        hub2 = DeltaHub(capacity=8, next_seq=6)
        hub2.preload([d])
        out, gap, _ = hub2.read(since=4)
        assert [x.seq for x in out] == [5]
        assert hub2.publish(self.delta(1)) == 6


class TestCheckpoint:
    def test_key_is_stable_and_discriminating(self):
        k = stream_key("n", "xml", "json", ["/a"], None, 512)
        assert k == stream_key("n", "xml", "json", ["/a"], None, 512)
        assert k != stream_key("n", "xml", "json", ["/a", "/b"], None, 512)
        assert k != stream_key("n", "json", "json", ["/a"], None, 512)
        assert k != stream_key("n", "xml", "json", ["/a"], None, 1024)

    def test_roundtrip_through_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        session = StreamSession(XML_QUERIES, grammar=FEED_DTD, chunk_bytes=16)
        deltas = session.feed(FEED_XML[:100])
        key = stream_key("s", "xml", "json", XML_QUERIES, FEED_DTD, 16)
        for i, d in enumerate(deltas):
            d.seq = i + 1
        assert save_checkpoint(store, key, session=session, name="s",
                               grammar=FEED_DTD, next_seq=len(deltas) + 1,
                               dropped=0, outbox=deltas)
        record = load_checkpoint(store, key)
        assert record["name"] == "s"
        assert record["next_seq"] == len(deltas) + 1
        assert len(record["outbox"]) == len(deltas)
        resumed = StreamSession(XML_QUERIES, grammar=FEED_DTD, chunk_bytes=16)
        resumed.restore(record["session"])
        assert resumed.offset == session.offset

    def test_corrupt_checkpoint_is_a_clean_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        session = StreamSession(XML_QUERIES, chunk_bytes=16)
        session.feed(FEED_XML[:40])
        key = stream_key("c", "xml", "json", XML_QUERIES, None, 16)
        save_checkpoint(store, key, session=session, name="c", grammar=None,
                        next_seq=1, dropped=0, outbox=[])
        payload = store.get("checkpoint", key)
        store.invalidate("checkpoint", key, "test")
        store.put("checkpoint", key, payload[:10])  # truncated
        assert load_checkpoint(store, key) is None


class TestStreamManager:
    def make(self, tmp_path=None, **kw) -> StreamManager:
        store = ArtifactStore(str(tmp_path)) if tmp_path is not None else None
        kw.setdefault("chunk_bytes", 64)
        return StreamManager(store=store, **kw)

    def test_create_is_idempotent(self):
        mgr = self.make()
        a, resumed_a = mgr.create("s", XML_QUERIES)
        b, resumed_b = mgr.create("s", XML_QUERIES)
        assert a is b and not resumed_a and not resumed_b
        c, _ = mgr.create("other", XML_QUERIES)
        assert c is not a
        mgr.close()

    def test_registry_bound(self):
        mgr = self.make(max_streams=1)
        mgr.create("one", XML_QUERIES)
        with pytest.raises(StreamError):
            mgr.create("two", XML_QUERIES)
        mgr.close()

    def test_offset_protocol(self):
        mgr = self.make()
        state, _ = mgr.create("s", XML_QUERIES)
        sid = state.stream_id
        mgr.append(sid, FEED_XML[:50], offset=0)
        # exact duplicate: ignored
        r = mgr.append(sid, FEED_XML[:50], offset=0)
        assert r["duplicate"]
        # overlap: trimmed to the new tail
        r = mgr.append(sid, FEED_XML[30:80], offset=30)
        assert not r["duplicate"] and r["offset"] == 80
        # hole: refused with the resume offset in the message
        with pytest.raises(StreamConflict):
            mgr.append(sid, "x", offset=200)
        mgr.close()

    def test_unknown_stream(self):
        mgr = self.make()
        with pytest.raises(UnknownStream):
            mgr.append("nope", "x")
        mgr.close()

    def test_finalize_drops_checkpoint_and_closes_hub(self, tmp_path):
        mgr = self.make(tmp_path)
        state, _ = mgr.create("s", XML_QUERIES)
        mgr.append(state.stream_id, FEED_XML, offset=0)
        result = mgr.finalize(state.stream_id)
        assert result["offset"] == len(FEED_XML)
        assert load_checkpoint(mgr.store, state.key) is None
        out = mgr.read_deltas(state.stream_id, since=0, max_n=100)
        assert out["closed"]
        with pytest.raises(StreamError):
            mgr.append(state.stream_id, "x")
        mgr.close()

    def test_crash_resume_is_exactly_once(self, tmp_path):
        """The pinned restart property: kill the manager (no close),
        recreate over the same store, resend from the server's offset —
        every delta seen exactly once, matches identical to batch."""
        doc = ALL_DATASETS["dblp"].generate(scale=0.5, seed=7)
        grammar = ALL_DATASETS["dblp"].dtd
        queries = list(ALL_DATASETS["dblp"].queries.values())[:2]
        parts, offsets = [], []
        off = 0
        for part in pieces_of(doc, 21):
            parts.append(part)
            offsets.append(off)
            off += len(part)

        seen: dict[int, dict] = {}

        def drain(mgr, sid):
            cursor = max(seen, default=0)
            while True:
                out = mgr.read_deltas(sid, since=cursor, max_n=500,
                                      timeout=0)
                assert out["gap"] == 0
                if not out["deltas"]:
                    return
                for d in out["deltas"]:
                    assert d["seq"] not in seen, "duplicate across crash"
                    seen[d["seq"]] = d
                    cursor = d["seq"]
            # missed deltas would surface as a hole in the seq space —
            # checked at the end via consecutive numbering

        mgr = self.make(tmp_path, chunk_bytes=256)
        state, resumed = mgr.create("cr", queries, grammar=grammar)
        assert not resumed
        sid = state.stream_id
        cut = len(parts) // 2
        for part, off in zip(parts[:cut], offsets[:cut]):
            mgr.append(sid, part, offset=off)
        drain(mgr, sid)
        # hard crash: no close(), new manager over the same store
        mgr2 = self.make(tmp_path, chunk_bytes=256)
        state2, resumed = mgr2.create("cr", queries, grammar=grammar)
        assert resumed and state2.stream_id == sid
        resume_off = state2.session.offset
        assert resume_off <= sum(len(p) for p in parts[:cut])
        for part, off in zip(parts, offsets):
            if off + len(part) <= resume_off:
                continue
            mgr2.append(sid, part, offset=off)
        drain(mgr2, sid)
        mgr2.finalize(sid)
        drain(mgr2, sid)
        # no missed deltas: consecutive sequence space from 1
        assert sorted(seen) == list(range(1, len(seen) + 1))
        batch = GapEngine(queries, grammar=grammar).run(doc, n_chunks=4)
        got: dict[str, list[int]] = {}
        for s in sorted(seen):
            for q, offs in seen[s]["matches"].items():
                got.setdefault(q, []).extend(offs)
        for q in queries:
            assert sorted(got.get(q, [])) == sorted(batch.matches[q])
        mgr2.close()

    def test_graceful_close_checkpoints_open_streams(self, tmp_path):
        mgr = self.make(tmp_path, chunk_bytes=64)
        state, _ = mgr.create("g", XML_QUERIES)
        mgr.append(state.stream_id, FEED_XML, offset=0)
        mgr.close()
        record = load_checkpoint(mgr.store, state.key)
        assert record is not None and record["outbox"] == []
        mgr2 = self.make(tmp_path, chunk_bytes=64)
        state2, resumed = mgr2.create("g", XML_QUERIES)
        assert resumed and state2.session.offset > 0
        mgr2.close()

    def test_slow_subscriber_gets_gap_marker(self):
        mgr = self.make(delta_buffer=2, chunk_bytes=32)
        state, _ = mgr.create("slow", XML_QUERIES)
        doc = "<feed>" + "".join(
            f"<entry><id>{i}</id><title>t{i}</title></entry>"
            for i in range(24)
        ) + "</feed>"
        mgr.append(state.stream_id, doc, offset=0)
        mgr.finalize(state.stream_id)
        published = state.hub.next_seq - 1
        assert published > 2  # the ring actually overflowed
        out = mgr.read_deltas(state.stream_id, since=0, max_n=100)
        assert out["gap"] == published - 2
        assert [d["seq"] for d in out["deltas"]] == \
            [published - 1, published]
        mgr.close()

    def test_malformed_append_publishes_then_refuses(self, tmp_path):
        """An end tag past the root breaks the stream: the chunks sealed
        before it still publish and checkpoint, then every write is a
        StreamError naming its offset, and delete still works."""
        queries = ["/feed/entry/id", "//id"]
        head = "<feed><entry><id>1</id></entry>"
        tail = ("<entry><id>2</id></entry></feed></feed>"
                "<feed><entry><id>3</id></entry></feed>")
        bad = f"at offset {(head + tail).index('</feed></feed>') + 7}$"
        mgr = self.make(tmp_path, chunk_bytes=16)
        state, _ = mgr.create("bad", queries)
        sid = state.stream_id
        mgr.append(sid, head, offset=0)
        with pytest.raises(StreamError, match=bad) as err:
            mgr.append(sid, tail, offset=len(head))
        assert isinstance(err.value.__cause__, StackUnderflow)
        # the failing append's good chunks were delivered and persisted
        out = mgr.read_deltas(sid, since=0, max_n=100)
        got = merged_matches(StreamDelta(**{k: d[k] for k in (
            "chunk", "begin", "end", "matches")}) for d in out["deltas"])
        assert got == {q: [13, 38] for q in queries}
        record = load_checkpoint(mgr.store, state.key)
        assert record["next_seq"] == state.hub.next_seq
        assert record["session"]["next_begin"] == state.session.committed
        for call in (lambda: mgr.append(sid, tail, offset=len(head)),
                     lambda: mgr.append(sid, "<feed/>"),
                     lambda: mgr.finalize(sid)):
            with pytest.raises(StreamError, match=bad):
                call()
        # a restart resumes the broken stream broken
        mgr2 = self.make(tmp_path, chunk_bytes=16)
        state2, resumed = mgr2.create("bad", queries)
        assert resumed
        with pytest.raises(StreamError, match=bad):
            mgr2.append(sid, tail, offset=len(head))
        mgr2.close()
        assert mgr.delete(sid) == {"deleted": sid}
        with pytest.raises(UnknownStream):
            mgr.get(sid)
        mgr.close()

    def test_stats_and_series_surface(self):
        mgr = self.make(metrics=__import__(
            "repro.obs.metrics", fromlist=["MetricsRegistry"]
        ).MetricsRegistry())
        state, _ = mgr.create("s", XML_QUERIES)
        mgr.append(state.stream_id, FEED_XML, offset=0)
        stats = mgr.stats()
        assert stats["open"] == 1
        assert stats["streams"][0]["offset"] == len(FEED_XML)
        series = mgr.series()
        assert series["stream_bytes"][0] == len(FEED_XML)
        assert series["streams_open"] == (1.0, "gauge")
        assert series["stream_sealed"][1] == "counter"
        mgr.close()


class TestStreamHTTP:
    """The wire: create/append/deltas/SSE/finalize over a real socket
    on an ephemeral port, including resume across a daemon restart."""

    @staticmethod
    def start(tmp_path=None, **overrides):
        config = ServiceConfig(
            backend="serial", workers=2,
            stream_chunk_bytes=overrides.pop("stream_chunk_bytes", 64),
            artifact_store=str(tmp_path) if tmp_path is not None else None,
            collector=False, request_tracing=False, **overrides)
        server = serve("127.0.0.1", 0, QueryService(config))
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        client = QueryClient(
            "127.0.0.1", server.server_address[1], timeout=30.0)
        client.wait_healthy()
        return client, thread

    @staticmethod
    def stop(client, thread):
        try:
            client.shutdown()
        except (OSError, ServiceError):
            pass
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_round_trip_long_poll(self):
        client, thread = self.start()
        try:
            created = client.stream_create(
                "feed", XML_QUERIES, grammar=FEED_DTD, chunk_bytes=32)
            sid = created["stream_id"]
            assert not created["resumed"] and created["offset"] == 0
            off = 0
            for part in pieces_of(FEED_XML, 6, lo=4, hi=19):
                out = client.stream_append(sid, part, offset=off)
                off += len(part)
                assert out["offset"] == off
            # idempotent replay of the last piece is a no-op
            assert client.stream_append(sid, part, offset=off - len(part))[
                "duplicate"]
            with pytest.raises(ServiceError) as err:
                client.stream_append(sid, "<hole/>", offset=off + 10)
            assert err.value.status == 409
            final = client.stream_finalize(sid)
            assert final["offset"] == len(FEED_XML)
            out = client.stream_deltas(sid, since=0, n=500)
            assert out["closed"] and out["gap"] == 0
            got: dict[str, list[int]] = {}
            for d in out["deltas"]:
                for q, offs in d["matches"].items():
                    got.setdefault(q, []).extend(offs)
            batch = GapEngine(XML_QUERIES, grammar=FEED_DTD).run(FEED_XML)
            assert got == {q: list(v)
                           for q, v in batch.matches.items() if v}
            assert [s["stream_id"] for s in client.streams()] == [sid]
        finally:
            self.stop(client, thread)

    def test_malformed_append_is_a_400(self):
        client, thread = self.start()
        try:
            sid = client.stream_create(
                "bad", ["//id"], chunk_bytes=16)["stream_id"]
            head = "<feed><id>1</id></feed>"
            client.stream_append(sid, head, offset=0)
            tail = "</feed><feed><id>2</id></feed><feed><id>3</id></feed>"
            for _ in range(2):  # the failing append, then its resend
                with pytest.raises(ServiceError) as err:
                    client.stream_append(sid, tail, offset=len(head))
                assert err.value.status == 400
                assert f"at offset {len(head)}" in str(err.value)
            with pytest.raises(ServiceError) as err:
                client.stream_finalize(sid)
            assert err.value.status == 400
            assert client.stream_delete(sid) == {"deleted": sid}
        finally:
            self.stop(client, thread)

    def test_sse_subscription_sees_every_delta(self):
        client, thread = self.start()
        try:
            sid = client.stream_create(
                "sse", XML_QUERIES, grammar=FEED_DTD,
                chunk_bytes=16)["stream_id"]

            def writer():
                off = 0
                for part in pieces_of(FEED_XML, 8, lo=3, hi=11):
                    client.stream_append(sid, part, offset=off)
                    off += len(part)
                    time.sleep(0.002)
                client.stream_finalize(sid)

            feeder = threading.Thread(target=writer, daemon=True)
            feeder.start()
            seqs, got = [], {}
            for event, seq, data in client.stream_events(sid, since=0):
                if event == "delta":
                    seqs.append(seq)
                    for q, offs in data["matches"].items():
                        got.setdefault(q, []).extend(offs)
                elif event == "gap":
                    pytest.fail(f"subscriber missed {data} deltas")
            feeder.join(timeout=10.0)
            assert seqs == list(range(1, len(seqs) + 1))
            batch = GapEngine(XML_QUERIES, grammar=FEED_DTD).run(FEED_XML)
            assert got == {q: list(v)
                           for q, v in batch.matches.items() if v}
        finally:
            self.stop(client, thread)

    def test_restart_resumes_without_duplicate_or_missed(self, tmp_path):
        doc = ALL_DATASETS["dblp"].generate(scale=0.5, seed=7)
        grammar = ALL_DATASETS["dblp"].dtd
        queries = list(ALL_DATASETS["dblp"].queries.values())[:2]
        parts = pieces_of(doc, 13)
        seen: dict[int, dict] = {}

        def drain(client, sid):
            cursor = max(seen, default=0)
            while True:
                out = client.stream_deltas(sid, since=cursor, n=500)
                assert out["gap"] == 0
                if not out["deltas"]:
                    return
                for d in out["deltas"]:
                    assert d["seq"] not in seen, "duplicate across restart"
                    seen[d["seq"]] = d
                    cursor = d["seq"]

        client, thread = self.start(tmp_path, stream_chunk_bytes=512)
        sid = client.stream_create("cr", queries, grammar=grammar)["stream_id"]
        off, cut = 0, len(parts) // 2
        for part in parts[:cut]:
            client.stream_append(sid, part, offset=off)
            off += len(part)
        drain(client, sid)
        self.stop(client, thread)  # graceful: checkpoints the stream

        client, thread = self.start(tmp_path, stream_chunk_bytes=512)
        try:
            created = client.stream_create("cr", queries, grammar=grammar)
            assert created["resumed"] and created["stream_id"] == sid
            resume_off = created["offset"]
            assert resume_off == off  # graceful close loses nothing
            for part in parts[cut:]:
                client.stream_append(sid, part, offset=off)
                off += len(part)
            client.stream_finalize(sid)
            drain(client, sid)
            assert sorted(seen) == list(range(1, len(seen) + 1))
            got: dict[str, list[int]] = {}
            for s in sorted(seen):
                for q, offs in seen[s]["matches"].items():
                    got.setdefault(q, []).extend(offs)
            batch = GapEngine(queries, grammar=grammar).run(doc, n_chunks=4)
            for q in queries:
                assert sorted(got.get(q, [])) == sorted(batch.matches[q])
        finally:
            self.stop(client, thread)

    def test_tail_connect_resumes_non_ascii_file(self, tmp_path, monkeypatch,
                                                  capsys):
        # stream offsets count characters; on this file they differ from
        # UTF-8 byte positions, so the resumed writer must skip the
        # committed prefix by characters, not seek() to it
        doc = ("<feed>" + "".join(
            f"<entry><id>é-{i}</id><title>Ünïcode ✓ {i} 字</title></entry>"
            for i in range(60)) + "<id>fin</id></feed>")
        path = tmp_path / "feed.xml"
        path.write_text(doc, encoding="utf-8")
        dtd = tmp_path / "feed.dtd"
        dtd.write_text(FEED_DTD, encoding="utf-8")
        store = tmp_path / "store"
        fed: list[str] = []
        real_feed = StreamSession.feed

        def recording_feed(session, piece):
            fed.append(piece)
            return real_feed(session, piece)

        monkeypatch.setattr(StreamSession, "feed", recording_feed)
        seen: dict[int, dict] = {}

        client, thread = self.start(store)
        sid = client.stream_create("nonascii", XML_QUERIES, grammar=FEED_DTD,
                                   root="json", chunk_bytes=64)["stream_id"]
        cut = len(doc) // 2
        assert len(doc[:cut].encode("utf-8")) > cut
        for off in range(0, cut, 37):
            client.stream_append(sid, doc[off:min(off + 37, cut)], offset=off)
        for d in client.stream_deltas(sid, since=0, n=500)["deltas"]:
            seen[d["seq"]] = d["matches"]
        self.stop(client, thread)  # graceful: checkpoints the stream

        client, thread = self.start(store)
        try:
            port = client.port
            capsys.readouterr()
            assert cli_main([
                "tail", str(path), "-g", str(dtd), "--name", "nonascii",
                "--chunk-bytes", "64", "--connect", f"127.0.0.1:{port}",
                *(arg for q in XML_QUERIES for arg in ("-q", q)),
            ]) == 0
            captured = capsys.readouterr()
            assert "# resumed stream" in captured.err
            for line in captured.out.splitlines():
                d = json.loads(line)
                seen[d["seq"]] = d["matches"]
        finally:
            self.stop(client, thread)
        assert "".join(fed) == doc
        assert sorted(seen) == list(range(1, len(seen) + 1))
        got: dict[str, list[int]] = {}
        for s in sorted(seen):
            for q, offs in seen[s].items():
                got.setdefault(q, []).extend(offs)
        batch = GapEngine(XML_QUERIES, grammar=FEED_DTD).run(doc)
        assert got == {q: list(v) for q, v in batch.matches.items() if v}

    def test_error_codes(self):
        client, thread = self.start()
        try:
            for op in (lambda: client.stream_status("nope"),
                       lambda: client.stream_append("nope", "<x/>"),
                       lambda: client.stream_delete("nope")):
                with pytest.raises(ServiceError) as err:
                    op()
                assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.stream_create("bad", ["not an xpath"])
            assert err.value.status == 400
            sid = client.stream_create("ok", XML_QUERIES)["stream_id"]
            assert "streams" in client.varz()
            client.stream_delete(sid)
            assert client.streams() == []
        finally:
            self.stop(client, thread)
