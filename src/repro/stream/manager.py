"""The service's stream registry: live tails, delivery, checkpoints.

One :class:`StreamManager` lives inside the query service and owns
every open stream: a :class:`~repro.stream.session.StreamSession`
(incremental evaluation) paired with a
:class:`~repro.stream.hub.DeltaHub` (bounded delivery) and, when the
daemon runs with an artifact store, a checkpoint under the stream's
stable identity key.

Concurrency: one lock per stream serialises appends/finalize (the
evaluation pipeline is inherently ordered); the manager-level lock
only guards the registry map.  Subscribers never hold either — they
block on the hub's condition.

Append idempotency: every append carries the writer's offset (in code
points); text at already-consumed offsets is trimmed (duplicate-safe resend
after a reconnect), a gap raises ``409``-mapped :class:`StreamConflict`
— so "resume from the server's offset" is the entire client-side
recovery protocol.

Malformed input breaks a stream: the failing append publishes and
checkpoints the chunks it sealed before the bad one, then raises
``400``-mapped :class:`StreamError` naming the offset, as does every
later append (resends included) and ``finalize``; ``delete`` still
removes it.

Exactly-once across restart: checkpoints are written *before* the
append's deltas are published (outbox pattern — see
:mod:`repro.stream.checkpoint`).
"""

from __future__ import annotations

import threading
import time

from ..jsonstream.tokenizer import DEFAULT_ROOT
from ..obs.journal import NULL_JOURNAL
from .checkpoint import (drop_checkpoint, load_checkpoint, outbox_deltas,
                         save_checkpoint, stream_key)
from .hub import DeltaHub
from .session import DEFAULT_CHUNK_BYTES, KINDS, StreamError, StreamSession
from .session import StreamDelta  # noqa: F401  (re-export for the server)

__all__ = ["StreamManager", "StreamState", "StreamConflict",
           "UnknownStream"]


class UnknownStream(KeyError):
    """The stream id does not name a live stream."""

    def __init__(self, stream_id: str) -> None:
        super().__init__(stream_id)
        self.stream_id = stream_id

    def __str__(self) -> str:
        return f"unknown stream {self.stream_id!r}"


class StreamConflict(RuntimeError):
    """An append left a hole (writer offset beyond the stream's end)."""


class StreamState:
    """One live stream: session + hub + identity + append serialisation."""

    def __init__(self, stream_id: str, key: str, name: str,
                 session: StreamSession, hub: DeltaHub,
                 grammar: str | None) -> None:
        self.stream_id = stream_id
        self.key = key
        self.name = name
        self.session = session
        self.hub = hub
        self.grammar = grammar
        self.lock = threading.Lock()
        self.created = time.time()
        self.appends = 0
        self.finalized = False

    def status(self) -> dict:
        s = self.session
        return {
            "stream_id": self.stream_id,
            "name": self.name,
            "kind": s.kind,
            "queries": s.queries,
            "offset": s.offset,
            "committed": s.committed,
            "lag_bytes": s.lag_bytes,
            "chunks_sealed": s.chunks_sealed,
            "appends": self.appends,
            "next_seq": self.hub.next_seq,
            "delivered": self.hub.delivered_total,
            "dropped": self.hub.dropped_total,
            "finalized": self.finalized,
        }


class StreamManager:
    """Registry + delivery + persistence for the service's streams."""

    def __init__(
        self,
        store=None,
        metrics=None,
        journal=None,
        obs_lock: threading.Lock | None = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        delta_buffer: int = 256,
        max_streams: int = 16,
    ) -> None:
        self.store = store
        self.journal = journal if journal is not None else NULL_JOURNAL
        self._obs_lock = obs_lock or threading.Lock()
        self.chunk_bytes = int(chunk_bytes)
        self.delta_buffer = int(delta_buffer)
        self.max_streams = int(max_streams)
        self._lock = threading.Lock()
        self._streams: dict[str, StreamState] = {}
        self._closed = False
        # counters survive stream deletion so the time series are
        # monotonic; resumed streams re-base them from the checkpoint
        self._c_bytes = self._counter(metrics, "repro_stream_bytes_total",
                                      "Bytes appended to streams")
        self._c_sealed = self._counter(metrics, "repro_stream_sealed_total",
                                       "Chunks sealed and evaluated")
        self._c_deltas = self._counter(metrics, "repro_stream_deltas_total",
                                       "Match deltas published")
        self._c_delivered = self._counter(
            metrics, "repro_stream_delivered_total",
            "Deltas handed to subscribers")
        self._c_dropped = self._counter(
            metrics, "repro_stream_dropped_total",
            "Deltas dropped before a slow subscriber read them")
        self._g_streams = self._gauge(metrics, "repro_stream_open",
                                      "Open (unfinalized) streams")
        self._g_lag = self._gauge(metrics, "repro_stream_lag_bytes",
                                  "Max bytes fed but not yet evaluated")

    @staticmethod
    def _counter(metrics, name: str, help: str):
        return metrics.counter(name, help) if metrics is not None else None

    @staticmethod
    def _gauge(metrics, name: str, help: str):
        return metrics.gauge(name, help) if metrics is not None else None

    # metric mutations ride the shared obs lock: the service renders
    # and iterates the registry under it (lock order: stream lock ->
    # obs lock, same as the journal helper below)
    def _inc(self, metric, amount: float = 1) -> None:
        if metric is not None:
            with self._obs_lock:
                metric.inc(amount)

    def _set(self, metric, value: float) -> None:
        if metric is not None:
            with self._obs_lock:
                metric.set(value)

    def _record(self, kind: str, **args) -> None:
        if self.journal.enabled:
            with self._obs_lock:
                self.journal.record(kind, **args)

    # -- registry ------------------------------------------------------

    def create(self, name: str, queries: list[str],
               grammar: str | None = None, kind: str = "xml",
               root_name: str = DEFAULT_ROOT,
               chunk_bytes: int | None = None) -> tuple[StreamState, bool]:
        """Open (or re-attach to) a stream; returns ``(state, resumed)``.

        The stream id is a hash of everything that defines the stream,
        so an identical ``create`` after a daemon restart maps to the
        same id — and, with an artifact store, resumes from the
        persisted checkpoint (``resumed=True``): the caller should
        continue appending from ``state.session.offset``.
        """
        if kind not in KINDS:
            raise StreamError(f"unknown stream kind {kind!r} (choose from {KINDS})")
        size = int(chunk_bytes) if chunk_bytes else self.chunk_bytes
        key = stream_key(name, kind, root_name, [str(q) for q in queries],
                         grammar, size)
        stream_id = key[:16]
        with self._lock:
            if self._closed:
                raise StreamError("the stream manager is shut down")
            existing = self._streams.get(stream_id)
            if existing is not None:
                return existing, False
            if len(self._streams) >= self.max_streams:
                raise StreamError(
                    f"stream registry full ({self.max_streams} open streams)")
        # construction (query compilation) happens outside the registry
        # lock; the double-check below resolves races on the same id
        session = StreamSession(
            queries, grammar=grammar, kind=kind, root_name=root_name,
            chunk_bytes=size, track_matches=False,
        )
        resumed = False
        next_seq, dropped = 1, 0
        outbox: list[StreamDelta] = []
        if self.store is not None:
            record = load_checkpoint(self.store, key)
            if record is not None:
                session.restore(record["session"])
                next_seq = record["next_seq"]
                dropped = record["dropped"]
                outbox = outbox_deltas(record)
                resumed = True
        hub = DeltaHub(self.delta_buffer, next_seq=next_seq, dropped=dropped)
        if outbox:
            hub.preload(outbox)
        state = StreamState(stream_id, key, name, session, hub, grammar)
        with self._lock:
            raced = self._streams.get(stream_id)
            if raced is not None:
                return raced, False
            self._streams[stream_id] = state
        self._inc(self._g_streams)
        self._record("stream_ingest", tag=stream_id, offset=session.offset,
                     op="create", resumed=resumed, input=kind,
                     queries=len(session.queries))
        return state, resumed

    def get(self, stream_id: str) -> StreamState:
        with self._lock:
            state = self._streams.get(stream_id)
        if state is None:
            raise UnknownStream(stream_id)
        return state

    def list(self) -> list[dict]:
        with self._lock:
            states = list(self._streams.values())
        return [s.status() for s in states]

    # -- ingestion -----------------------------------------------------

    def append(self, stream_id: str, data: str,
               offset: int | None = None) -> dict:
        """Feed bytes; seal/evaluate/checkpoint/publish as needed.

        ``offset`` is the writer's global position of ``data[0]``;
        ``None`` trusts the server's cursor.  Overlap with already
        consumed bytes is trimmed (idempotent resend); a hole raises
        :class:`StreamConflict`.
        """
        state = self.get(stream_id)
        with state.lock:
            if state.finalized:
                raise StreamError(f"stream {stream_id} is finalized")
            session = state.session
            if session.error is not None:
                # refuse before the resend check: a broken stream
                # acknowledges nothing, not even bytes it already has
                raise StreamError(session.error)
            have = session.offset
            if offset is not None:
                if offset > have:
                    raise StreamConflict(
                        f"append at {offset} leaves a hole (stream has {have} "
                        f"bytes) — resend from {have}")
                skip = have - offset
                if skip >= len(data):
                    return {"offset": have, "duplicate": True, "sealed": 0,
                            "deltas": 0}
                data = data[skip:]
            sealed_before = session.chunks_sealed
            try:
                deltas = session.feed(data)
            except StreamError as exc:
                # the chunks sealed before malformed input still count
                self._publish(state, exc.deltas,
                              session.chunks_sealed - sealed_before)
                raise
            sealed = session.chunks_sealed - sealed_before
            self._publish(state, deltas, sealed)
            state.appends += 1
            result = {"offset": session.offset, "duplicate": False,
                      "sealed": sealed, "deltas": len(deltas),
                      "lag_bytes": session.lag_bytes}
        self._inc(self._c_bytes, len(data))
        self._record("stream_ingest", tag=stream_id, offset=result["offset"],
                     bytes=len(data), sealed=sealed, deltas=result["deltas"])
        return result

    def finalize(self, stream_id: str) -> dict:
        """End of stream: flush, publish the last deltas, drop the
        checkpoint (a finalized stream has nothing to resume)."""
        state = self.get(stream_id)
        with state.lock:
            if state.finalized:
                raise StreamError(f"stream {stream_id} is finalized")
            session = state.session
            sealed_before = session.chunks_sealed
            try:
                deltas = session.finalize()
            except StreamError as exc:
                self._publish(state, exc.deltas,
                              session.chunks_sealed - sealed_before)
                raise
            state.finalized = True
            self._publish(state, deltas, session.chunks_sealed - sealed_before,
                          final=True)
            state.hub.close()
        self._inc(self._g_streams, -1)
        if self.store is not None:
            drop_checkpoint(self.store, state.key)
        self._record("stream_ingest", tag=stream_id, offset=session.offset,
                     op="finalize", chunks=session.chunks_sealed,
                     deltas=len(deltas))
        return {
            "offset": session.offset,
            "chunks": session.chunks_sealed,
            "deltas": len(deltas),
            "counters": session.totals.as_dict(),
            "final_state": session.final_state,
        }

    def delete(self, stream_id: str) -> dict:
        state = self.get(stream_id)
        with state.lock:
            state.hub.close()
            if not state.finalized:
                state.finalized = True
                self._inc(self._g_streams, -1)
        with self._lock:
            self._streams.pop(stream_id, None)
        if self.store is not None:
            drop_checkpoint(self.store, state.key)
        self._record("stream_ingest", tag=stream_id, op="delete",
                     offset=state.session.offset)
        return {"deleted": stream_id}

    def _publish(self, state: StreamState, deltas, sealed: int,
                 final: bool = False) -> None:
        """Checkpoint (outbox-first), then hand deltas to the hub.

        Caller holds ``state.lock``.  The checkpoint precedes delivery
        so a crash between the two re-delivers from the outbox instead
        of losing acknowledged-but-unpushed matches.
        """
        session = state.session
        if sealed:
            self._inc(self._c_sealed, sealed)
            self._record("stream_seal", tag=state.stream_id,
                         offset=session.committed, chunks=sealed,
                         total=session.chunks_sealed)
        if self.store is not None and sealed and not final:
            # seq numbers must be final before the outbox is persisted
            seq = state.hub.next_seq
            for d in deltas:
                d.seq = seq
                seq += 1
            save_checkpoint(self.store, state.key, session=session,
                            name=state.name, grammar=state.grammar,
                            next_seq=seq, dropped=state.hub.dropped_total,
                            outbox=deltas)
        dropped_before = state.hub.dropped_total
        for d in deltas:
            state.hub.publish(d)
            self._record("stream_deliver", tag=state.stream_id,
                         offset=d.begin, seq=d.seq, matches=d.total,
                         chunk=d.chunk)
        if deltas:
            self._inc(self._c_deltas, len(deltas))
        dropped = state.hub.dropped_total - dropped_before
        if dropped:
            self._inc(self._c_dropped, dropped)
            self._record("stream_drop", tag=state.stream_id,
                         offset=session.committed, dropped=dropped)

    # -- delivery ------------------------------------------------------

    def read_deltas(self, stream_id: str, since: int = 0, max_n: int = 64,
                    timeout: float | None = None) -> dict:
        """Long-poll read: deltas after ``since`` plus the gap count."""
        state = self.get(stream_id)
        deltas, gap, closed = state.hub.read(since, max_n, timeout)
        if deltas:
            self._inc(self._c_delivered, len(deltas))
        return {
            "stream_id": stream_id,
            "deltas": [d.to_dict() for d in deltas],
            "gap": gap,
            "closed": closed,
            "next_seq": state.hub.next_seq,
        }

    # -- observability -------------------------------------------------

    def stats(self) -> dict:
        """Aggregate snapshot for ``/varz`` and the telemetry series."""
        states = self.list()
        open_streams = [s for s in states if not s["finalized"]]
        max_lag = max((s["lag_bytes"] for s in open_streams), default=0)
        stats = {
            "open": len(open_streams),
            "streams": states,
            "max_lag_bytes": max_lag,
        }
        self._set(self._g_lag, max_lag)
        return stats

    def series(self) -> dict[str, tuple[float, str]]:
        """Stream time series for the collector: name → (value, kind)."""
        states = self.list()
        open_streams = [s for s in states if not s["finalized"]]
        max_lag = max((s["lag_bytes"] for s in open_streams), default=0)
        self._set(self._g_lag, max_lag)
        return {
            "stream_lag_bytes": (float(max_lag), "gauge"),
            "streams_open": (float(len(open_streams)), "gauge"),
            "stream_bytes": (self._c_bytes.value if self._c_bytes else 0.0,
                             "counter"),
            "stream_sealed": (self._c_sealed.value if self._c_sealed else 0.0,
                              "counter"),
            "stream_deltas": (self._c_deltas.value if self._c_deltas else 0.0,
                              "counter"),
            "stream_delivered": (
                self._c_delivered.value if self._c_delivered else 0.0,
                "counter"),
            "stream_dropped": (
                self._c_dropped.value if self._c_dropped else 0.0, "counter"),
        }

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: checkpoint every live stream, wake readers.

        The shutdown checkpoint has an empty outbox — everything sealed
        was already published, and the ring's undelivered tail is
        accounted to reconnecting subscribers as a gap.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            states = list(self._streams.values())
        for state in states:
            with state.lock:
                if self.store is not None and not state.finalized and \
                        state.session.chunks_sealed:
                    save_checkpoint(
                        self.store, state.key, session=state.session,
                        name=state.name, grammar=state.grammar,
                        next_seq=state.hub.next_seq,
                        dropped=state.hub.dropped_total, outbox=[])
                state.hub.close()
