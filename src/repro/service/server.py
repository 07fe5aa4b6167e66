"""HTTP front end for the query service (``repro serve``).

A deliberately small JSON-over-HTTP protocol on stdlib
:mod:`http.server` (one daemon thread per connection via
:class:`ThreadingHTTPServer`; the real concurrency control is the
service's bounded queue, not the socket layer):

====================  =====================================================
``GET  /healthz``     liveness: ``{"status": "ok", "documents": N}``
``GET  /metrics``     Prometheus text exposition (the service registry)
``GET  /journal``     request-lifecycle journal as JSONL (bounded);
                      ``?n=``/``?since=`` limit to the newest ``n``
                      events / events after sequence number ``since``
``GET  /varz``        one JSON snapshot of the operator surface
                      (gauges, counters, latency percentiles, slow
                      log; ``?n=``/``?since=`` bound the slow-log
                      entries, ``?history=`` includes that many
                      telemetry points per series) — what ``repro
                      top`` and ``repro monitor`` poll
``GET  /statusz``     the same snapshot as a self-contained HTML
                      dashboard (no scripts, no external assets)
``GET  /alertz``      SLO/alert rule states, firing set and recent
                      transitions (JSON)
``GET  /profilez``    collapsed-stack profile; ``?seconds=N`` runs an
                      on-demand capture (clamped to 30 s), no
                      ``seconds`` returns the continuous ``--sample``
                      profile (400 when sampling is off);
                      ``?format=flame`` renders the self-contained
                      HTML flame view instead of collapsed text
``GET  /documents``   registered documents and their preparation summary
``POST /documents``   ingest: ``{"content": ..., "name"?, "grammar"?,
                      "n_chunks"?}`` (or ``{"path": ...}`` to read a
                      server-local file) → ``201 {"doc_id": ...}``
``DELETE /documents/ID``  drop one document
``POST /query``       ``{"doc": ID, "queries": [...], "deadline"?: s}``
                      → ``200`` response (matches/counts/batch/stats)
``POST /shutdown``    graceful stop: ack, then the server loop exits
``GET  /streams``     open streams and their ingest/delivery status
``POST /streams``     open (or resume) a continuous query:
                      ``{"name", "queries": [...], "grammar"?, "kind"?,
                      "root"?, "chunk_bytes"?}`` → ``201`` status with
                      ``resumed`` and the server's ``offset`` (the
                      byte position a resuming writer continues from)
``GET  /streams/ID``  one stream's status
``POST /streams/ID/append``    ``{"data": ..., "offset"?: N}`` —
                      offset-idempotent ingest: overlap is trimmed,
                      a hole → 409 with the server's offset
``POST /streams/ID/finalize``  end of stream: flush + final deltas
``DELETE /streams/ID``         drop the stream and its checkpoint
``GET  /streams/ID/deltas``    long-poll: ``?since=SEQ&n=&timeout=`` →
                      deltas after ``since`` plus a counted ``gap``
``GET  /streams/ID/sse``       the same cursor as server-sent events
                      (``id:`` = seq; ``gap``/``end`` event frames)
====================  =====================================================

Error mapping: unknown document/stream → 404, full queue or registry →
429, append holes → 409, expired deadline → 504, bad request body →
400, engine errors → 500.  Every response is JSON with an ``error``
field on failure (SSE excepted — it is an event stream).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..core.engine import EngineError
from ..obs.logsetup import get_logger
from ..stream import StreamConflict, StreamError, UnknownStream
from .batching import DeadlineExceeded, QueueFull, ServiceClosed
from .registry import RegistryFull, UnknownDocument
from .service import QueryService

__all__ = ["ServiceServer", "serve"]

logger = get_logger("service.server")

#: ingestion bodies are bounded (64 MiB) so one request cannot OOM the
#: daemon; raise via ServiceConfig-sized deployments, not here
MAX_BODY = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    # the ThreadingHTTPServer subclass carries the service reference
    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: object) -> None:
        logger.debug("%s %s", self.address_string(), fmt % args)

    # -- plumbing ------------------------------------------------------

    def _send(self, code: int, payload: dict | str,
              content_type: str = "application/json") -> None:
        body = (json.dumps(payload).encode("utf-8") + b"\n"
                if isinstance(payload, dict) else payload.encode("utf-8"))
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def _error(self, code: int, message: str) -> None:
        self._send(code, {"error": message})

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    @staticmethod
    def _int_param(params: dict, key: str) -> int | None:
        """Parse one optional non-negative integer query parameter.

        Raises :class:`ValueError` (→ 400) on anything that is not a
        plain base-10 non-negative integer, including repeats.
        """
        values = params.get(key)
        if values is None:
            return None
        if len(values) != 1:
            raise ValueError(f"'{key}' given more than once")
        raw = values[0]
        try:
            value = int(raw, 10)
        except ValueError:
            raise ValueError(f"'{key}' must be an integer, got {raw!r}") from None
        if value < 0:
            raise ValueError(f"'{key}' must be >= 0, got {value}")
        return value

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        parts = urlsplit(self.path)
        route = parts.path
        try:
            params = parse_qs(parts.query, keep_blank_values=True,
                              strict_parsing=bool(parts.query))
            n = self._int_param(params, "n")
            since = self._int_param(params, "since")
            history = self._int_param(params, "history")
            seconds = self._int_param(params, "seconds")
            fmt = self._str_param(params, "format", ("collapsed", "flame"))
        except ValueError as exc:
            self._error(400, f"bad query string: {exc}")
            return
        if route == "/healthz":
            self._send(200, {"status": "ok",
                             "documents": len(self.service.registry)})
        elif route == "/metrics":
            self._send(200, self.service.metrics_text(),
                       content_type="text/plain; version=0.0.4")
        elif route == "/journal":
            self._send(200, self.service.journal_jsonl(n=n, since=since),
                       content_type="application/jsonl")
        elif route == "/varz":
            self._send(200, self.service.varz(slow_n=n, slow_since=since,
                                              history=history or 0))
        elif route == "/statusz":
            self._send(200, self.service.statusz_html(),
                       content_type="text/html; charset=utf-8")
        elif route == "/alertz":
            self._send(200, self.service.alerts.to_dict())
        elif route == "/profilez":
            self._get_profilez(seconds, fmt)
        elif route == "/documents":
            self._send(200, {"documents": self.service.registry.list()})
        elif route == "/streams":
            self._send(200, {"streams": self.service.streams.list()})
        elif route.startswith("/streams/"):
            self._get_stream(route, params, n, since)
        else:
            self._error(404, f"no route {self.path}")

    @staticmethod
    def _str_param(params: dict, key: str,
                   allowed: tuple[str, ...]) -> str | None:
        """Parse one optional enumerated string query parameter."""
        values = params.get(key)
        if values is None:
            return None
        if len(values) != 1:
            raise ValueError(f"'{key}' given more than once")
        raw = values[0]
        if raw not in allowed:
            raise ValueError(f"'{key}' must be one of {allowed}, got {raw!r}")
        return raw

    def _get_profilez(self, seconds: int | None, fmt: str | None) -> None:
        try:
            counts = self.service.profile_capture(seconds)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        if fmt == "flame":
            from ..obs.report import render_flame

            meta = {"source": "continuous" if seconds is None else "capture"}
            if seconds is not None:
                meta["seconds"] = seconds
            self._send(200, render_flame(counts, title="repro service profile",
                                         meta=meta),
                       content_type="text/html; charset=utf-8")
            return
        from ..obs.sampler import SampleProfile

        profile = SampleProfile()
        if counts:
            profile.merge(counts)
        self._send(200, profile.collapsed(),
                   content_type="text/plain; charset=utf-8")

    # -- streaming routes ----------------------------------------------

    #: long-poll/SSE wait bound: one blocking read never pins a handler
    #: thread longer than this (clients just poll again)
    MAX_POLL_SECONDS = 30

    def _get_stream(self, route: str, params: dict, n: int | None,
                    since: int | None) -> None:
        rest = route[len("/streams/"):]
        stream_id, _, sub = rest.partition("/")
        try:
            timeout = self._int_param(params, "timeout")
        except ValueError as exc:
            self._error(400, f"bad query string: {exc}")
            return
        try:
            if not sub:
                self._send(200, self.service.streams.get(stream_id).status())
            elif sub == "deltas":
                wait = min(timeout or 0, self.MAX_POLL_SECONDS)
                self._send(200, self.service.streams.read_deltas(
                    stream_id, since=since or 0, max_n=n or 64,
                    timeout=float(wait)))
            elif sub == "sse":
                self._stream_sse(stream_id, since or 0)
            else:
                self._error(404, f"no route {self.path}")
        except UnknownStream as exc:
            self._error(404, str(exc))

    def _stream_sse(self, stream_id: str, since: int) -> None:
        """Server-sent events: hand-rolled chunkless streaming writes.

        ``_send`` always sets Content-Length, which a push channel
        cannot know — so this route writes its own headers, marks the
        connection ``close`` (the stdlib handler then refuses keep-alive
        reuse of the half-streamed socket), and flushes one frame per
        delta: ``id:`` carries the sequence number, ``gap`` events carry
        the counted drop marker, ``end`` announces a finalized stream.
        """
        streams = self.service.streams
        streams.get(stream_id)  # 404 before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        cursor = since
        try:
            while True:
                out = streams.read_deltas(stream_id, since=cursor, max_n=64,
                                          timeout=float(self.MAX_POLL_SECONDS))
                if out["gap"]:
                    self.wfile.write(
                        f"event: gap\ndata: {out['gap']}\n\n".encode("utf-8"))
                    cursor += out["gap"]
                for delta in out["deltas"]:
                    data = json.dumps(delta, separators=(",", ":"))
                    self.wfile.write(
                        f"id: {delta['seq']}\ndata: {data}\n\n".encode("utf-8"))
                    cursor = delta["seq"]
                if out["closed"] and not out["deltas"]:
                    self.wfile.write(b"event: end\ndata: {}\n\n")
                    self.wfile.flush()
                    return
                if not out["deltas"]:
                    self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # subscriber left
            pass
        except UnknownStream:  # deleted mid-subscription
            pass

    def do_POST(self) -> None:  # noqa: N802
        try:
            if self.path == "/documents":
                self._post_documents()
            elif self.path == "/query":
                self._post_query()
            elif self.path == "/streams":
                self._post_streams()
            elif self.path.startswith("/streams/"):
                self._post_stream_op()
            elif self.path == "/shutdown":
                self._send(200, {"status": "shutting down"})
                self.server.initiate_shutdown()  # type: ignore[attr-defined]
            else:
                self._error(404, f"no route {self.path}")
        except (json.JSONDecodeError, ValueError, KeyError) as exc:
            self._error(400, f"bad request: {exc}")

    def do_DELETE(self) -> None:  # noqa: N802
        if self.path.startswith("/streams/"):
            stream_id = self.path[len("/streams/"):]
            try:
                self._send(200, self.service.streams.delete(stream_id))
            except UnknownStream as exc:
                self._error(404, str(exc))
            return
        if not self.path.startswith("/documents/"):
            self._error(404, f"no route {self.path}")
            return
        doc_id = self.path[len("/documents/"):]
        try:
            self.service.registry.remove(doc_id)
        except UnknownDocument as exc:
            self._error(404, str(exc))
            return
        self._send(200, {"status": "removed", "doc_id": doc_id})

    # -- route bodies --------------------------------------------------

    def _post_documents(self) -> None:
        data = self._body()
        content = data.get("content")
        if content is None and "path" in data:
            with open(str(data["path"]), encoding="utf-8") as fh:
                content = fh.read()
        if not isinstance(content, str) or not content:
            raise ValueError("ingestion needs a non-empty 'content' (or 'path')")
        grammar = data.get("grammar")
        if grammar is not None and not isinstance(grammar, str):
            raise ValueError("'grammar' must be a string")
        n_chunks = data.get("n_chunks")
        if n_chunks is not None:
            n_chunks = int(n_chunks)
        try:
            record = self.service.register(
                content, name=str(data.get("name", "")),
                grammar=grammar, n_chunks=n_chunks,
            )
        except RegistryFull as exc:
            # the body names the bound and the refused content hash so
            # a client can tell "my document" from "registry pressure"
            self._send(429, {
                "error": str(exc),
                "capacity": exc.capacity,
                "doc_id": exc.doc_id,
            })
            return
        except (EngineError, ValueError, RuntimeError) as exc:
            self._error(400, f"ingestion failed: {exc}")
            return
        self._send(201, record.describe())

    def _post_streams(self) -> None:
        data = self._body()
        queries = data.get("queries")
        if (not isinstance(queries, list) or not queries
                or not all(isinstance(q, str) for q in queries)):
            raise ValueError("'queries' must be a non-empty list of strings")
        grammar = data.get("grammar")
        if grammar is not None and not isinstance(grammar, str):
            raise ValueError("'grammar' must be a string")
        kwargs = {}
        if "root" in data:
            kwargs["root_name"] = str(data["root"])
        if data.get("chunk_bytes") is not None:
            kwargs["chunk_bytes"] = int(data["chunk_bytes"])
        try:
            state, resumed = self.service.streams.create(
                str(data.get("name", "")), [str(q) for q in queries],
                grammar=grammar, kind=str(data.get("kind", "xml")), **kwargs)
        except StreamError as exc:
            self._send(429 if "registry full" in str(exc) else 400,
                       {"error": str(exc)})
            return
        except (EngineError, ValueError, RuntimeError) as exc:
            self._error(400, f"stream open failed: {exc}")
            return
        status = state.status()
        status["resumed"] = resumed
        self._send(201, status)

    def _post_stream_op(self) -> None:
        rest = self.path[len("/streams/"):]
        stream_id, _, op = rest.partition("/")
        try:
            if op == "append":
                data = self._body()
                piece = data.get("data")
                if not isinstance(piece, str):
                    raise ValueError("'data' (a string) is required")
                offset = data.get("offset")
                if offset is not None:
                    offset = int(offset)
                self._send(200, self.service.streams.append(
                    stream_id, piece, offset=offset))
            elif op == "finalize":
                self._send(200, self.service.streams.finalize(stream_id))
            else:
                self._error(404, f"no route {self.path}")
        except UnknownStream as exc:
            self._error(404, str(exc))
        except StreamConflict as exc:
            self._error(409, str(exc))
        except StreamError as exc:
            self._error(400, str(exc))
        except (EngineError, RuntimeError) as exc:
            self._error(500, f"stream operation failed: {exc}")

    def _post_query(self) -> None:
        data = self._body()
        doc_id = data.get("doc")
        queries = data.get("queries")
        if not isinstance(doc_id, str):
            raise ValueError("'doc' (a document id) is required")
        if (not isinstance(queries, list) or not queries
                or not all(isinstance(q, str) for q in queries)):
            raise ValueError("'queries' must be a non-empty list of strings")
        deadline = data.get("deadline")
        if deadline is not None:
            deadline = float(deadline)
        try:
            response = self.service.query(doc_id, queries, deadline=deadline)
        except UnknownDocument as exc:
            self._error(404, str(exc))
        except (QueueFull, ServiceClosed) as exc:
            self._error(429, str(exc))
        except DeadlineExceeded as exc:
            self._error(504, str(exc))
        except TimeoutError:
            self._error(504, "timed out waiting for a response")
        except (EngineError, RuntimeError, ValueError) as exc:
            self._error(500, f"query failed: {exc}")
        else:
            self._send(200, response)


class ServiceServer(ThreadingHTTPServer):
    """The bound HTTP server; owns nothing but the socket (the service
    is constructed by the caller and closed by :meth:`run`)."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: QueryService) -> None:
        # a burst of connections must reach admission control (429 on a
        # full request queue) rather than overflow the listen backlog
        # (socketserver's default is 5) while busy workers hold the
        # interpreter and the accept loop waits: a TCP reset, not a 429
        self.request_queue_size = max(self.request_queue_size,
                                      service.config.max_queue)
        super().__init__(address, _Handler)
        self.service = service
        self._shutdown_requested = threading.Event()

    def initiate_shutdown(self) -> None:
        """Ask the serve loop to exit (callable from handler threads)."""
        self._shutdown_requested.set()
        threading.Thread(target=self.shutdown, daemon=True).start()

    def run(self) -> None:
        """Serve until shutdown, then close the service gracefully."""
        try:
            with self.service:
                self.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        finally:
            self.server_close()


def serve(host: str, port: int, service: QueryService) -> ServiceServer:
    """Bind and return a server (caller invokes :meth:`ServiceServer.run`)."""
    return ServiceServer((host, port), service)
