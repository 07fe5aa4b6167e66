"""End-to-end request tracing, the SLO surface and the operator plane.

Pins the PR's observability contracts:

* **quantile estimator** — :meth:`Histogram.quantile` matches
  hand-computed bucket interpolations on synthetic fills, handles
  edges (empty, q=0/1, above-the-last-bound mass) and stays exact
  under the estimator's uniform-within-bucket model;
* **histogram thread-safety** — a concurrent ``observe`` hammer never
  tears ``sum``/``count``/bucket triples;
* **stage decomposition** — a traced request's stage spans sum
  *exactly* to its end-to-end latency, in unit form
  (:class:`RequestTrace`) and end-to-end through the service (the
  slow log and the ``trace`` journal events agree with the client);
* **request-id propagation** — serial and thread backends produce the
  same journal event stream modulo ids and timing values;
* **slow log** — threshold triggering, ring-buffer eviction,
  ``n``/``since`` queries;
* **operator plane** — ``/varz`` + ``/statusz`` over HTTP with
  ``?n=``/``?since=`` limits and 400s on malformed values;
  ``render_statusz`` is deterministic and self-contained;
  ``repro top --once`` renders one frame from a live service.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.metrics import Histogram
from repro.obs.report import format_request, render_statusz
from repro.obs.layers import REQUEST_LAYERS, stage_key
from repro.obs.reqtrace import NULL_REQUEST_TRACE, RequestTrace
from repro.obs.slowlog import SlowEntry, SlowLog
from repro.service import QueryClient, QueryService, ServiceConfig, ServiceError, serve

from tests.conftest import FEED_DTD, FEED_XML


def small_config(**overrides) -> ServiceConfig:
    defaults = dict(backend="serial", n_chunks=4, workers=2)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# ---------------------------------------------------------------------------
# the quantile estimator
# ---------------------------------------------------------------------------


class TestQuantile:
    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram("h", "", {}, buckets=(1.0, 2.0))
        assert h.quantile(0.5) is None
        assert h.quantiles() == {"p50": None, "p95": None, "p99": None}

    def test_rejects_out_of_range_q(self):
        h = Histogram("h", "", {}, buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_uniform_fill_interpolates_exactly(self):
        # 10 observations land in (0, 1]; under the uniform-within-
        # bucket model p50 = 0.5, p90 = 0.9 — hand-computed
        h = Histogram("h", "", {}, buckets=(1.0, 2.0))
        for _ in range(10):
            h.observe(0.5)
        assert h.quantile(0.5) == pytest.approx(0.5)
        assert h.quantile(0.9) == pytest.approx(0.9)
        assert h.quantile(1.0) == pytest.approx(1.0)

    def test_two_bucket_split(self):
        # 4 obs in (0,1], 6 in (1,2]: rank(p50)=5 → 1 into the second
        # bucket's 6 → 1 + (2-1)*(5-4)/6
        h = Histogram("h", "", {}, buckets=(1.0, 2.0))
        for _ in range(4):
            h.observe(0.5)
        for _ in range(6):
            h.observe(1.5)
        assert h.quantile(0.5) == pytest.approx(1.0 + 1.0 / 6.0)
        # rank(p25)=2.5 inside the first bucket's 4 → 0.625
        assert h.quantile(0.25) == pytest.approx(0.625)

    def test_mass_above_last_bound_clamps(self):
        h = Histogram("h", "", {}, buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.99) == 1.0

    def test_bucket_edge_rank(self):
        # all mass in the second bucket; rank(p0)=0 falls on its lower
        # edge (the first bucket's bound), not inside it
        h = Histogram("h", "", {}, buckets=(1.0, 2.0))
        for _ in range(5):
            h.observe(1.5)
        assert h.quantile(0.0) == pytest.approx(1.0)

    def test_keys_format(self):
        h = Histogram("h", "", {}, buckets=(1.0,))
        h.observe(0.5)
        assert set(h.quantiles((0.5, 0.95, 0.999))) == {"p50", "p95", "p99.9"}

    def test_summary_has_count_sum_and_quantiles(self):
        h = Histogram("h", "", {}, buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        s = h.summary()
        assert s["count"] == 2 and s["sum"] == pytest.approx(2.0)
        assert set(s) == {"count", "sum", "p50", "p95", "p99"}


class TestHistogramConcurrency:
    def test_concurrent_observe_never_tears(self):
        h = Histogram("h", "", {}, buckets=(1.0, 2.0, 4.0))
        n_threads, per_thread = 8, 2500

        def hammer(value: float) -> None:
            for _ in range(per_thread):
                h.observe(value)

        threads = [
            threading.Thread(target=hammer, args=(float(i % 3) + 0.5,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert h.count == total
        assert h.cumulative_counts()[-1] == total
        # sum is a plain float accumulation of known addends
        expected = per_thread * sum(float(i % 3) + 0.5 for i in range(n_threads))
        assert h.sum == pytest.approx(expected)


# ---------------------------------------------------------------------------
# RequestTrace: the exact-sum property
# ---------------------------------------------------------------------------


class TestRequestTrace:
    def test_stages_sum_exactly_to_total(self):
        tr = RequestTrace(enqueued=10.0)
        tr.mark("dequeued", 10.5)
        tr.mark("exec_start", 11.25)
        tr.mark("exec_end", 13.0)
        tr.mark("responded", 13.125)
        stages = tr.stage_seconds()
        assert list(stages) == [stage_key(layer) for layer in REQUEST_LAYERS]
        assert list(stages) == ["queue_wait", "batch_assembly", "execute", "respond"]
        assert sum(stages.values()) == tr.total == pytest.approx(3.125)
        assert stages["queue_wait"] == pytest.approx(0.5)
        assert stages["execute"] == pytest.approx(1.75)

    def test_unreached_stages_report_zero(self):
        # expired at dispatch: dequeued + responded only
        tr = RequestTrace(enqueued=5.0)
        tr.mark("dequeued", 6.0)
        tr.mark("responded", 6.25)
        stages = tr.stage_seconds()
        assert stages["queue_wait"] == pytest.approx(1.0)
        assert stages["execute"] == 0.0 and stages["batch_assembly"] == 0.0
        assert sum(stages.values()) == pytest.approx(tr.total)

    def test_deadline_fraction(self):
        tr = RequestTrace(enqueued=0.0)
        tr.mark("responded", 1.0)
        assert tr.deadline_fraction(None) is None
        assert tr.deadline_fraction(4.0) == pytest.approx(0.25)
        assert tr.deadline_fraction(0.5) == pytest.approx(2.0)

    def test_null_trace_is_inert(self):
        NULL_REQUEST_TRACE.mark("dequeued")
        assert NULL_REQUEST_TRACE.enabled is False
        assert NULL_REQUEST_TRACE.stage_seconds() == {}
        assert NULL_REQUEST_TRACE.to_dict() == {}


class TestSlowLog:
    def _entry(self, seq: int, wall_ts: float) -> SlowEntry:
        return SlowEntry(seq=seq, req_id=seq, doc_id="d", queries=("//x",),
                         total_ms=600.0, wall_ts=wall_ts)

    def test_below_threshold_records_nothing(self):
        log = SlowLog(threshold=0.5, capacity=4)
        assert log.consider(0.4, self._entry) is None
        assert len(log) == 0 and log.recorded == 0

    def test_over_threshold_records_and_evicts(self):
        log = SlowLog(threshold=0.5, capacity=2)
        for _ in range(3):
            log.consider(0.6, self._entry)
        assert len(log) == 2 and log.recorded == 3 and log.evicted == 1
        assert [e.seq for e in log.snapshot()] == [1, 2]

    def test_n_and_since_filters(self):
        log = SlowLog(threshold=0.0, capacity=8)
        for _ in range(5):
            log.consider(1.0, self._entry)
        assert [e.seq for e in log.snapshot(n=2)] == [3, 4]
        assert [e.seq for e in log.snapshot(since=2)] == [3, 4]
        assert [e.seq for e in log.snapshot(n=1, since=2)] == [4]
        assert log.snapshot(n=0) == []


# ---------------------------------------------------------------------------
# end-to-end: decomposition, propagation, the operator plane
# ---------------------------------------------------------------------------


class TestServiceTracing:
    def test_stage_spans_sum_to_slow_log_total(self):
        # threshold 0 → every request lands in the slow log with its
        # full breakdown; the stages must partition the total exactly
        with QueryService(small_config(slow_threshold=0.0)) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            response = svc.query(doc.doc_id, ["//id"])
            assert response["request_id"] == 0
            assert response["batch"]["seq"] == 0
            [entry] = svc.slow_log.snapshot()
            assert entry.req_id == 0
            assert sum(entry.stages_ms.values()) == pytest.approx(
                entry.total_ms, abs=1e-6)
            assert set(entry.stages_ms) == {stage_key(layer) for layer in REQUEST_LAYERS}
            assert entry.chunk_spans, "chunk spans stitched under the batch"

    def test_stage_seconds_computed_once_per_request(self, monkeypatch):
        # the layer histograms and the slow log share one computation
        calls = []
        real = RequestTrace.stage_seconds

        def counting(trace):
            calls.append(trace)
            return real(trace)

        monkeypatch.setattr(RequestTrace, "stage_seconds", counting)
        with QueryService(small_config(slow_threshold=0.0)) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            svc.query(doc.doc_id, ["//id"])
            [entry] = svc.slow_log.snapshot()
        assert len(calls) == 1
        assert set(entry.stages_ms) == {stage_key(layer) for layer in REQUEST_LAYERS}

    def test_trace_journal_event_matches_slow_log(self):
        with QueryService(small_config(slow_threshold=0.0)) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            svc.query(doc.doc_id, ["//id"])
            [trace_ev] = [
                json.loads(line)
                for line in svc.journal_jsonl().splitlines()
                if json.loads(line)["kind"] == "trace"
            ]
            [entry] = svc.slow_log.snapshot()
            assert trace_ev["args"]["request"] == entry.req_id
            assert trace_ev["args"]["batch_seq"] == entry.batch_seq
            assert trace_ev["args"]["total_ms"] == pytest.approx(
                entry.total_ms, abs=0.01)

    def test_disabled_tracing_stays_null(self):
        with QueryService(small_config(request_tracing=False)) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            response = svc.query(doc.doc_id, ["//id"])
            assert response["request_id"] == 0  # ids flow regardless
            varz = svc.varz()
            assert all(s["count"] == 0
                       for s in varz["latency"]["stages"].values())
            assert varz["slow_log"]["recorded"] == 0
            kinds = {json.loads(line)["kind"]
                     for line in svc.journal_jsonl().splitlines()}
            assert "trace" not in kinds

    @staticmethod
    def _journal_shape(backend: str) -> list:
        """The journal stream with ids/doc-ids/timing values masked."""
        with QueryService(small_config(backend=backend)) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            for queries in (["//id"], ["/feed/entry/title"], ["//title", "//id"]):
                svc.query(doc.doc_id, queries)
            events = [json.loads(line)
                      for line in svc.journal_jsonl().splitlines()]
        shaped = []
        for ev in events:
            args = dict(ev.get("args", {}))
            for volatile in ("doc", "exec_seconds", "engine_seconds",
                             "total_ms", "stages_ms", "chunk_spans"):
                args.pop(volatile, None)
            shaped.append((ev["kind"], tuple(sorted(args.items(),
                                                    key=lambda kv: kv[0]))))
        return shaped

    def test_request_ids_propagate_identically_across_backends(self):
        # same submission order → same ids, same batch seqs, same event
        # stream on serial and thread backends (timing values aside)
        serial = self._journal_shape("serial")
        threaded = self._journal_shape("thread")
        assert serial == threaded
        kinds = [kind for kind, _ in serial]
        assert kinds.count("trace") == 3 and kinds.count("respond") == 3

    def test_varz_slow_log_filters(self):
        with QueryService(small_config(slow_threshold=0.0)) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            for _ in range(4):
                svc.query(doc.doc_id, ["//id"])
            varz = svc.varz(slow_n=2)
            assert [e["seq"] for e in varz["slow_log"]["entries"]] == [2, 3]
            varz = svc.varz(slow_since=1)
            assert [e["seq"] for e in varz["slow_log"]["entries"]] == [2, 3]

    def test_format_request_follows_one_request(self):
        from repro.obs.journal import Journal

        with QueryService(small_config()) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            svc.query(doc.doc_id, ["//id"])
            journal = Journal.from_jsonl(svc.journal_jsonl())
        text = format_request(journal, 0)
        for expected in ("request 0", "admit", "respond", "trace",
                         "stage breakdown", "chunk spans"):
            assert expected in text
        assert "unknown id" in format_request(journal, 999)


# ---------------------------------------------------------------------------
# /statusz determinism + self-containment
# ---------------------------------------------------------------------------


class TestStatusz:
    def _varz(self) -> dict:
        with QueryService(small_config(slow_threshold=0.0)) as svc:
            doc = svc.register(FEED_XML, grammar=FEED_DTD)
            svc.query(doc.doc_id, ["//id"])
            return svc.varz()

    def test_render_is_deterministic(self):
        varz = self._varz()
        assert render_statusz(varz) == render_statusz(json.loads(json.dumps(varz)))

    def test_self_contained_no_scripts_no_external_assets(self):
        html = render_statusz(self._varz())
        assert html.startswith("<!DOCTYPE html>")
        lowered = html.lower()
        for banned in ("<script", "<link", "src=", "url(", "@import",
                       "http://", "https://"):
            assert banned not in lowered, banned

    def test_renders_the_surface(self):
        html = render_statusz(self._varz())
        for expected in ("queue depth", "in flight", "Latency (ms)",
                         "service.batching.queue_wait", "Batch occupancy",
                         "warm engines", "Slow requests", "Telemetry"):
            assert expected in html, expected


# ---------------------------------------------------------------------------
# HTTP: /varz, /statusz, parameter validation, repro top --once
# ---------------------------------------------------------------------------


@pytest.fixture
def http_service():
    svc = QueryService(small_config(backend="thread", slow_threshold=0.0))
    server = serve("127.0.0.1", 0, svc)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    client = QueryClient("127.0.0.1", server.server_address[1], timeout=30.0)
    client.wait_healthy()
    yield client
    try:
        client.shutdown()
    except (OSError, ServiceError):
        pass
    thread.join(timeout=10.0)
    assert not thread.is_alive()


class TestOperatorEndpoints:
    def test_varz_and_statusz(self, http_service):
        client = http_service
        doc = client.register(content=FEED_XML, grammar=FEED_DTD)
        client.query(doc["doc_id"], ["//id"])
        varz = client.varz()
        assert varz["requests"]["ok"] == 1
        assert varz["latency"]["stages"]["execute"]["count"] == 1
        assert varz["slow_log"]["entries"]
        assert client.statusz().startswith("<!DOCTYPE html>")

    def test_journal_limits(self, http_service):
        client = http_service
        doc = client.register(content=FEED_XML, grammar=FEED_DTD)
        client.query(doc["doc_id"], ["//id"])
        full = [json.loads(line) for line in client.journal().splitlines()]
        assert len(full) >= 4
        tail = [json.loads(line) for line in client.journal(n=2).splitlines()]
        assert tail == full[-2:]
        cursor = full[1]["seq"]
        rest = [json.loads(line)
                for line in client.journal(since=cursor).splitlines()]
        assert [ev["seq"] for ev in rest] == [ev["seq"] for ev in full[2:]]
        assert client.journal(n=0) == ""

    def test_malformed_params_get_400(self, http_service):
        client = http_service
        for path in ("/journal?n=abc", "/journal?n=-1", "/varz?since=1.5",
                     "/journal?n=1&n=2", "/varz?n="):
            with pytest.raises(ServiceError) as err:
                client._request("GET", path)
            assert err.value.status == 400, path

    def test_repro_top_once(self, http_service):
        import io
        from contextlib import redirect_stdout

        from repro.cli import main

        client = http_service
        doc = client.register(content=FEED_XML, grammar=FEED_DTD)
        client.query(doc["doc_id"], ["//id"])
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["top", "--host", client.host, "--port",
                       str(client.port), "--once"])
        out = buf.getvalue()
        assert rc == 0
        for expected in ("repro top", "queue 0", "latency (ms)",
                         "service.batching.queue_wait", "slow requests",
                         "telemetry"):
            assert expected in out, expected

    def test_repro_top_no_service(self):
        from repro.cli import main

        # a port nothing listens on → exit 1, not a traceback
        assert main(["top", "--port", "1", "--once"]) == 1
