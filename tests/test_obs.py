"""Tests for the observability layer: tracer, metrics, exporters, logging."""

from __future__ import annotations

import json
import logging
import pickle
import re

import pytest

from repro import GapEngine, SequentialEngine
from repro.obs import (
    Journal,
    MetricsRegistry,
    NullJournal,
    NullTracer,
    Span,
    Tracer,
    chrome_trace,
    chunk_timeline,
    collect_run_metrics,
    configure_logging,
    format_timeline,
    get_logger,
)
from repro.obs.journal import DEFAULT_LIMIT, EVENT_KINDS, NULL_JOURNAL, Event
from repro.obs.layers import LAYER_MODULES
from repro.obs.metrics import table_registry
from repro.obs.tracer import NULL_TRACER
from repro.parallel import SerialBackend, ThreadBackend
from repro.parallel.backend import ProcessBackend
from repro.xpath.compile_tables import clear_compile_cache

from tests.conftest import FEED_DTD, FEED_XML
from tests.object_kernel import object_kernel


class TestTracer:
    def test_span_records_duration_and_args(self):
        tracer = Tracer()
        with tracer.span("split", n_chunks=4) as sp:
            sp.args["extra"] = 7
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.name == "split"
        assert span.t1 >= span.t0
        assert span.duration >= 0.0
        assert span.args == {"n_chunks": 4, "extra": 7}

    def test_nesting_tracked_by_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # inner closes first, so it is appended first
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_by_name_and_total(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("lex"):
                pass
        assert len(tracer.by_name("lex")) == 3
        assert tracer.total("lex") == pytest.approx(
            sum(s.duration for s in tracer.spans)
        )
        assert tracer.total("nope") == 0.0

    def test_chunk_spans_sorted_by_lane(self):
        tracer = Tracer()
        tracer.extend([
            Span("core.kernel", t0=2.0, t1=3.0, cat="chunk", tid=2, args={"chunk": 1}),
            Span("transducer.mapping", t0=4.0, t1=5.0, cat="phase", tid=0),
            Span("core.kernel", t0=1.0, t1=2.5, cat="chunk", tid=1, args={"chunk": 0}),
        ])
        assert [s.args["chunk"] for s in tracer.chunk_spans()] == [0, 1]

    def test_spans_pickle(self):
        span = Span("chunk[3]", t0=1.0, t1=2.0, cat="chunk", tid=4,
                    args={"tokens": 10})
        clone = pickle.loads(pickle.dumps(span))
        assert clone == span


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("split", n_chunks=4) as sp:
            sp.args["tokens"] = 99  # discarded
        assert tracer.spans == ()
        assert tracer.by_name("split") == []
        assert tracer.total("split") == 0.0
        assert tracer.chunk_spans() == []

    def test_handle_is_shared(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")
        assert not tracer.enabled

    def test_engine_default_is_null(self):
        engine = GapEngine(["//id"], grammar=FEED_DTD)
        assert engine.tracer is NULL_TRACER


class TestTracedEngines:
    QUERIES = ["/feed/entry/id", "//title"]

    def test_traced_run_matches_untraced(self):
        plain = GapEngine(self.QUERIES, grammar=FEED_DTD)
        ref = plain.run(FEED_XML, n_chunks=3)

        tracer = Tracer()
        traced = GapEngine(self.QUERIES, grammar=FEED_DTD, tracer=tracer)
        res = traced.run(FEED_XML, n_chunks=3)

        # tracing must not perturb results or work accounting
        assert res.offsets_by_id == ref.offsets_by_id
        assert res.stats.counters.as_dict() == ref.stats.counters.as_dict()
        # ... and the untraced engine collected nothing
        assert plain.tracer.spans == ()

    def test_phase_and_chunk_spans_collected(self):
        tracer = Tracer()
        engine = GapEngine(self.QUERIES, grammar=FEED_DTD, tracer=tracer)
        engine.run(FEED_XML, n_chunks=3)
        names = {s.name for s in tracer.spans}
        assert {"core.inference", "xmlstream.split", "parallel.backend",
                "transducer.mapping", "xpath.filtering"} <= names
        chunks = tracer.chunk_spans()
        assert [s.args["chunk"] for s in chunks] == [0, 1, 2]
        # workers snapshot their counters onto the chunk spans
        assert all("tokens" in s.args for s in chunks)
        assert sum(s.args["tokens"] for s in chunks) == \
            engine.run(FEED_XML, n_chunks=3).stats.counters.total_tokens

    def test_sequential_engine_span(self):
        tracer = Tracer()
        engine = SequentialEngine(["//id"], tracer=tracer)
        engine.run(FEED_XML)
        (span,) = tracer.by_name("core.kernel")
        assert span.args["mode"] == "sequential"
        assert span.args["bytes"] == len(FEED_XML)
        assert span.args["tokens"] > 0

    def test_learn_span(self):
        tracer = Tracer()
        engine = GapEngine(["//id"], tracer=tracer)
        engine.learn(FEED_XML)
        (span,) = tracer.by_name("core.inference")
        assert span.args["learn"] is True
        assert span.args["documents"] == 1

    @pytest.mark.parametrize("backend_cls", [SerialBackend, ThreadBackend])
    def test_worker_spans_merge_across_backends(self, backend_cls):
        with backend_cls() as backend:
            tracer = Tracer()
            engine = GapEngine(self.QUERIES, grammar=FEED_DTD,
                               backend=backend, tracer=tracer)
            engine.run(FEED_XML, n_chunks=3)
        chunks = tracer.chunk_spans()
        assert len(chunks) == 3
        # each chunk ran on its own lane (1 + chunk index)
        assert [s.tid for s in chunks] == [1, 2, 3]
        # workers nest a lex span inside each chunk span
        assert len(tracer.by_name("xmlstream.lex")) == 3

    @pytest.mark.slow
    def test_worker_spans_survive_process_pickling(self):
        with ProcessBackend(max_workers=2) as backend:
            tracer = Tracer()
            engine = GapEngine(self.QUERIES, grammar=FEED_DTD,
                               backend=backend, tracer=tracer)
            res = engine.run(FEED_XML, n_chunks=3)
        chunks = tracer.chunk_spans()
        assert [s.args["chunk"] for s in chunks] == [0, 1, 2]
        assert all(s.duration > 0 for s in chunks)
        assert res.total_matches > 0


PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""     # labels
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (-?\d+(\.\d+)?([eE][-+]?\d+)?|[+-]Inf|NaN)$"       # value
)


class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "help text")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_tokens_total", mode="stack")
        b = reg.counter("repro_tokens_total", mode="stack")
        c = reg.counter("repro_tokens_total", mode="tree")
        assert a is b and a is not c
        assert len(reg) == 2

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_x_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("repro_ok", **{"bad-label": "x"})

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_h_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.cumulative_counts() == [1, 3, 4]
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        text = reg.to_prometheus()
        assert 'repro_h_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_h_seconds_count 5" in text

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total", "a help", mode="stack").inc(3)
        reg.gauge("repro_g", "g help").set(1.5)
        reg.histogram("repro_h_seconds", buckets=(1.0,)).observe(0.5)
        text = reg.to_prometheus()
        assert text.endswith("\n")
        lines = text.strip().split("\n")
        assert "# HELP repro_a_total a help" in lines
        assert "# TYPE repro_a_total counter" in lines
        assert "# TYPE repro_h_seconds histogram" in lines
        assert 'repro_a_total{mode="stack"} 3' in lines
        assert "repro_g 1.5" in lines
        for line in lines:
            if line.startswith("#"):
                continue
            assert PROM_SAMPLE.match(line), line

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("repro_m_total", query='//a[b="x"]').inc()
        text = reg.to_prometheus()
        assert 'query="//a[b=\\"x\\"]"' in text

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total", "a help").inc(2)
        reg.histogram("repro_h_seconds", buckets=(1.0,)).observe(0.5)
        data = json.loads(json.dumps(reg.to_json()))
        by_name = {m["name"]: m for m in data["metrics"]}
        assert by_name["repro_a_total"]["value"] == 2
        assert by_name["repro_a_total"]["type"] == "counter"
        assert by_name["repro_h_seconds"]["count"] == 1
        assert by_name["repro_h_seconds"]["buckets"] == {"1": 1}

    def test_collect_run_metrics(self):
        tracer = Tracer()
        engine = GapEngine(["//id"], grammar=FEED_DTD, tracer=tracer)
        res = engine.run(FEED_XML, n_chunks=3)
        reg = collect_run_metrics(res.stats, matches=res.matches,
                                  spans=tracer.spans)
        samples = {
            (m.name, tuple(sorted(m.labels.items()))): m for m in reg
        }
        tokens = (
            samples[("repro_tokens_total", (("mode", "stack"),))].value
            + samples[("repro_tokens_total", (("mode", "tree"),))].value
        )
        assert tokens == res.stats.counters.total_tokens
        assert samples[("repro_chunks_total", ())].value == 3
        assert samples[("repro_matches_total", (("query", "//id"),))].value == \
            res.count("//id")
        hist = samples[("repro_chunk_seconds", ())]
        assert hist.count == 3
        text = reg.to_prometheus()
        assert 'repro_layer_seconds_count{layer="transducer.mapping"} 1' in text
        assert "repro_phase_seconds_total" not in text

    def test_table_registry(self):
        reg = table_registry("tab5", ["workload", "pp", "gap"],
                             [["single XM", 9.2, 1.4], ["note", "n/a", 2.1]])
        text = reg.to_prometheus()
        assert 'repro_bench_value{artifact="tab5",col="pp",row="single XM"} 9.2' in text
        # non-numeric cells are skipped
        assert '"n/a"' not in text
        assert 'col="gap",row="note"} 2.1' in text


class TestChromeTrace:
    def _spans(self):
        return [
            Span("xmlstream.split", t0=10.0, t1=10.5, cat="phase", tid=0),
            Span("core.kernel", t0=10.5, t1=11.0, cat="chunk", tid=1,
                 args={"chunk": 0, "tokens": 42}),
        ]

    def test_schema(self):
        doc = chrome_trace(self._spans())
        data = json.loads(json.dumps(doc))  # must be JSON-serializable
        events = data["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == {"driver", "worker-0"}
        assert len(slices) == 2
        for e in slices:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert isinstance(e["ts"], (int, float))
            assert isinstance(e["dur"], (int, float))
        by_name = {e["name"]: e for e in slices}
        # timestamps are microseconds relative to the earliest span
        assert by_name["xmlstream.split"]["ts"] == 0
        assert by_name["xmlstream.split"]["dur"] == pytest.approx(0.5e6)
        assert by_name["core.kernel"]["ts"] == pytest.approx(0.5e6)
        assert by_name["core.kernel"]["args"] == {"chunk": 0, "tokens": 42}

    def test_empty_spans(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_timeline_table(self):
        headers, rows = chunk_timeline(self._spans())
        assert headers[0] == "span"
        assert [r[0] for r in rows] == ["xmlstream.split", "core.kernel #0"]
        assert rows[1][3] == 42  # tokens column
        text = format_timeline(self._spans())
        assert "core.kernel #0" in text and "tokens" in text

    def test_timeline_indents_nested_spans(self):
        spans = [
            Span("core.kernel", t0=0.0, t1=1.0, cat="chunk", tid=1),
            Span("xmlstream.lex", t0=0.1, t1=0.4, cat="phase", tid=1, depth=1),
        ]
        _, rows = chunk_timeline(spans)
        assert rows[1][0] == "  xmlstream.lex"


class TestLogging:
    def test_package_logger_has_null_handler(self):
        handlers = logging.getLogger("repro").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_configure_logging_and_debug_events(self):
        import io

        stream = io.StringIO()
        logger = logging.getLogger("repro")
        old_level = logger.level
        handler = configure_logging("DEBUG", stream=stream)
        try:
            for query in ("//id", "/feed/entry/id", "//title"):
                engine = GapEngine([query], grammar=FEED_DTD)
                engine.run(FEED_XML, n_chunks=4)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
        out = stream.getvalue()
        assert "scenario-" in out  # path-elimination events logged

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("CHATTY")

    def test_get_logger_namespacing(self):
        assert get_logger("transducer.join").name == "repro.transducer.join"


class TestJournal:
    def test_record_assigns_seq_and_args(self):
        j = Journal()
        j.record("path_spawn", chunk=2, offset=10, tag="a", reason="initial")
        j.record("switch", chunk=2, to="tree")
        assert [ev.seq for ev in j.events] == [0, 1]
        assert j.events[0].args == {"reason": "initial"}
        assert j.events[0].ts > 0.0
        assert j.counts() == {"path_spawn": 1, "switch": 1}
        assert len(j.by_kind("switch")) == 1
        assert len(j.events_for_chunk(2)) == 2

    def test_bounded_counts_drops(self):
        j = Journal(limit=3)
        for i in range(5):
            j.record("converge", chunk=0, offset=i)
        assert len(j) == 3
        assert j.dropped == 2
        with pytest.raises(ValueError):
            Journal(limit=0)

    def test_adopt_reassigns_seq_in_order(self):
        worker_a, worker_b = Journal(), Journal()
        worker_a.record("path_spawn", chunk=0)
        worker_b.record("path_spawn", chunk=1)
        worker_b.record("converge", chunk=1)
        driver = Journal()
        driver.record("cache_miss")
        driver.adopt(worker_a.events)
        driver.adopt(worker_b.events)
        assert [ev.seq for ev in driver.events] == [0, 1, 2, 3]
        assert [ev.chunk for ev in driver.events] == [-1, 0, 1, 1]

    def test_jsonl_round_trip(self, tmp_path):
        j = Journal()
        j.record("path_killed", chunk=1, offset=42, tag="b",
                 reason="infeasible", killed=2, live=1)
        j.record("cache_hit", size=3)
        path = str(tmp_path / "journal.jsonl")
        j.write_jsonl(path)
        back = Journal.read_jsonl(path)
        assert [ev.to_dict() for ev in back.events] == \
            [ev.to_dict() for ev in j.events]
        # the timestamp-free form omits ts and nothing else
        line = json.loads(j.to_jsonl(timestamps=False).splitlines()[0])
        assert "ts" not in line
        assert line["tag"] == "b" and line["args"]["killed"] == 2

    def test_event_kinds_pinned(self):
        assert len(EVENT_KINDS) == 20
        assert {"path_spawn", "path_killed", "converge", "switch",
                "misspeculation", "reprocess", "retry", "timeout",
                "invalid", "fallback", "cache_hit", "cache_miss",
                "store_hit", "store_miss", "store_write",
                "store_invalid", "memo_hit", "memo_miss",
                "memo_reject", "alert"} == set(EVENT_KINDS)

    def test_event_pickles(self):
        ev = Event("path_spawn", chunk=1, offset=5, tag="a", seq=3,
                   args={"reason": "divergence"})
        assert pickle.loads(pickle.dumps(ev)) == ev

    def test_null_journal_is_noop(self):
        nj = NullJournal()
        nj.record("path_spawn", chunk=0, reason="initial")
        nj.adopt([Event("switch")])
        assert not nj.enabled
        assert len(nj) == 0 and nj.events == () and nj.dropped == 0
        assert nj.counts() == {} and nj.to_jsonl() == ""

    def test_engine_default_is_null(self):
        engine = GapEngine(["//id"], grammar=FEED_DTD)
        assert engine.journal is NULL_JOURNAL
        assert DEFAULT_LIMIT == Journal().limit


class TestJournaledEngines:
    QUERIES = ["/feed/entry/id", "//title"]

    def _run(self, backend=None, journal=None):
        clear_compile_cache()  # cache events deterministic per run
        engine = GapEngine(self.QUERIES, grammar=FEED_DTD, backend=backend,
                           journal=journal)
        return engine.run(FEED_XML, n_chunks=3)

    @staticmethod
    def _lifecycle(journal):
        """Kind/position/payload view, ignoring seq and cache events.

        Cache events (compile cache, structural memo) depend on what
        the shared process-wide caches already hold, so only the
        path-lifecycle stream carries the cross-kernel/backend
        determinism contract.
        """
        return [
            (ev.kind, ev.chunk, ev.offset, ev.tag, tuple(sorted(ev.args.items())))
            for ev in journal.events
            if ev.kind not in ("cache_hit", "cache_miss",
                               "memo_hit", "memo_miss", "memo_reject")
        ]

    def test_journaled_run_matches_unjournaled(self):
        ref = self._run()
        journal = Journal()
        res = self._run(journal=journal)
        assert res.offsets_by_id == ref.offsets_by_id
        assert res.stats.counters.as_dict() == ref.stats.counters.as_dict()
        assert len(journal.events) > 0

    def test_path_lifecycle_events_emitted(self):
        journal = Journal()
        self._run(journal=journal)
        counts = journal.counts()
        assert counts.get("path_spawn", 0) >= 3  # one per chunk at least
        assert counts.get("cache_miss") == 1  # cleared cache, one compile
        spawns = journal.by_kind("path_spawn")
        # chunk 0 starts from the initial state; later chunks via scenario 1
        reasons = {ev.chunk: ev.args["reason"] for ev in spawns
                   if ev.args["reason"] in ("initial", "scenario1", "enumerate")}
        assert reasons[0] == "initial"
        assert all(r in ("scenario1", "enumerate") for c, r in reasons.items() if c > 0)
        for ev in spawns:
            assert ev.args["live"] >= 1
            assert len(ev.args.get("states", [])) <= 16

    def test_dense_and_object_kernels_agree(self):
        dense, obj = Journal(), Journal()
        self._run(journal=dense)
        with object_kernel():
            self._run(journal=obj)
        # identical path-lifecycle stream
        assert self._lifecycle(dense) == self._lifecycle(obj)
        assert len(self._lifecycle(dense)) > 0

    @pytest.mark.parametrize("backend_cls", [SerialBackend, ThreadBackend])
    def test_events_merge_across_backends(self, backend_cls):
        serial_journal = Journal()
        self._run(journal=serial_journal)
        with backend_cls() as backend:
            journal = Journal()
            self._run(backend=backend, journal=journal)
        assert journal.to_jsonl(timestamps=False) == \
            serial_journal.to_jsonl(timestamps=False)

    @pytest.mark.slow
    def test_process_backend_events_identical(self):
        with ThreadBackend() as backend:
            thread_journal = Journal()
            self._run(backend=backend, journal=thread_journal)
        with ProcessBackend(max_workers=2) as backend:
            journal = Journal()
            self._run(backend=backend, journal=journal)
        # byte-identical modulo the wall-clock ts field
        assert journal.to_jsonl(timestamps=False) == \
            thread_journal.to_jsonl(timestamps=False)


# ---------------------------------------------------------------------------
# the layer table: one vocabulary across spans, sampler and benchmark
# ---------------------------------------------------------------------------


def _perfbench_layers() -> tuple[str, ...]:
    """``perfbench/spans.py``'s ``LAYERS``, loaded without importing perfbench."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _trace_names(tmp_path, argv: list[str]) -> set[str]:
    """Span names of one ``repro profile`` run, read from its Chrome trace."""
    import contextlib
    import io

    from repro.cli import main

    out = tmp_path / "trace.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["profile", *argv, "--trace-out", str(out)]) == 0
    events = json.loads(out.read_text())["traceEvents"]
    return {e["name"] for e in events if e["ph"] == "X"}


class TestLayers:
    def test_perfbench_layers_are_an_ordered_subsequence(self):
        from repro.obs import LAYERS

        bench = _perfbench_layers()
        positions = [LAYERS.index(layer) for layer in bench]
        assert positions == sorted(positions)

    def test_request_layers_end_the_table(self):
        from repro.obs import LAYERS, REQUEST_LAYERS

        assert REQUEST_LAYERS == ("service.batching.queue_wait",
                                  "service.batching.batch_assembly",
                                  "service.service.execute",
                                  "service.service.respond")
        assert LAYERS[-4:] == REQUEST_LAYERS
        assert len(set(LAYERS)) == len(LAYERS)

    @pytest.mark.parametrize("argv", [
        ["-e", "gap", "-n", "3"],
        ["-e", "pp", "-n", "3"],
        ["-e", "seq"],
        ["-e", "gap", "-n", "3", "--inject-faults", "chunk:1:raise",
         "--chunk-timeout", "5"],
    ], ids=["gap", "pp", "seq", "supervised"])
    def test_every_xml_span_is_a_layer(self, tmp_path, argv):
        from repro.obs import LAYERS

        doc = tmp_path / "feed.xml"
        doc.write_text(FEED_DTD + FEED_XML)
        names = _trace_names(tmp_path, [str(doc), "-q", "//id", *argv])
        assert names <= set(LAYERS), names - set(LAYERS)
        assert {"xpath.compile", "core.kernel", "xpath.filtering"} <= names

    def test_every_json_and_speculative_span_is_a_layer(self, tmp_path):
        from repro.obs import LAYERS

        doc = tmp_path / "data.json"
        doc.write_text('{"items": [{"id": 1}, {"id": 2}, {"id": 3}]}')
        prior = tmp_path / "prior.json"
        prior.write_text('{"items": [{"id": 9}]}')
        names = _trace_names(tmp_path, [str(doc), "-q", "//id", "-n", "2",
                                        "--learn", str(prior)])
        assert names <= set(LAYERS), names - set(LAYERS)
        assert {"jsonstream.lex", "core.inference"} <= names

    def test_profile_layer_self_times_partition_the_wall(self, tmp_path, capsys):
        """Per-layer self times sum to the run's wall time within 1%."""
        from repro.cli import main
        from repro.datasets import dataset_by_name

        doc = tmp_path / "xmark.xml"
        doc.write_text(dataset_by_name("xmark").generate(scale=40.0, seed=0))
        assert main(["profile", str(doc), "-q", "//item/name", "-n", "8"]) == 0
        out = capsys.readouterr().out
        wall = float(re.search(r"wall ([\d.]+) ms", out).group(1))
        table = out.split("layers (self time)")[1].splitlines()[4:]
        rows = {line.split()[0]: float(line.split()[1]) for line in table if line.strip()}
        assert {"xmlstream.lex", "core.kernel", "xmlstream.split"} <= set(rows)
        assert sum(rows.values()) == pytest.approx(wall, rel=0.01)

    def test_self_time_subtracts_children_across_lanes(self):
        from repro.obs import layer_seconds

        spans = [
            Span("parallel.backend", t0=0.0, t1=10.0, tid=0),
            Span("core.kernel", t0=1.0, t1=4.0, tid=1, args={"chunk": 0}),
            Span("xmlstream.lex", t0=1.0, t1=2.0, tid=1, depth=1),
            Span("core.kernel", t0=3.0, t1=8.0, tid=2, args={"chunk": 1}),
            Span("runtime.gc", t0=5.0, t1=6.0, tid=2, depth=1),
        ]
        # overlapping chunk lanes: the backend is charged the union's
        # complement, each lane its own exclusive time
        assert layer_seconds(spans) == {
            "xmlstream.lex": 1.0, "parallel.backend": 3.0,
            "core.kernel": 6.0, "runtime.gc": 1.0,
        }

    def test_gc_spans_only_while_tracing(self):
        import gc

        from repro.obs import gc_spans

        tracer = Tracer()
        before = len(gc.callbacks)
        with gc_spans(tracer):
            assert len(gc.callbacks) == before + 1
            with tracer.span("core.kernel"):
                gc.collect()
        assert len(gc.callbacks) == before
        (pause,) = tracer.by_name("runtime.gc")
        (kernel,) = tracer.by_name("core.kernel")
        assert pause.depth == kernel.depth + 1
        assert kernel.t0 <= pause.t0 <= pause.t1 <= kernel.t1

    def test_untraced_cli_run_registers_no_gc_hook(self, tmp_path, monkeypatch,
                                                   capsys):
        import gc

        from repro.cli import main

        feed_file = str(tmp_path / "feed.xml")
        with open(feed_file, "w", encoding="utf-8") as fh:
            fh.write(FEED_DTD + FEED_XML)
        seen = []
        monkeypatch.setattr(gc, "callbacks", _Recording(seen))
        assert main(["query", feed_file, "-q", "//id"]) == 0
        assert seen == []
        assert main(["profile", feed_file, "-q", "//id"]) == 0
        assert len(seen) == 1
        capsys.readouterr()


class _Recording(list):
    """A ``gc.callbacks`` stand-in that records registrations."""

    def __init__(self, seen: list) -> None:
        super().__init__()
        self._seen = seen

    def append(self, hook) -> None:
        self._seen.append(hook)
        super().append(hook)


class TestSamplerAttribution:
    @pytest.mark.parametrize("layer,prefix", [
        (layer, prefix)
        for layer, prefixes in LAYER_MODULES.items()
        for prefix in prefixes
    ])
    def test_each_module_prefix_attributes_to_its_layer(self, layer, prefix):
        from repro.obs.sampler import SampleProfile, layer_of_label

        assert layer_of_label(f"{prefix}:f") == layer
        profile = SampleProfile()
        profile.record(("repro.cli:main", f"{prefix}:f", "threading:wait"), n=2)
        assert profile.layers() == {layer: 2}
