"""Fault-injection matrix and resilience-layer tests.

The tentpole claim under test: with fault injection active, a
supervised parallel run returns results *identical* to the fault-free
run, and the recovery work (retries, timeouts, serial fallbacks) shows
up in the run's counters and metrics.
"""

from __future__ import annotations

import json
import math
import threading
import time

import pytest

from repro import GapEngine, SequentialEngine
from repro.cli import main as cli_main
from repro.jsonstream import tokenize_json
from repro.obs.metrics import collect_run_metrics
from repro.obs.tracer import Tracer
from repro.parallel import (
    InjectedFault,
    NO_FAULTS,
    ResilienceError,
    RetryPolicy,
    SerialBackend,
    TaskTimeout,
    ThreadBackend,
    parse_fault_spec,
    supervised_map,
)
from repro.parallel.faults import FaultRule, apply_faults

from tests.conftest import FEED_DTD

QUERIES = ["/feed/entry/id", "//title"]

XML = (
    "<feed>"
    + "".join(
        f"<entry><id>e{i:03d}</id><title>title {i}</title></entry>" for i in range(48)
    )
    + "<id>the-feed</id></feed>"
)

JSON_QUERIES = ["/json/feed/entry/id", "//title"]

JSON_TOKENS = tokenize_json(json.dumps({"feed": {
    "entry": [{"id": f"e{i:03d}", "title": f"title {i}"} for i in range(48)],
    "id": "the-feed",
}}))

#: quick policy: tight timeout, cheap backoff, deterministic
POLICY = RetryPolicy(max_retries=2, chunk_timeout=1.0, backoff_base=0.001, backoff_max=0.01)

#: hang sleeps long enough to trip the 1 s chunk timeout but short
#: enough that abandoned daemon threads drain quickly after the test
HANG = "delay=5"


@pytest.fixture(scope="module")
def baseline():
    return SequentialEngine(QUERIES).run(XML).offsets_by_id


def _engine(backend, faults, policy=POLICY):
    return GapEngine(QUERIES, grammar=FEED_DTD, backend=backend,
                     resilience=policy, faults=faults)


# ---------------------------------------------------------------------------
# spec parsing


class TestFaultSpec:
    def test_single_rule(self):
        plane = parse_fault_spec("chunk:2:raise")
        assert plane.rules == (FaultRule(action="raise", chunk=2),)
        assert plane.inherit_env

    def test_multi_rule_with_options(self):
        plane = parse_fault_spec("chunk:0:corrupt:times=inf, any:delay:p=0.5:seed=3:delay=0.25")
        first, second = plane.rules
        assert first.chunk == 0 and first.action == "corrupt" and first.times == math.inf
        assert second.chunk is None and second.action == "delay"
        assert second.p == 0.5 and second.seed == 3 and second.delay == 0.25

    @pytest.mark.parametrize("spec", [
        "",
        "chunk:2",              # missing action
        "chunk:x:raise",        # non-integer index
        "worker:1:raise",       # unknown target
        "chunk:1:explode",      # unknown action
        "chunk:1:raise:times",  # option without value
        "chunk:1:raise:n=2",    # unknown option
        "chunk:1:raise:p=2.0",  # out of range
        "any:hang:delay=-1",    # negative delay
    ])
    def test_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    def test_rule_firing_scope(self):
        rule = parse_fault_spec("chunk:3:raise:times=2").rules[0]
        assert rule.fires(3, 0) and rule.fires(3, 1)
        assert not rule.fires(3, 2)        # past times
        assert not rule.fires(4, 0)        # other chunk

    def test_probabilistic_firing_is_deterministic(self):
        rule = parse_fault_spec("any:raise:p=0.5:seed=9:times=inf").rules[0]
        pattern = [rule.fires(c, a) for c in range(8) for a in range(3)]
        assert pattern == [rule.fires(c, a) for c in range(8) for a in range(3)]
        assert any(pattern) and not all(pattern)

    def test_no_faults_plane_suppresses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "any:raise:times=inf")
        with pytest.raises(InjectedFault):
            apply_faults(None, 0, 0)
        assert apply_faults(NO_FAULTS, 0, 0) is False


# ---------------------------------------------------------------------------
# retry policy


class TestRetryPolicy:
    def test_backoff_deterministic_and_bounded(self):
        p = RetryPolicy(backoff_base=0.05, backoff_factor=2.0, backoff_max=0.2, jitter=0.25)
        delays = [p.backoff(k) for k in range(1, 6)]
        assert delays == [p.backoff(k) for k in range(1, 6)]
        for k, d in enumerate(delays, start=1):
            base = min(0.2, 0.05 * 2.0 ** (k - 1))
            assert base * 0.75 <= d <= base * 1.25

    def test_zero_jitter_is_pure_exponential(self):
        p = RetryPolicy(backoff_base=0.1, backoff_factor=3.0, backoff_max=10.0, jitter=0.0)
        assert [p.backoff(k) for k in (1, 2, 3)] == pytest.approx([0.1, 0.3, 0.9])

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"chunk_timeout": 0.0},
        {"jitter": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ---------------------------------------------------------------------------
# supervised_map directly (toy work items)


def _identity(ctx, work):
    item, _attempt = work
    return item


def _flaky(ctx, work):
    """Fail every item's first attempt, succeed after."""
    item, attempt = work
    if attempt == 0:
        raise RuntimeError(f"first attempt of {item}")
    return item


def _always_fail(ctx, work):
    raise RuntimeError("never works")


class TestSupervisedMap:
    def test_clean_run_touches_nothing(self):
        results, report = supervised_map(None, _identity, [10, 11, 12], POLICY)
        assert results == [10, 11, 12]
        assert (report.retries, report.timeouts, report.fallbacks) == (0, 0, 0)

    def test_retry_recovers_and_is_counted(self):
        sleeps = []
        results, report = supervised_map(None, _flaky, [1, 2, 3], POLICY,
                                         sleep=sleeps.append)
        assert results == [1, 2, 3]
        assert report.retries == 3 and report.fallbacks == 0
        assert len(sleeps) == 1  # one backoff before the single retry round
        assert any(e[2] == "error" for e in report.events)

    def test_invalid_result_retried_like_an_error(self):
        bad_on_first = lambda value, item: "stale" if value < 0 else None  # noqa: E731

        def fn(ctx, work):
            item, attempt = work
            return -item if attempt == 0 else item

        results, report = supervised_map(
            None, fn, [5, 6], POLICY,
            validate=bad_on_first, sleep=lambda _s: None)
        assert results == [5, 6]
        assert report.invalid_results == 2 and report.retries == 2

    def test_fallback_after_exhausted_retries(self):
        results, report = supervised_map(
            None, _always_fail, [7], POLICY,
            fallback=lambda item: item * 100, sleep=lambda _s: None)
        assert results == [700]
        assert report.retries == POLICY.max_retries
        assert report.fallbacks == 1

    def test_resilience_error_without_fallback(self):
        with pytest.raises(ResilienceError) as err:
            supervised_map(None, _always_fail, [7], POLICY,
                           sleep=lambda _s: None)
        assert err.value.index == 0
        assert err.value.attempts == POLICY.max_retries + 1

    def test_resilience_error_when_fallback_fails(self):
        def broken_fallback(item):
            raise OSError("fallback broken too")

        with pytest.raises(ResilienceError):
            supervised_map(None, _always_fail, [7], POLICY,
                           fallback=broken_fallback, sleep=lambda _s: None)

    def test_timeout_classified(self):
        def hang(ctx, work):
            item, attempt = work
            if attempt == 0:
                time.sleep(5)
            return item

        policy = RetryPolicy(max_retries=1, chunk_timeout=0.1, backoff_base=0.001)
        results, report = supervised_map(None, hang, [4], policy)
        assert results == [4]
        assert report.timeouts == 1 and report.retries == 1

    def test_retry_spans_emitted(self):
        tracer = Tracer()
        supervised_map(None, _flaky, [1, 2], POLICY,
                       tracer=tracer, sleep=lambda _s: None)
        spans = [s for s in tracer.spans if s.cat == "resilience"]
        assert {s.name for s in spans} == {"parallel.backend"}
        assert sorted((s.args["recovery"], s.args["chunk"]) for s in spans) == \
            [("retry", 0), ("retry", 1)]


# ---------------------------------------------------------------------------
# the fault matrix: action x backend x input, engine results identical to
# no-fault


SERIAL_THREAD_CASES = [
    ("raise", "chunk:2:raise", "retries"),
    ("hang", f"chunk:3:hang:{HANG}", "timeouts"),
    ("corrupt", "chunk:1:corrupt:times=inf", "fallbacks"),
    ("delay", "chunk:2:delay:delay=0.01:times=inf", None),
]

#: the two inputs of the one pipeline: XML text and JSON token columns
INPUTS = ["xml", "json"]


def _matrix_run(kind, backend, faults, policy=POLICY, n_chunks=6):
    """One GapEngine run on ``kind`` input, and its oracle."""
    if kind == "xml":
        result = _engine(backend, faults, policy).run(XML, n_chunks=n_chunks)
        expected = SequentialEngine(QUERIES).run(XML)
    else:
        engine = GapEngine(JSON_QUERIES, backend=backend, resilience=policy,
                           faults=faults)
        result = engine.run_tokens(JSON_TOKENS, n_chunks=n_chunks)
        expected = SequentialEngine(JSON_QUERIES).run_tokens(JSON_TOKENS)
    return result, expected.offsets_by_id


class TestFaultMatrix:
    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("action,spec,counter", SERIAL_THREAD_CASES,
                             ids=[c[0] for c in SERIAL_THREAD_CASES])
    def test_serial(self, action, spec, counter, kind):
        result, expected = _matrix_run(kind, SerialBackend(), spec)
        assert result.offsets_by_id == expected
        if counter is not None:
            assert getattr(result.stats.counters, counter) > 0

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("action,spec,counter", SERIAL_THREAD_CASES,
                             ids=[c[0] for c in SERIAL_THREAD_CASES])
    def test_thread(self, action, spec, counter, kind):
        with ThreadBackend(max_workers=3) as backend:
            result, expected = _matrix_run(kind, backend, spec)
        assert result.offsets_by_id == expected
        if counter is not None:
            assert getattr(result.stats.counters, counter) > 0

    def test_combined_faults(self, baseline):
        result = _engine(SerialBackend(), f"chunk:2:raise,chunk:4:hang:{HANG}").run(
            XML, n_chunks=6)
        assert result.offsets_by_id == baseline
        counters = result.stats.counters
        assert counters.retries > 0 and counters.timeouts > 0

    @pytest.mark.parametrize("kind", INPUTS)
    def test_unsupervised_run_propagates_faults(self, kind):
        with pytest.raises(InjectedFault):
            _matrix_run(kind, SerialBackend(), "chunk:2:raise", policy=None)

    def test_env_plane_reaches_workers(self, baseline, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "chunk:1:raise")
        result = _engine(SerialBackend(), None).run(XML, n_chunks=6)
        assert result.offsets_by_id == baseline
        assert result.stats.counters.retries == 1


class TestSupervisorThreads:
    """Supervision runs a run's attempts on one worker thread, and starts
    another only when a timeout abandons the current one."""

    @pytest.fixture
    def started(self, monkeypatch):
        names = []
        real = threading.Thread.start

        def spy(thread):
            names.append(thread.name)
            return real(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        return names

    @pytest.mark.parametrize("kind", INPUTS)
    def test_clean_run_starts_one_thread(self, kind, started):
        result, expected = _matrix_run(kind, SerialBackend(), None, n_chunks=8)
        assert result.offsets_by_id == expected
        assert result.stats.counters.chunks == 8
        assert len(started) <= 1

    @pytest.mark.parametrize("kind", INPUTS)
    def test_hang_starts_one_replacement(self, kind, started):
        result, expected = _matrix_run(kind, SerialBackend(), f"chunk:3:hang:{HANG}",
                                       n_chunks=8)
        assert result.offsets_by_id == expected
        assert result.stats.counters.timeouts == 1
        assert len(started) <= 2

    def test_no_timeout_runs_inline(self, started, baseline):
        policy = RetryPolicy(max_retries=1, chunk_timeout=None, backoff_base=0.001)
        result = _engine(SerialBackend(), "chunk:2:raise", policy).run(XML, n_chunks=8)
        assert result.offsets_by_id == baseline
        assert result.stats.counters.retries == 1
        assert started == []


# ---------------------------------------------------------------------------
# failure surfacing: the supervisor, and the thread backend's unsupervised
# path


def _boom_on_two(ctx, work):
    item, _attempt = work
    if item == 2:
        raise ValueError("boom")
    return item


class TestThreadBackendFailures:
    def test_task_exception_surfaces_failing_index(self):
        policy = RetryPolicy(max_retries=0, chunk_timeout=1.0)
        with pytest.raises(ResilienceError) as err:
            supervised_map(None, _boom_on_two, [0, 1, 2, 3, 4], policy)
        assert err.value.index == 2
        assert isinstance(err.value.__cause__, ValueError)
        # with a fallback the siblings keep their own results
        results, report = supervised_map(None, _boom_on_two, [0, 1, 2, 3, 4],
                                         policy, fallback=lambda item: -item)
        assert results == [0, 1, -2, 3, 4]
        assert report.events == [(2, 0, "error", "boom"), (2, 1, "fallback", "boom")]

    def test_hung_task_times_out_and_is_abandoned(self):
        ran_on = {}

        def hang_on_one(ctx, work):
            item, _attempt = work
            ran_on[item] = threading.current_thread()
            if item == 1:
                time.sleep(5)
            return item

        policy = RetryPolicy(max_retries=0, chunk_timeout=0.2)
        t0 = time.monotonic()
        results, report = supervised_map(None, hang_on_one, [0, 1, 2], policy,
                                         fallback=lambda item: item)
        # the map did not wait for the sleeping task
        assert time.monotonic() - t0 < 3.0
        assert results == [0, 1, 2] and report.timeouts == 1
        assert [e[:3] for e in report.events] == [(1, 0, "timeout"), (1, 1, "fallback")]
        assert report.events[0][3] == str(TaskTimeout(1, 0.2))
        # the hung worker was abandoned: a replacement ran the next item
        assert ran_on[1] is ran_on[0]
        assert ran_on[2] is not ran_on[1] and ran_on[1].is_alive()

    def test_supervision_recovers_from_failing_task(self):
        def fn(ctx, work):
            item, attempt = work
            if item == 2 and attempt == 0:
                raise OSError("first attempt of 2")
            return item

        policy = RetryPolicy(max_retries=1, chunk_timeout=5.0, backoff_base=0.001)
        results, report = supervised_map(None, fn, [0, 1, 2, 3], policy,
                                         fallback=lambda item: -1)
        assert results == [0, 1, 2, 3]
        assert report.retries == 1 and report.fallbacks == 0

    def test_unsupervised_run_propagates_faults(self):
        with ThreadBackend(max_workers=2) as backend:
            engine = GapEngine(QUERIES, grammar=FEED_DTD, backend=backend,
                               faults="chunk:2:raise")
            with pytest.raises(InjectedFault):
                engine.run(XML, n_chunks=6)


# ---------------------------------------------------------------------------
# metrics / spans


class TestResilienceMetrics:
    def test_counters_and_spans_exported(self, baseline):
        tracer = Tracer()
        engine = GapEngine(QUERIES, grammar=FEED_DTD, backend=SerialBackend(),
                           tracer=tracer, resilience=POLICY,
                           faults="chunk:2:raise,chunk:1:corrupt:times=inf")
        result = engine.run(XML, n_chunks=6)
        assert result.offsets_by_id == baseline

        text = collect_run_metrics(result.stats, spans=tracer.spans).to_prometheus()
        assert "repro_retries_total" in text
        assert "repro_fallbacks_total 1" in text
        retries_line = next(l for l in text.splitlines()
                            if l.startswith("repro_retries_total"))
        assert float(retries_line.split()[-1]) > 0
        assert 'repro_resilience_seconds_total{kind="retry"}' in text
        assert 'repro_resilience_seconds_total{kind="fallback"}' in text

    def test_summary_exposes_resilience_fields(self):
        result = _engine(SerialBackend(), "chunk:2:raise").run(XML, n_chunks=6)
        summary = result.stats.summary()
        assert summary["retries"] == 1.0
        assert summary["timeouts"] == 0.0
        assert summary["fallbacks"] == 0.0


# ---------------------------------------------------------------------------
# CLI acceptance: identical output with and without injected faults


class TestCliAcceptance:
    def test_query_output_identical_under_faults(self, tmp_path, capsys):
        doc = tmp_path / "feed.xml"
        doc.write_text(FEED_DTD + "\n" + XML, encoding="utf-8")
        base_args = ["query", str(doc), "-q", QUERIES[0], "-q", QUERIES[1],
                     "-e", "gap", "-n", "6"]

        assert cli_main(base_args) == 0
        clean = capsys.readouterr().out

        metrics = tmp_path / "metrics.prom"
        assert cli_main(base_args + [
            "--inject-faults", f"chunk:2:raise,chunk:4:hang:{HANG}",
            "--chunk-timeout", "1.0", "--max-retries", "1",
            "--metrics-out", str(metrics),
        ]) == 0
        faulted = capsys.readouterr().out
        faulted = "\n".join(l for l in faulted.splitlines()
                            if not l.startswith("# metrics written")) + "\n"
        assert faulted == clean

        prom = metrics.read_text(encoding="utf-8")
        retries = next(l for l in prom.splitlines()
                       if l.startswith("repro_retries_total"))
        timeouts = next(l for l in prom.splitlines()
                        if l.startswith("repro_timeouts_total"))
        assert float(retries.split()[-1]) > 0
        assert float(timeouts.split()[-1]) > 0

    def test_bad_fault_spec_is_a_clean_error(self, tmp_path, capsys):
        doc = tmp_path / "feed.xml"
        doc.write_text(FEED_DTD + "\n" + XML, encoding="utf-8")
        assert cli_main(["query", str(doc), "-q", QUERIES[0],
                         "--inject-faults", "chunk:1:explode"]) == 1
        assert "fault rule" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# hard timing bound: a hung chunk never blocks past the ladder


class TestTimingBound:
    def test_hang_bounded_by_timeout_times_attempts(self, baseline):
        policy = RetryPolicy(max_retries=1, chunk_timeout=0.3,
                             backoff_base=0.001, backoff_max=0.01)
        engine = _engine(SerialBackend(), "chunk:2:hang:delay=30:times=inf",
                         policy=policy)
        start = time.monotonic()
        result = engine.run(XML, n_chunks=6)
        elapsed = time.monotonic() - start
        assert result.offsets_by_id == baseline
        assert result.stats.counters.fallbacks == 1
        # chunk_timeout * (max_retries + 1) = 0.6 s, plus backoff and
        # the real work; 5 s of headroom vs the 30 s injected hang
        assert elapsed < 5.0
