"""Fault-injection matrix and resilience-layer tests.

The tentpole claim under test: with fault injection active, a
supervised parallel run returns results *identical* to the fault-free
run, and the recovery work (retries, timeouts, serial fallbacks) shows
up in the run's counters and metrics.
"""

from __future__ import annotations

import math

import pytest

from repro import GapEngine, SequentialEngine
from repro.cli import main as cli_main
from repro.obs.metrics import collect_run_metrics
from repro.obs.tracer import Tracer
from repro.parallel import (
    InjectedFault,
    NO_FAULTS,
    ProcessBackend,
    ResilienceError,
    RetryPolicy,
    SerialBackend,
    TaskFailure,
    ThreadBackend,
    WorkerCrash,
    parse_fault_spec,
    supervised_map,
)
from repro.parallel.backend import TaskTimeout
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
        results, report = supervised_map(
            SerialBackend(), None, _identity, [10, 11, 12], POLICY)
        assert results == [10, 11, 12]
        assert (report.retries, report.timeouts, report.fallbacks) == (0, 0, 0)

    def test_retry_recovers_and_is_counted(self):
        sleeps = []
        results, report = supervised_map(
            SerialBackend(), None, _flaky, [1, 2, 3], POLICY, sleep=sleeps.append)
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
            SerialBackend(), None, fn, [5, 6], POLICY,
            validate=bad_on_first, sleep=lambda _s: None)
        assert results == [5, 6]
        assert report.invalid_results == 2 and report.retries == 2

    def test_fallback_after_exhausted_retries(self):
        results, report = supervised_map(
            SerialBackend(), None, _always_fail, [7], POLICY,
            fallback=lambda item: item * 100, sleep=lambda _s: None)
        assert results == [700]
        assert report.retries == POLICY.max_retries
        assert report.fallbacks == 1

    def test_resilience_error_without_fallback(self):
        with pytest.raises(ResilienceError) as err:
            supervised_map(SerialBackend(), None, _always_fail, [7], POLICY,
                           sleep=lambda _s: None)
        assert err.value.index == 0
        assert err.value.attempts == POLICY.max_retries + 1

    def test_resilience_error_when_fallback_fails(self):
        def broken_fallback(item):
            raise OSError("fallback broken too")

        with pytest.raises(ResilienceError):
            supervised_map(SerialBackend(), None, _always_fail, [7], POLICY,
                           fallback=broken_fallback, sleep=lambda _s: None)

    def test_timeout_classified(self):
        def hang(ctx, work):
            import time
            item, attempt = work
            if attempt == 0:
                time.sleep(5)
            return item

        policy = RetryPolicy(max_retries=1, chunk_timeout=0.1, backoff_base=0.001)
        results, report = supervised_map(SerialBackend(), None, hang, [4], policy)
        assert results == [4]
        assert report.timeouts == 1 and report.retries == 1

    def test_retry_spans_emitted(self):
        tracer = Tracer()
        supervised_map(SerialBackend(), None, _flaky, [1, 2], POLICY,
                       tracer=tracer, sleep=lambda _s: None)
        spans = [s for s in tracer.spans if s.cat == "resilience"]
        assert {s.name for s in spans} == {"parallel.backend"}
        assert sorted((s.args["recovery"], s.args["chunk"]) for s in spans) == \
            [("retry", 0), ("retry", 1)]


# ---------------------------------------------------------------------------
# the fault matrix: action x backend, engine results identical to no-fault


SERIAL_THREAD_CASES = [
    ("raise", "chunk:2:raise", "retries"),
    ("hang", f"chunk:3:hang:{HANG}", "timeouts"),
    ("corrupt", "chunk:1:corrupt:times=inf", "fallbacks"),
    ("delay", "chunk:2:delay:delay=0.01:times=inf", None),
]


class TestFaultMatrix:
    @pytest.mark.parametrize("action,spec,counter", SERIAL_THREAD_CASES,
                             ids=[c[0] for c in SERIAL_THREAD_CASES])
    def test_serial(self, action, spec, counter, baseline):
        result = _engine(SerialBackend(), spec).run(XML, n_chunks=6)
        assert result.offsets_by_id == baseline
        if counter is not None:
            assert getattr(result.stats.counters, counter) > 0

    @pytest.mark.parametrize("action,spec,counter", SERIAL_THREAD_CASES,
                             ids=[c[0] for c in SERIAL_THREAD_CASES])
    def test_thread(self, action, spec, counter, baseline):
        with ThreadBackend(max_workers=3) as backend:
            result = _engine(backend, spec).run(XML, n_chunks=6)
        assert result.offsets_by_id == baseline
        if counter is not None:
            assert getattr(result.stats.counters, counter) > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("action,spec,counter", [
        ("raise", "chunk:2:raise", "retries"),
        ("hang", f"chunk:3:hang:{HANG}", "timeouts"),
        ("corrupt", "chunk:1:corrupt:times=inf", "fallbacks"),
    ], ids=["raise", "hang", "corrupt"])
    def test_process(self, action, spec, counter, baseline):
        policy = RetryPolicy(max_retries=1, chunk_timeout=3.0, backoff_base=0.001)
        with ProcessBackend(max_workers=2) as backend:
            result = _engine(backend, spec, policy=policy).run(XML, n_chunks=4)
        assert result.offsets_by_id == baseline
        assert getattr(result.stats.counters, counter) > 0

    def test_combined_faults(self, baseline):
        result = _engine(SerialBackend(), f"chunk:2:raise,chunk:4:hang:{HANG}").run(
            XML, n_chunks=6)
        assert result.offsets_by_id == baseline
        counters = result.stats.counters
        assert counters.retries > 0 and counters.timeouts > 0

    def test_unsupervised_run_propagates_faults(self):
        engine = GapEngine(QUERIES, grammar=FEED_DTD, backend=SerialBackend(),
                           faults="chunk:2:raise")
        with pytest.raises(InjectedFault):
            engine.run(XML, n_chunks=6)

    def test_env_plane_reaches_workers(self, baseline, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "chunk:1:raise")
        result = _engine(SerialBackend(), None).run(XML, n_chunks=6)
        assert result.offsets_by_id == baseline
        assert result.stats.counters.retries == 1


# ---------------------------------------------------------------------------
# ProcessBackend failure surfacing (unsupervised path)


def _boom_on_two(ctx, item):
    if item == 2:
        raise ValueError("boom")
    return item


def _die_on_two(ctx, item):
    if item == 2:
        import os
        os._exit(13)
    return item


@pytest.mark.slow
class TestProcessBackendFailures:
    def test_worker_exception_surfaces_failing_index(self):
        with ProcessBackend(max_workers=2) as backend:
            with pytest.raises(TaskFailure) as err:
                backend.map_with_context(None, _boom_on_two, [0, 1, 2, 3, 4])
        assert err.value.index == 2
        assert "ValueError" in str(err.value)
        # pool survives a plain task exception and remains usable
        with ProcessBackend(max_workers=2) as backend:
            assert backend.map_with_context(None, _boom_on_two, [0, 1]) == [0, 1]

    def test_dead_worker_reports_crash(self):
        with ProcessBackend(max_workers=2) as backend:
            with pytest.raises(WorkerCrash):
                backend.map_with_context(None, _die_on_two, [0, 1, 2, 3])

    def test_supervision_recovers_from_dead_worker(self, baseline=None):
        def fallback(item):
            return item

        def fn(ctx, work):
            item, attempt = work
            if item == 2 and attempt == 0:
                import os
                os._exit(13)
            return item

        policy = RetryPolicy(max_retries=1, chunk_timeout=5.0, backoff_base=0.001)
        with ProcessBackend(max_workers=2) as backend:
            results, report = supervised_map(
                backend, None, fn, [0, 1, 2, 3], policy, fallback=fallback)
        assert results == [0, 1, 2, 3]
        assert report.retries >= 1


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
        import time

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
