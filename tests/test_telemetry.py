"""Telemetry history, SLO alerting and the sampling profiler.

Everything time-dependent runs under a **fake clock** — the store,
the collector and the alert state machines all take explicit ``now``
values, so there are no sleeps and no flakes:

* **time-series store** — windowed rates (reset-aware: a counter that
  went backwards contributes its post-reset value), rollup exactness,
  ``value_over`` kind dispatch, JSONL persistence round-trip with
  monotonic re-basing and retention pruning;
* **collector** — manual ticks, listener ordering, source exceptions
  counted but never propagated;
* **alert rules** — the spec grammar's full error battery, threshold
  and two-window burn evaluation, for=/resolve= hysteresis, the
  manager's transition ring;
* **sampler** — collapsed-stack determinism (identical output across
  insertion orders and hash seeds), stage attribution, the flame
  view's self-contained-HTML contract;
* **service wiring** — one manual collector tick flows into ``/varz``
  telemetry, the alert journal kind, the ``repro_alerts_firing``
  gauge, ``profile_capture`` and the HTTP operator plane
  (``/alertz``, ``/profilez``, ``repro top --once``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.obs.alerts import (
    DEFAULT_RULES,
    AlertManager,
    AlertState,
    parse_alert_rule,
    parse_alert_rules,
)
from repro.obs.report import render_flame, sparkline
from repro.obs.sampler import SampleProfile, StackSampler, layer_of_label
from repro.obs.timeseries import Collector, TimeSeries, TimeSeriesStore
from repro.service import QueryClient, QueryService, ServiceConfig, ServiceError, serve

from tests.conftest import FEED_DTD, FEED_XML


def fake_store(**kwargs) -> TimeSeriesStore:
    """A store whose clocks never advance unless the test says so."""
    return TimeSeriesStore(clock=lambda: 0.0, wall=lambda: 1000.0, **kwargs)


class TestTimeSeries:
    def test_capacity_bound_drops_oldest(self):
        ts = TimeSeries("q", capacity=3)
        for i in range(5):
            ts.append(float(i), 1000.0 + i, float(i * 10))
        assert len(ts) == 3
        assert [v for _, _, v in ts.points] == [20.0, 30.0, 40.0]
        assert ts.latest == 40.0

    def test_window_selects_by_monotonic_stamp(self):
        ts = TimeSeries("q")
        for i in range(10):
            ts.append(float(i), 1000.0 + i, float(i))
        assert [v for _, _, v in ts.window(3.0, now=9.0)] == [6.0, 7.0, 8.0, 9.0]
        assert len(ts.window(0, now=9.0)) == 10  # 0 = everything

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown series kind"):
            TimeSeries("q", kind="histogram")


class TestTimeSeriesStore:
    def test_rate_is_exact_over_window(self):
        store = fake_store()
        for i, value in enumerate([0, 10, 30, 60]):
            store.record({"reqs": value}, kinds={"reqs": "counter"},
                         now=float(i), wall_ts=1000.0 + i)
        # 60 increments over 3 seconds of span
        assert store.rate("reqs", window=60, now=3.0) == pytest.approx(20.0)
        # a tighter window sees only the last two points: +30 over 1 s
        assert store.rate("reqs", window=1.0, now=3.0) == pytest.approx(30.0)

    def test_rate_needs_two_points_and_positive_span(self):
        store = fake_store()
        assert store.rate("nope", now=0.0) is None
        store.record({"reqs": 5}, kinds={"reqs": "counter"}, now=0.0)
        assert store.rate("reqs", now=0.0) is None  # one point
        store.record({"reqs": 9}, kinds={"reqs": "counter"}, now=0.0)
        assert store.rate("reqs", now=0.0) is None  # zero span

    def test_counter_reset_contributes_post_reset_value(self):
        store = fake_store()
        for i, value in enumerate([100, 110, 2, 5]):  # restart after 110
            store.record({"reqs": value}, kinds={"reqs": "counter"},
                         now=float(i), wall_ts=1000.0 + i)
        # 10 (pre-reset) + 2 (since reset) + 3 = 15 over 3 s, not (5-100)/3
        assert store.rate("reqs", window=60, now=3.0) == pytest.approx(5.0)
        assert store.resets == 1

    def test_rollup_exact(self):
        store = fake_store()
        for i, value in enumerate([4.0, 2.0, 6.0]):
            store.record({"depth": value}, now=float(i))
        roll = store.rollup("depth", window=60, now=2.0)
        assert roll == {"count": 3, "min": 2.0, "max": 6.0,
                        "avg": pytest.approx(4.0), "last": 6.0}
        assert store.rollup("depth", window=0.5, now=2.0)["count"] == 1
        assert store.rollup("nope", now=2.0) is None

    def test_value_over_dispatches_on_kind(self):
        store = fake_store()
        for i in range(3):
            store.record({"c": i * 10, "g": float(i)},
                         kinds={"c": "counter"}, now=float(i))
        assert store.value_over("c", 60, now=2.0) == pytest.approx(10.0)
        assert store.value_over("g", 60, now=2.0) == pytest.approx(1.0)
        assert store.value_over("g", 0, now=2.0) == 2.0  # 0 = latest
        assert store.value_over("nope", 60, now=2.0) is None

    def test_to_dict_bounds_points_and_reports_kind(self):
        store = fake_store()
        for i in range(10):
            store.record({"c": i}, kinds={"c": "counter"},
                         now=float(i), wall_ts=1000.0 + i)
        out = store.to_dict(max_points=4)
        assert out["ticks"] == 10
        entry = out["series"]["c"]
        assert entry["kind"] == "counter"
        assert entry["points"] == [[1006.0, 6.0], [1007.0, 7.0],
                                   [1008.0, 8.0], [1009.0, 9.0]]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            TimeSeriesStore(capacity=0)
        with pytest.raises(ValueError, match="retention"):
            TimeSeriesStore(retention=0)


class TestPersistence:
    def test_round_trip_rebases_monotonic_stamps(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        store = fake_store(persist_path=path)
        for i, value in enumerate([0, 10, 20]):
            store.record({"reqs": value}, kinds={"reqs": "counter"},
                         now=float(i), wall_ts=1000.0 + i)
        # reload 5 wall-seconds later: ages 7,6,5 → monotonic 93,94,95
        back = TimeSeriesStore(persist_path=path,
                               clock=lambda: 100.0, wall=lambda: 1007.0)
        assert back.ticks == 3
        assert back.latest("reqs") == 20.0
        series = back.series("reqs")
        assert series.kind == "counter"
        assert [m for m, _, _ in series.points] == [93.0, 94.0, 95.0]
        assert back.rate("reqs", window=60, now=100.0) == pytest.approx(10.0)

    def test_torn_tail_line_skipped(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        store = fake_store(persist_path=path)
        store.record({"g": 1.0}, now=0.0, wall_ts=1000.0)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"wall": 1001.0, "v": {"g"')  # torn mid-write
        back = TimeSeriesStore(persist_path=path,
                               clock=lambda: 0.0, wall=lambda: 1000.0)
        assert back.ticks == 1 and back.latest("g") == 1.0

    def test_retention_prunes_the_file(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        store = fake_store(persist_path=path, retention=10)
        for i in range(25):  # > 2 x retention triggers the rewrite
            store.record({"g": float(i)}, now=float(i), wall_ts=1000.0 + i)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert len(lines) <= 2 * 10
        assert json.loads(lines[-1])["v"]["g"] == 24.0

    def test_missing_file_is_fine(self, tmp_path):
        store = TimeSeriesStore(persist_path=str(tmp_path / "none.jsonl"))
        assert store.ticks == 0


class TestCollector:
    def test_manual_tick_records_and_notifies(self):
        store = fake_store()
        seen = []
        coll = Collector(lambda: ({"g": 7.0}, {}), store, interval=60.0,
                         listeners=(lambda s, now, w: seen.append((now, w)),))
        coll.tick(now=5.0, wall_ts=1005.0)
        assert coll.ticks == 1 and coll.errors == 0
        assert store.latest("g") == 7.0
        assert seen == [(5.0, 1005.0)]

    def test_source_exception_counted_not_raised(self):
        store = fake_store()

        def bad_source():
            raise RuntimeError("boom")

        coll = Collector(bad_source, store, interval=60.0)
        coll.tick(now=0.0, wall_ts=1000.0)
        assert coll.errors == 1 and coll.ticks == 0
        assert store.ticks == 0

    def test_listener_exception_counted_not_raised(self):
        store = fake_store()
        coll = Collector(lambda: ({"g": 1.0}, {}), store, interval=60.0,
                         listeners=(lambda *a: (_ for _ in ()).throw(ValueError()),))
        coll.tick(now=0.0, wall_ts=1000.0)
        assert coll.errors == 1
        assert store.latest("g") == 1.0  # the record itself landed

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            Collector(lambda: ({}, {}), fake_store(), interval=0.0)

    def test_thread_start_stop_idempotent(self):
        store = TimeSeriesStore()
        coll = Collector(lambda: ({"g": 1.0}, {}), store, interval=0.005)
        coll.start()
        coll.start()  # no second thread
        deadline = 200
        while coll.ticks == 0 and deadline:
            deadline -= 1
            threading.Event().wait(0.005)
        coll.stop()
        coll.stop()
        assert coll.ticks > 0 and store.latest("g") == 1.0


class TestAlertParsing:
    def test_threshold_rule_with_options(self):
        rule = parse_alert_rule("queue_fraction>0.8:for=10:resolve=30:name=sat")
        assert (rule.series, rule.op, rule.threshold) == ("queue_fraction", ">", 0.8)
        assert rule.kind == "threshold"
        assert (rule.for_seconds, rule.resolve_seconds) == (10.0, 30.0)
        assert rule.name == "sat"

    def test_name_defaults_to_spec(self):
        rule = parse_alert_rule("depth<2")
        assert rule.name == "depth<2" and rule.spec == "depth<2"
        assert rule.op == "<"

    def test_burn_rule(self):
        rule = parse_alert_rule("burn:errs>0.1:short=30:long=300")
        assert rule.kind == "burn"
        assert (rule.short, rule.long) == (30.0, 300.0)

    def test_default_pack_expansion(self):
        rules = parse_alert_rules(["default", "depth>5"])
        assert len(rules) == len(DEFAULT_RULES) + 1
        assert rules[-1].series == "depth"

    @pytest.mark.parametrize("spec,match", [
        ("", "empty"),
        ("queue_fraction", "expected 'series>value'"),
        (">0.5", "missing series"),
        ("depth>high", "not a number"),
        ("depth>1:for", "expected key=value"),
        ("depth>1:bogus=3", "unknown option"),
        ("depth>1:for=x", "not a number"),
        ("depth>1:for=-1", "must be >= 0"),
        ("burn", "needs a condition"),
        ("burn:", "expected 'series>value'"),
        ("burn:errs>1:window=5", "burn rules take"),
        ("depth>1:short=5", "burn-rule options"),
        ("burn:errs>1:short=600:long=60", "must be smaller"),
    ])
    def test_error_battery(self, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_alert_rule(spec)


class TestAlertStateMachine:
    def test_immediate_fire_and_hysteresis_resolve(self):
        st = AlertState(rule=parse_alert_rule("g>5:for=0:resolve=10"))
        assert st.step(True, 7.0, now=0.0) == "firing"
        # clear, but not for resolve_seconds yet
        assert st.step(False, 1.0, now=5.0) is None
        assert st.state == "firing"
        assert st.step(False, 1.0, now=11.0) == "resolved"
        assert st.state == "ok"
        assert (st.fired_count, st.resolved_count) == (1, 1)

    def test_for_window_gates_firing(self):
        st = AlertState(rule=parse_alert_rule("g>5:for=10:resolve=0"))
        assert st.step(True, 7.0, now=0.0) is None
        assert st.state == "pending"
        assert st.step(True, 7.0, now=5.0) is None  # not held long enough
        assert st.step(False, 1.0, now=6.0) is None  # blip clears pending
        assert st.state == "ok"
        st.step(True, 7.0, now=10.0)
        assert st.step(True, 7.0, now=20.0) == "firing"

    def test_flap_during_resolve_restarts_the_clock(self):
        st = AlertState(rule=parse_alert_rule("g>5:for=0:resolve=10"))
        st.step(True, 7.0, now=0.0)
        st.step(False, 1.0, now=5.0)
        st.step(True, 7.0, now=8.0)  # re-breach resets last_true
        assert st.step(False, 1.0, now=15.0) is None  # only 7 s clear
        assert st.step(False, 1.0, now=18.5) == "resolved"

    def test_burn_requires_both_windows(self):
        store = fake_store()
        # 1/s over the last 10 s, but near-zero over the long window
        store.record({"errs": 0}, kinds={"errs": "counter"}, now=0.0)
        store.record({"errs": 0}, kinds={"errs": "counter"}, now=90.0)
        store.record({"errs": 10}, kinds={"errs": "counter"}, now=100.0)
        rule = parse_alert_rule("burn:errs>0.5:short=15:long=200")
        condition, value = rule.evaluate(store, now=100.0)
        assert value == pytest.approx(1.0)  # short window breaches...
        assert condition is False           # ...but the long one does not

    def test_manager_transitions_and_ring_bound(self):
        store = fake_store()
        store.record({"g": 9.0}, now=0.0)
        mgr = AlertManager(parse_alert_rules(["g>5:for=0:resolve=0:name=hot"]))
        out = mgr.evaluate(store, now=0.0, wall_ts=1000.0)
        assert [t["state"] for t in out] == ["firing"]
        assert out[0]["rule"] == "hot" and out[0]["wall_ts"] == 1000.0
        assert mgr.firing() == ["hot"]
        # flap it far past the ring bound; the ring stays bounded
        for i in range(1, AlertManager.HISTORY + 10):
            store.record({"g": 9.0 if i % 2 else 0.0}, now=float(i))
            mgr.evaluate(store, now=float(i))
        assert len(mgr.transitions) <= AlertManager.HISTORY
        payload = mgr.to_dict()
        assert set(payload) == {"rules", "firing", "transitions"}
        assert payload["rules"][0]["name"] == "hot"


def _outer_frame():
    """A helper whose frame stack the sampler tests fold."""
    return sys._getframe()


class TestSampler:
    def test_sample_once_with_synthetic_frames(self):
        sampler = StackSampler()
        frame = _outer_frame()
        folded = sampler.sample_once(frames={12345: frame})
        assert folded == 1 and sampler.samples == 1
        (line,) = [ln for ln in sampler.profile.collapsed().splitlines()]
        assert line.split(";")[-1].split(" ")[0] == "test_telemetry:_outer_frame"

    def test_own_thread_is_skipped(self):
        sampler = StackSampler()
        me = threading.get_ident()
        assert sampler.sample_once(frames={me: _outer_frame()}) == 0

    def test_every_other_thread_is_sampled(self):
        """Thread-backend workers are sampled by the one sampler that
        ``repro profile --sample`` runs around the whole execution."""
        sampler = StackSampler()
        me = threading.get_ident()
        frames = {7: _outer_frame(), 8: _outer_frame(), me: _outer_frame()}
        assert sampler.sample_once(frames=frames) == 2
        assert sampler.samples == 1

    def test_achieved_rate_is_samples_over_sampled_seconds(self):
        sampler = StackSampler(interval=0.002)
        assert sampler.seconds == 0.0 and sampler.achieved_hz() == 0.0
        with sampler:
            time.sleep(0.05)
        assert sampler.stopped_mono is not None
        seconds = sampler.stopped_mono - sampler.started_mono
        assert sampler.seconds == seconds >= 0.05
        assert sampler.achieved_hz() == sampler.samples / seconds
        assert sampler.achieved_hz() <= 1.0 / 0.002 * 1.5

    def test_collapsed_is_order_independent(self):
        stacks = [("a:f", "b:g"), ("a:f",), ("c:h", "d:i", "e:j")]
        p1, p2 = SampleProfile(), SampleProfile()
        for s in stacks:
            p1.record(s, n=2)
        for s in reversed(stacks):
            p2.record(s)
            p2.record(s)
        assert p1.collapsed() == p2.collapsed()
        assert p1.total == 6

    def test_merge_round_trips_to_dict(self):
        p1 = SampleProfile()
        p1.record(("a:f", "b:g"), n=3)
        p2 = SampleProfile()
        p2.merge(p1.to_dict())
        p2.merge(p1)
        assert p2.total == 6
        assert p2.collapsed() == "a:f;b:g 6\n"

    def test_stage_attribution_uses_deepest_repro_frame(self):
        assert layer_of_label("repro.xmlstream.lexer:lex_range") == "xmlstream.lex"
        assert layer_of_label("repro.core.kernel:run_chunk") == "core.kernel"
        assert layer_of_label("repro.cli:main") == "unattributed"
        assert layer_of_label("threading:join") is None
        profile = SampleProfile()
        profile.record(("repro.core.kernel:run_chunk", "threading:join"), n=4)
        profile.record(("threading:run",), n=1)
        # the non-repro leaf does not win; a stack with no repro frame
        # is unattributed
        assert profile.layers() == {"core.kernel": 4, "unattributed": 1}

    def test_top_ranks_leaves_with_name_ties(self):
        profile = SampleProfile()
        profile.record(("x:a", "x:leaf1"), n=2)
        profile.record(("x:b", "x:leaf1"), n=1)
        profile.record(("x:leaf2",), n=3)
        assert profile.top(2) == [("x:leaf1", 3), ("x:leaf2", 3)]

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            StackSampler(interval=0.0)

    def test_live_sampler_context_manager(self):
        profile = SampleProfile()
        done = threading.Event()

        def spin():
            while not done.is_set():
                pass

        worker = threading.Thread(target=spin, daemon=True)
        worker.start()
        try:
            with StackSampler(profile=profile, interval=0.002):
                threading.Event().wait(0.08)
        finally:
            done.set()
            worker.join()
        assert profile.total > 0

    def test_collapsed_identical_across_hash_seeds(self):
        script = (
            "from repro.obs.sampler import SampleProfile\n"
            "import random\n"
            "stacks = [(f'm{i}:f{i}', f'm{i}:g{i}') for i in range(50)]\n"
            "random.Random(7).shuffle(stacks)\n"
            "p = SampleProfile()\n"
            "for i, s in enumerate(stacks): p.record(s, n=i + 1)\n"
            "import sys; sys.stdout.write(p.collapsed())\n"
        )
        outs = []
        for seed in ("0", "1", "1234"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            outs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0].splitlines()) == 50


class TestRenderers:
    def test_sparkline_shape_and_purity(self):
        assert sparkline([0, 1, 2, 3, 4, 3, 2, 1, 0]) == "▁▃▅▇█▇▅▃▁"
        assert sparkline([5, 5, 5]) == "▁▁▁"   # flat → lowest bar
        assert sparkline([]) == ""
        assert sparkline([1, None, "x", 2]) == "▁█"  # non-numeric dropped
        assert sparkline(list(range(100)), width=10).startswith("▁")
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_flame_view_is_self_contained_and_deterministic(self):
        counts = {
            "repro.cli:main;repro.core.kernel:run_chunk": 5,
            "repro.cli:main;repro.xmlstream.lexer:lex_range": 3,
            "threading:run": 1,
        }
        html = render_flame(counts, title="test flame", meta={"hz": 50})
        again = render_flame(dict(reversed(list(counts.items()))),
                             title="test flame", meta={"hz": 50})
        assert html == again
        lowered = html.lower()
        for banned in ("<script", "<link", "src=", "url(", "@import",
                       "http://", "https://"):
            assert banned not in lowered, banned
        assert "run_chunk" in html and "flame-core" in html
        assert "core.kernel" in html and "xmlstream.lex" in html

    def test_flame_view_empty(self):
        html = render_flame({})
        assert "no samples captured" in html


class TestTopRates:
    def test_reset_clamped_and_flagged(self):
        from repro.cli import _top_rates

        prev = {"requests": {"ok": 100}, "batches_total": 50}
        curr = {"requests": {"ok": 3}, "batches_total": 55}
        rates, reset = _top_rates(curr, prev, dt=5.0)
        assert reset is True
        assert rates["req ok/s"] == 0.0          # clamped, not -19.4
        assert rates["batches/s"] == pytest.approx(1.0)

    def test_no_prev_or_bad_dt(self):
        from repro.cli import _top_rates

        assert _top_rates({}, None, 1.0) == ({}, False)
        assert _top_rates({}, {}, 0.0) == ({}, False)
        assert _top_rates({}, {}, -1.0) == ({}, False)


# ---------------------------------------------------------------------------
# service + HTTP wiring
# ---------------------------------------------------------------------------


def obs_config(**overrides) -> ServiceConfig:
    defaults = dict(
        backend="serial", n_chunks=4, workers=2,
        collect_interval=60.0,  # the thread never fires mid-test
        alert_rules=("queue_fraction>-1:for=0:resolve=9999:name=wired",),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestServiceWiring:
    def test_manual_tick_flows_into_varz_alerts_and_journal(self):
        with QueryService(obs_config()) as svc:
            record = svc.register(FEED_XML, grammar=FEED_DTD)
            svc.query(record.doc_id, ["//id"])
            svc._collector.tick()
            varz = svc.varz(history=10)
            series = varz["telemetry"]["series"]
            assert series["request_count"]["kind"] == "counter"
            assert series["request_count"]["points"][-1][1] == 1.0
            assert series["queue_depth"]["kind"] == "gauge"
            assert varz["telemetry"]["collector"]["enabled"] is True
            assert varz["alerts"]["firing"] == ["wired"]
            events = [json.loads(line)
                      for line in svc.journal_jsonl().splitlines()]
            alerts = [e for e in events if e["kind"] == "alert"]
            assert len(alerts) == 1
            assert alerts[0]["args"]["rule"] == "wired"
            assert alerts[0]["args"]["state"] == "firing"
            assert "repro_alerts_firing 1" in svc.metrics_text()

    def test_history_zero_omits_points(self):
        with QueryService(obs_config()) as svc:
            svc._collector.tick()
            varz = svc.varz()
            assert varz["telemetry"]["series"] == {}
            assert varz["telemetry"]["ticks"] == 1

    def test_collector_disabled(self):
        with QueryService(obs_config(collector=False, alert_rules=())) as svc:
            varz = svc.varz(history=5)
            assert svc._collector is None
            assert varz["telemetry"]["collector"]["enabled"] is False
            assert varz["alerts"] is None

    def test_profile_capture_without_sampling(self):
        with QueryService(obs_config()) as svc:
            with pytest.raises(ValueError, match="continuous profiling is off"):
                svc.profile_capture(None)
            counts = svc.profile_capture(0)  # immediate one-shot capture
            assert isinstance(counts, dict)

    def test_continuous_profile_with_sampling_on(self):
        cfg = obs_config(sample=True, sample_hz=500.0)
        with QueryService(cfg) as svc:
            record = svc.register(FEED_XML, grammar=FEED_DTD)
            for _ in range(3):
                svc.query(record.doc_id, ["//id"])
            counts = svc.profile_capture(None)
            assert isinstance(counts, dict)
            assert svc._sampler is not None

    def test_uptime_uses_monotonic_clock(self):
        with QueryService(obs_config()) as svc:
            varz = svc.varz()
            assert 0.0 <= varz["uptime_seconds"] < 60.0
            assert varz["started_at_unix"] > 1e9


@pytest.fixture
def obs_http():
    svc = QueryService(obs_config(backend="thread", collect_interval=0.05,
                                  sample=True, sample_hz=200.0))
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


class TestHTTPPlane:
    def _wait_for_tick(self, client: QueryClient) -> dict:
        for _ in range(100):
            varz = client.varz(history=10)
            if varz["telemetry"]["ticks"] > 0:
                return varz
            threading.Event().wait(0.05)
        raise AssertionError("collector never ticked")

    def test_varz_history_and_alertz(self, obs_http):
        doc = obs_http.register(content=FEED_XML, grammar=FEED_DTD)
        obs_http.query(doc["doc_id"], ["//id"])
        varz = self._wait_for_tick(obs_http)
        assert varz["telemetry"]["series"]["queue_depth"]["points"]
        alertz = obs_http.alertz()
        assert alertz["firing"] == ["wired"]
        assert alertz["rules"][0]["state"] == "firing"

    def test_profilez_capture_continuous_and_flame(self, obs_http):
        text = obs_http.profilez(seconds=0)
        assert isinstance(text, str)
        continuous = obs_http.profilez()  # --sample is on in the fixture
        assert isinstance(continuous, str)
        html = obs_http.profilez(seconds=0, fmt="flame")
        lowered = html.lower()
        assert lowered.startswith("<!doctype html>")
        for banned in ("<script", "<link", "src=", "url(", "@import",
                       "http://", "https://"):
            assert banned not in lowered, banned

    def test_profilez_bad_params(self, obs_http):
        with pytest.raises(ServiceError) as err:
            obs_http.profilez(fmt="svg")
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            obs_http.profilez(seconds=-1)
        assert err.value.status == 400

    def test_profilez_continuous_400_when_sampling_off(self):
        svc = QueryService(obs_config())
        server = serve("127.0.0.1", 0, svc)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        client = QueryClient("127.0.0.1", server.server_address[1])
        try:
            client.wait_healthy()
            with pytest.raises(ServiceError) as err:
                client.profilez()
            assert err.value.status == 400
            assert "continuous profiling is off" in str(err.value)
        finally:
            try:
                client.shutdown()
            except (OSError, ServiceError):
                pass
            thread.join(timeout=10.0)

    def test_repro_top_shows_alerts_and_telemetry(self, obs_http):
        import io
        from contextlib import redirect_stdout

        from repro.cli import main

        doc = obs_http.register(content=FEED_XML, grammar=FEED_DTD)
        obs_http.query(doc["doc_id"], ["//id"])
        self._wait_for_tick(obs_http)
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["top", "--host", obs_http.host, "--port",
                       str(obs_http.port), "--once"])
        out = buf.getvalue()
        assert rc == 0
        for expected in ("repro top", "collector on", "wired", "firing",
                         "telemetry", "queue_depth"):
            assert expected in out, expected
        assert "▁" in out or "█" in out  # a telemetry sparkline
