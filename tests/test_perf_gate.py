"""The end-to-end perf gate's decision rule (``.github/perf_gate.py``).

The gate compares per-workload medians of the head's runs with the
base's; these tests feed its decision function synthetic run records.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location("perf_gate", ROOT / ".github" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

BENCH = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "mb_per_s", "unit": "MB/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
}


def record(correct=True, **metrics):
    return {"correct": correct, "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}


def runs_of(base, head, workload="w"):
    return {workload: {"base": base, "head": head}}


def steady(n=5, **metrics):
    return [record(**metrics) for _ in range(n)]


class TestBounds:
    BASE = steady(mb_per_s=10.0, latency_p50_ms=4.0)

    @pytest.mark.parametrize("mb, p50", [(10.0, 4.0), (7.6, 4.0), (10.0, 4.9),
                                         (20.0, 1.0)])
    def test_within_bound_passes(self, mb, p50):
        rows, failures = gate.decide(BENCH, runs_of(self.BASE, steady(mb_per_s=mb,
                                                                      latency_p50_ms=p50)))
        assert failures == []
        assert all(r["ok"] for r in rows)

    def test_higher_is_better_past_bound_fails(self):
        _rows, failures = gate.decide(BENCH, runs_of(self.BASE, steady(
            mb_per_s=7.4, latency_p50_ms=4.0)))
        assert len(failures) == 1 and "mb_per_s" in failures[0]

    def test_lower_is_better_past_bound_fails(self):
        _rows, failures = gate.decide(BENCH, runs_of(self.BASE, steady(
            mb_per_s=10.0, latency_p50_ms=5.1)))
        assert len(failures) == 1 and "latency_p50_ms" in failures[0]

    def test_medians_not_means_decide(self):
        # one wild head run does not move the median
        head = steady(4, mb_per_s=10.0, latency_p50_ms=4.0) + [
            record(mb_per_s=0.1, latency_p50_ms=400.0)]
        assert gate.decide(BENCH, runs_of(self.BASE, head))[1] == []

    def test_worsening_from_a_zero_base(self):
        assert gate.worsening(0.0, 0.0, "higher") == 0.0
        assert gate.worsening(0.0, 1.0, "lower") == float("inf")
        assert gate.worsening(0.0, 1.0, "higher") == 0.0


class TestCorrectness:
    BASE = steady(mb_per_s=10.0, latency_p50_ms=4.0)

    def test_incorrect_run_fails(self):
        head = steady(4, mb_per_s=10.0, latency_p50_ms=4.0) + [
            record(correct=False, mb_per_s=10.0, latency_p50_ms=4.0)]
        _rows, failures = gate.decide(BENCH, runs_of(self.BASE, head))
        assert any("incorrect head" in f for f in failures)

    def test_run_without_result_fails(self):
        head = steady(4, mb_per_s=10.0, latency_p50_ms=4.0) + [None]
        _rows, failures = gate.decide(BENCH, runs_of(self.BASE, head))
        assert any("incorrect head" in f for f in failures)

    def test_incorrect_base_run_fails_too(self):
        base = self.BASE[:4] + [record(correct=False)]
        _rows, failures = gate.decide(BENCH, runs_of(base, self.BASE))
        assert any("incorrect base" in f for f in failures)

    def test_missing_metric_fails(self):
        head = steady(mb_per_s=10.0)
        _rows, failures = gate.decide(BENCH, runs_of(self.BASE, head))
        assert any("latency_p50_ms missing" in f for f in failures)

    def test_missing_workload_fails(self):
        _rows, failures = gate.decide(BENCH, {})
        assert "w: no base runs" in failures and "w: no head runs" in failures


class TestRepositoryBenchmark:
    """Every end-to-end metric of BENCHMARK.json is gated on every workload."""

    BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def records(self, scale=None):
        values = {m["name"]: 100.0 for m in self.BENCHMARK["end_to_end"]}
        if scale is not None:
            name, factor = scale
            values[name] *= factor
        return steady(3, **values)

    def all_runs(self, head_for=None):
        return {w["name"]: {"base": self.records(),
                            "head": (head_for or {}).get(w["name"], self.records())}
                for w in self.BENCHMARK["workloads"]}

    def test_rows_cover_every_pair(self):
        rows, failures = gate.decide(self.BENCHMARK, self.all_runs())
        assert failures == []
        assert {(r["workload"], r["metric"]) for r in rows} == {
            (w["name"], m["name"]) for w in self.BENCHMARK["workloads"]
            for m in self.BENCHMARK["end_to_end"]}

    def test_each_metric_fails_on_each_workload(self):
        for w in self.BENCHMARK["workloads"]:
            for m in self.BENCHMARK["end_to_end"]:
                worse = 1 - 2 * m["bound"] if m["better"] == "higher" else 1 + 2 * m["bound"]
                runs = self.all_runs({w["name"]: self.records((m["name"], worse))})
                _rows, failures = gate.decide(self.BENCHMARK, runs)
                assert len(failures) == 1, (w["name"], m["name"], failures)
                assert failures[0].startswith(f"{w['name']}: {m['name']} ")

    def test_table_renders_every_row(self):
        rows, _ = gate.decide(self.BENCHMARK, self.all_runs())
        table = gate.format_rows(rows).splitlines()
        assert len(table) == 2 + len(rows)
