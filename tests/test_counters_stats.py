"""Unit tests for work counters and run statistics."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.stats import RunStats
from repro.transducer import WorkCounters


class TestWorkCounters:
    def test_defaults_are_zero(self):
        c = WorkCounters()
        assert c.total_tokens == 0
        assert c.avg_starting_paths == 0.0
        assert c.avg_tree_paths == 0.0

    def test_merge_is_additive(self):
        a = WorkCounters(stack_tokens=10, tree_tokens=5, switches=1, chunks=1)
        b = WorkCounters(stack_tokens=3, tree_tokens=7, divergences=2, chunks=1)
        a.merge(b)
        assert a.stack_tokens == 13
        assert a.tree_tokens == 12
        assert a.switches == 1
        assert a.divergences == 2
        assert a.chunks == 2

    def test_copy_is_independent(self):
        a = WorkCounters(stack_tokens=5)
        b = a.copy()
        b.stack_tokens += 1
        assert a.stack_tokens == 5 and b.stack_tokens == 6

    def test_derived_quantities(self):
        c = WorkCounters(stack_tokens=30, tree_tokens=10, tree_path_steps=40,
                         starting_paths=12, chunks=4)
        assert c.total_tokens == 40
        assert c.avg_tree_paths == 4.0
        assert c.avg_starting_paths == 3.0

    def test_every_field_merges_copies_and_reports(self):
        """A distinct value per field, ``skipped_tokens`` included: a
        field left out of ``merge``, ``copy`` or ``as_dict`` shows."""
        names = [f.name for f in fields(WorkCounters)]
        assert "skipped_tokens" in names
        a = WorkCounters(**{n: 1 + k for k, n in enumerate(names)})
        b = WorkCounters(**{n: 100 * (1 + k) for k, n in enumerate(names)})
        a.merge(b)
        expected = {n: 101 * (1 + k) for k, n in enumerate(names)}
        assert a.as_dict() == expected
        assert list(a.as_dict()) == names
        c = a.copy()
        assert c is not a and c.as_dict() == expected
        c.merge(c.copy())
        assert a.as_dict() == expected
        assert c.as_dict() == {n: 2 * v for n, v in expected.items()}

    def test_as_dict_round_trip(self):
        c = WorkCounters(stack_tokens=1, misspeculations=2)
        d = c.as_dict()
        assert d["stack_tokens"] == 1 and d["misspeculations"] == 2
        assert set(d) == set(WorkCounters().as_dict())


class TestRunStats:
    def make(self, per_chunk, **totals):
        chunk_counters = [WorkCounters(**kw) for kw in per_chunk]
        agg = WorkCounters(**totals)
        for c in chunk_counters:
            agg.merge(c)
        return RunStats(counters=agg, chunk_counters=chunk_counters)

    def test_avg_starting_paths_excludes_chunk0(self):
        stats = self.make([
            dict(starting_paths=1, chunks=1),   # chunk 0: known context
            dict(starting_paths=6, chunks=1),
            dict(starting_paths=4, chunks=1),
        ])
        assert stats.avg_starting_paths == 5.0

    def test_avg_starting_paths_single_chunk(self):
        stats = self.make([dict(starting_paths=1, chunks=1)])
        assert stats.avg_starting_paths == 1.0

    def test_speculation_accuracy(self):
        stats = self.make(
            [dict(chunks=1)] * 5, misspeculations=2
        )
        # 4 speculated chunks (chunk 0 doesn't), 2 failed
        assert stats.speculation_accuracy == pytest.approx(0.5)

    def test_accuracy_with_no_speculation(self):
        stats = self.make([dict(chunks=1)])
        assert stats.speculation_accuracy == 1.0

    def test_reprocessing_cost(self):
        stats = self.make(
            [dict(stack_tokens=90, chunks=1)], reprocessed_tokens=10
        )
        assert stats.reprocessing_cost == pytest.approx(0.1)

    def test_cost_zero_when_no_work(self):
        stats = self.make([dict(chunks=1)])
        assert stats.reprocessing_cost == 0.0

    def test_summary_keys(self):
        stats = self.make([dict(chunks=1)])
        summary = stats.summary()
        for key in ("chunks", "avg_starting_paths", "switches", "misspeculations",
                    "speculation_accuracy", "reprocessing_cost", "skipped_tokens"):
            assert key in summary
