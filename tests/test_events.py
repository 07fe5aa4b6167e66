"""Unit tests for match events and depth rebasing."""

from __future__ import annotations

from repro.xpath import EventKind, MatchEvent, close, hit


class TestMatchEvent:
    def test_constructors(self):
        h = hit(3, 100, 5)
        assert (h.kind, h.sid, h.offset, h.depth) == (EventKind.HIT, 3, 100, 5)
        c = close(3, 120, 5)
        assert c.kind == EventKind.CLOSE

    def test_rebased(self):
        h = hit(1, 10, -2)
        assert h.rebased(5) == hit(1, 10, 3)
        assert h.rebased(0) is h  # no-op avoids allocation

    def test_hashable_and_ordered_fields(self):
        assert len({hit(1, 2, 3), hit(1, 2, 3), close(1, 2, 3)}) == 2

    def test_negative_chunk_local_depths_allowed(self):
        # a chunk that closes elements opened before it produces
        # negative local depths; rebasing restores absolute values
        h = hit(0, 50, -3)
        assert h.rebased(10).depth == 7


class TestDepthRebasingThroughJoin:
    """End-to-end: chunk-local depths equal sequential absolute depths."""

    def test_parallel_depths_match_sequential(self):
        from repro import GapEngine, SequentialEngine
        from tests.conftest import FEED_DTD, FEED_XML

        queries = ["//id", "/feed/entry"]
        seq = SequentialEngine(queries)
        gap = GapEngine(queries, grammar=FEED_DTD)

        # compare the raw event streams, depths included
        from repro.transducer.pipeline import run_sequential_pipeline
        from repro.transducer.policies import PathPolicy
        from repro.transducer.pipeline import ParallelPipeline

        seq_run = run_sequential_pipeline(FEED_XML, seq.automaton, seq.anchor_sids)
        policy = PathPolicy.gap(gap.table)
        pipe = ParallelPipeline(gap.automaton, policy, gap.anchor_sids)
        for n_chunks in (2, 3, 5, 8):
            par_run = pipe.run(FEED_XML, n_chunks)
            assert par_run.events == seq_run.events, n_chunks
