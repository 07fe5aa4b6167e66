"""Tests for the execution backends (serial / thread)."""

from __future__ import annotations

import pytest

from repro import GapEngine, SequentialEngine
from repro.parallel import SerialBackend, ThreadBackend, get_backend

from tests.conftest import FEED_DTD, FEED_XML


def _double(ctx, item):
    return ctx * item


def _boom_on_two(ctx, item):
    if item == 2:
        raise ValueError("boom")
    return item


class TestMapWithContext:
    def test_serial(self):
        assert SerialBackend().map_with_context(3, _double, [1, 2, 3]) == [3, 6, 9]

    def test_thread(self):
        with ThreadBackend(max_workers=2) as b:
            assert b.map_with_context(3, _double, [1, 2, 3]) == [3, 6, 9]

    def test_order_preserved(self):
        import time

        def slow_then_fast(ctx, item):
            time.sleep(0.02 if item == 0 else 0)
            return item

        with ThreadBackend(max_workers=4) as b:
            assert b.map_with_context(None, slow_then_fast, [0, 1, 2]) == [0, 1, 2]

    def test_factory(self):
        assert get_backend("serial").name == "serial"
        assert get_backend("thread", 2).name == "thread"
        with pytest.raises(ValueError):
            get_backend("gpu")

    def test_thread_task_error_propagates_and_pool_survives(self):
        with ThreadBackend(max_workers=2) as b:
            with pytest.raises(ValueError, match="boom"):
                b.map_with_context(None, _boom_on_two, [0, 1, 2, 3])
            assert b.map_with_context(None, _boom_on_two, [0, 1]) == [0, 1]

    def test_process_is_refused(self):
        with pytest.raises(ValueError, match="serial/thread"):
            get_backend("process")


class TestEnginesAcrossBackends:
    QUERIES = ["/feed/entry/id", "//title"]

    def expected(self):
        return SequentialEngine(self.QUERIES).run(FEED_XML).offsets_by_id

    def test_thread_backend_engine(self):
        with ThreadBackend(max_workers=3) as backend:
            engine = GapEngine(self.QUERIES, grammar=FEED_DTD, backend=backend)
            assert engine.run(FEED_XML, n_chunks=3).offsets_by_id == self.expected()


class TestBackendOwnership:
    """Engines own (and close) backends built from a name, not instances."""

    QUERIES = ["//id"]

    def test_engine_owns_named_backend(self):
        engine = GapEngine(self.QUERIES, grammar=FEED_DTD, backend="thread")
        engine.run(FEED_XML, n_chunks=2)
        assert engine.backend._pool is not None
        engine.close()
        assert engine.backend._pool is None
        engine.close()  # idempotent

    def test_context_manager_closes_owned_backend(self):
        with GapEngine(self.QUERIES, grammar=FEED_DTD, backend="thread") as engine:
            result = engine.run(FEED_XML, n_chunks=2)
            assert result.total_matches > 0
        assert engine.backend._pool is None

    def test_caller_owned_instance_stays_open(self):
        backend = ThreadBackend(max_workers=2)
        try:
            with GapEngine(self.QUERIES, grammar=FEED_DTD, backend=backend) as engine:
                engine.run(FEED_XML, n_chunks=2)
            # the engine must not shut down a backend it was handed
            assert backend._pool is not None
            assert backend.map_with_context(2, _double, [1, 2]) == [2, 4]
        finally:
            backend.close()

    def test_default_backend_close_is_noop(self):
        with GapEngine(self.QUERIES, grammar=FEED_DTD) as engine:
            engine.run(FEED_XML, n_chunks=2)
        assert engine.backend is None
