"""Execution backends for the parallel phase.

The parallel phase is embarrassingly parallel once chunks are framed:
each worker lexes and runs its own byte range.  The backend decides
*where* that per-chunk work executes:

* :class:`SerialBackend` — in-process loop, in order.  The default
  for engines and for the query service: CPython's GIL serialises the
  byte-crunching loops, so one thread is as fast as several, and the
  simulated-cluster model (:mod:`repro.parallel.simcluster`) derives
  multicore speedups from the per-chunk work counters rather than
  from wall-clock.  In the service a merged pass's chunks run on the
  scheduler worker that took the request; the workers already serve
  concurrent requests.
* :class:`ThreadBackend` — a thread pool, selectable everywhere.  The
  GIL serialises the CPU work, so no speed-up over serial is expected
  from it, and each chunk's hand-off to the pool is a cost of its own
  (docs/PERFORMANCE.md, § The service request path).

A process pool was measured and removed: on a 2-vCPU host no shape of
it reached 1.3x over serial, because shipping chunk results back ate
most of the ideal split (docs/PERFORMANCE.md, "Why serial and thread").

Both backends implement ``map_with_context(ctx, fn, items)`` with
order-preserving results, so the pipeline code is backend-agnostic.
Supervised runs (per-chunk deadlines and retries) do not go through a
backend at all: :func:`repro.parallel.resilience.supervised_map` runs
their attempts on its own daemon worker.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any, TypeVar

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "get_backend",
]

T = TypeVar("T")
R = TypeVar("R")


class Backend:
    """Interface: order-preserving map of ``fn(ctx, item)`` over items."""

    name = "abstract"

    def map_with_context(
        self, ctx: Any, fn: Callable[[Any, T], R], items: Sequence[T]
    ) -> list[R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (no-op for poolless backends)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(Backend):
    """Run every item in the calling thread, in order."""

    name = "serial"

    def map_with_context(
        self, ctx: Any, fn: Callable[[Any, T], R], items: Sequence[T]
    ) -> list[R]:
        return [fn(ctx, item) for item in items]


class ThreadBackend(Backend):
    """Thread-pool backend (GIL-bound for CPU work)."""

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def map_with_context(
        self, ctx: Any, fn: Callable[[Any, T], R], items: Sequence[T]
    ) -> list[R]:
        pool = self._ensure_pool()
        return list(pool.map(lambda item: fn(ctx, item), items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def get_backend(name: str, max_workers: int | None = None) -> Backend:
    """Backend factory: ``serial`` / ``thread``."""
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(max_workers)
    raise ValueError(f"unknown backend {name!r} (expected serial/thread)")
