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

For fault tolerance each backend additionally implements
``map_supervised(ctx, fn, items, timeout)``: instead of raising on the
first failure it returns one :class:`TaskOutcome` per item, with
per-item timeouts.  A timed-out task runs on a *daemon* thread that is
simply abandoned — it cannot be killed, but it can no longer poison a
pool or block interpreter exit.  The retry/fallback brains live above
this in :mod:`repro.parallel.resilience`; the backends only execute
and classify.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, TypeVar

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "TaskFailure",
    "TaskTimeout",
    "TaskOutcome",
    "get_backend",
]

T = TypeVar("T")
R = TypeVar("R")

_clock = time.monotonic


class TaskFailure(RuntimeError):
    """A supervised task failed; ``index`` names the failing item."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


class TaskTimeout(TaskFailure):
    """A supervised task exceeded its deadline."""

    def __init__(self, index: int, timeout: float) -> None:
        super().__init__(index, f"task {index} exceeded its {timeout:g}s deadline")
        self.timeout = timeout


@dataclass(slots=True)
class TaskOutcome:
    """Result of one supervised task: a value or a classified error."""

    index: int
    value: Any = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _deadline_call(ctx: Any, fn: Callable, item: Any, index: int,
                   timeout: float) -> TaskOutcome:
    """Run one call on a daemon thread with a deadline.

    On timeout the thread is abandoned: daemon threads die with the
    process, so a hung worker costs one idle thread, not a hung run.
    """
    cell: list = []

    def body() -> None:
        try:
            cell.append(("ok", fn(ctx, item)))
        except BaseException as exc:  # ship the real error to the caller
            cell.append(("err", exc))

    thread = threading.Thread(target=body, daemon=True, name=f"repro-task-{index}")
    thread.start()
    thread.join(timeout)
    if thread.is_alive() or not cell:
        return TaskOutcome(index, error=TaskTimeout(index, timeout))
    kind, payload = cell[0]
    if kind == "ok":
        return TaskOutcome(index, value=payload)
    return TaskOutcome(index, error=payload)


class Backend:
    """Interface: order-preserving map of ``fn(ctx, item)`` over items."""

    name = "abstract"

    def map_with_context(
        self, ctx: Any, fn: Callable[[Any, T], R], items: Sequence[T]
    ) -> list[R]:
        raise NotImplementedError

    def map_supervised(
        self,
        ctx: Any,
        fn: Callable[[Any, T], R],
        items: Sequence[T],
        timeout: float | None = None,
    ) -> list[TaskOutcome]:
        """Fault-isolated map: one outcome per item, never raises per-item.

        The base implementation executes serially; pooled backends
        override it to keep their parallelism.
        """
        outcomes: list[TaskOutcome] = []
        for i, item in enumerate(items):
            if timeout is not None:
                outcomes.append(_deadline_call(ctx, fn, item, i, timeout))
                continue
            try:
                outcomes.append(TaskOutcome(i, value=fn(ctx, item)))
            except Exception as exc:
                outcomes.append(TaskOutcome(i, error=exc))
        return outcomes

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

    def map_supervised(
        self,
        ctx: Any,
        fn: Callable[[Any, T], R],
        items: Sequence[T],
        timeout: float | None = None,
    ) -> list[TaskOutcome]:
        """Supervised map on dedicated daemon threads.

        The persistent pool is deliberately bypassed: a hung task would
        poison a pool thread forever (and block ``close()``); an
        abandoned daemon thread costs nothing.
        """
        cells: list[list] = [[] for _ in items]
        threads: list[threading.Thread] = []

        def body(i: int, item: Any) -> None:
            try:
                cells[i].append(("ok", fn(ctx, item)))
            except BaseException as exc:
                cells[i].append(("err", exc))

        for i, item in enumerate(items):
            t = threading.Thread(target=body, args=(i, item), daemon=True,
                                 name=f"repro-task-{i}")
            t.start()
            threads.append(t)

        deadline = None if timeout is None else _clock() + timeout
        outcomes: list[TaskOutcome] = []
        for i, t in enumerate(threads):
            t.join(None if deadline is None else max(0.0, deadline - _clock()))
            if t.is_alive() or not cells[i]:
                outcomes.append(TaskOutcome(i, error=TaskTimeout(i, timeout or 0.0)))
                continue
            kind, payload = cells[i][0]
            outcomes.append(TaskOutcome(i, value=payload) if kind == "ok"
                            else TaskOutcome(i, error=payload))
        return outcomes

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
