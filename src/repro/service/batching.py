"""Request batching — coalesce concurrent queries into merged passes.

The paper's multi-query result (Figure 10 / Table 5) is that one
merged-automaton scan answers thousands of queries for roughly the
cost of one: starting paths, elimination work and the document walk are
all shared.  The serving layer exploits exactly that: requests that
arrive together for the same document are drained from one bounded
queue, grouped by document, merged into one query set, executed as ONE
engine pass, and demultiplexed back to per-request responses.

The moving parts:

* :class:`Request` — one queued query request (queries + a
  :class:`~concurrent.futures.Future` the response or error lands on);
* :class:`BatchScheduler` — ``workers`` threads each block on the
  queue; a worker that wakes drains whatever else is already waiting
  (up to ``max_batch`` requests, no waiting for companions), groups
  the batch by document and executes each group.  A request that
  arrives at an idle service therefore runs at once, and batches form
  exactly when every worker is busy.  The executor callback (the
  service core) owns engines and demuxing.

Admission control is the queue bound: :meth:`BatchScheduler.submit`
raises :class:`QueueFull` *synchronously* when the queue is at
capacity — the caller gets an immediate, explicit rejection instead of
unbounded latency.  Per-request deadlines are enforced at dispatch
(an expired request fails with :class:`DeadlineExceeded` without
costing an execution) and again by the waiting client; a hung chunk
inside an execution is bounded by the engine's resilience supervision
(:mod:`repro.parallel.resilience`) when the service configures it.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..obs.reqtrace import NULL_REQUEST_TRACE, NullRequestTrace, RequestTrace

__all__ = [
    "Request",
    "QueueFull",
    "DeadlineExceeded",
    "ServiceClosed",
    "BatchScheduler",
]

_clock = time.monotonic


class QueueFull(RuntimeError):
    """Admission refused: the request queue is at capacity."""


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before a response was produced."""


class ServiceClosed(RuntimeError):
    """The service is shutting down and no longer accepts or serves work."""


@dataclass(slots=True)
class Request:
    """One admitted query request waiting for (or receiving) a response."""

    req_id: int
    doc_id: str
    queries: tuple[str, ...]
    future: Future = field(default_factory=Future)
    #: absolute monotonic deadline; ``None`` waits indefinitely
    deadline: float | None = None
    enqueued: float = field(default_factory=_clock)
    #: per-request stage trace; the no-op singleton when tracing is off
    trace: RequestTrace | NullRequestTrace = NULL_REQUEST_TRACE

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else _clock()) >= self.deadline

    def remaining(self, now: float | None = None) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - (now if now is not None else _clock())


class BatchScheduler:
    """Bounded queue + ``workers`` threads that pull from it.

    ``execute(doc_id, requests)`` is the service-core callback: it must
    resolve every request's future (result or exception) and never
    raise — the scheduler guards it anyway so one bad group cannot
    kill a worker.
    """

    def __init__(
        self,
        execute,
        max_queue: int = 64,
        max_batch: int = 16,
        workers: int = 4,
        trace_requests: bool = False,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._execute = execute
        self.max_batch = max_batch
        self.trace_requests = trace_requests
        self._queue: queue.Queue[Request | None] = queue.Queue(maxsize=max_queue)
        self._ids = itertools.count()
        self._closed = threading.Event()
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-svc-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        self._started = False
        self._lock = threading.Lock()
        # queue depth and in-flight count are tracked together under
        # one lock so a metrics scrape reads a consistent pair (a
        # request leaving the queue and entering execution moves
        # between the two atomically; see snapshot())
        self._state_lock = threading.Lock()
        self._depth = 0
        self._in_flight = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if not self._started:
                for worker in self._workers:
                    worker.start()
                self._started = True

    def close(self) -> None:
        """Stop accepting, fail what is queued, let running groups finish."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._fail_queued()
        if self._started:
            for _ in self._workers:
                self._queue.put(None)  # one sentinel wakes and stops each
            for worker in self._workers:
                worker.join(timeout=10.0)
        # a submit racing the close may have queued after the first pass
        self._fail_queued()

    def _fail_queued(self) -> None:
        while True:
            try:
                req = self._queue.get_nowait()
            except queue.Empty:
                return
            if req is None:
                continue
            with self._state_lock:
                self._depth -= 1
            if not req.future.done():
                req.future.set_exception(ServiceClosed("service shut down"))

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def depth(self) -> int:
        """Current queue depth (for the gauge)."""
        with self._state_lock:
            return self._depth

    def snapshot(self) -> dict[str, int]:
        """Queue depth and in-flight count, read under ONE lock.

        A scrape composing ``depth()`` and an in-flight read as two
        calls can observe a torn pair (a request counted in both or in
        neither while it moves from queue to execution); this method
        is the consistent read the metrics/``/varz`` surfaces use.
        """
        with self._state_lock:
            return {"queue_depth": self._depth, "in_flight": self._in_flight}

    # -- admission -----------------------------------------------------

    def submit(
        self, doc_id: str, queries: tuple[str, ...], deadline: float | None = None
    ) -> Request:
        """Admit one request or raise :class:`QueueFull`/:class:`ServiceClosed`."""
        if self._closed.is_set():
            raise ServiceClosed("service shut down")
        req = Request(
            req_id=next(self._ids), doc_id=doc_id, queries=queries,
            deadline=deadline,
        )
        if self.trace_requests:
            req.trace = RequestTrace(enqueued=req.enqueued)
        # count before the put: an idle worker may take the request at
        # once, and its decrement must not land before this increment
        with self._state_lock:
            self._depth += 1
        try:
            self._queue.put_nowait(req)
        except queue.Full:
            with self._state_lock:
                self._depth -= 1
            raise QueueFull(
                f"request queue is full ({self._queue.maxsize} waiting)"
            ) from None
        return req

    # -- workers -------------------------------------------------------

    def _worker_loop(self) -> None:
        stop = False
        while not stop:
            # batch only what is already waiting: a backlog exists exactly
            # when every worker is busy, which is when one merged pass pays
            batch: list[Request] = []
            req = self._queue.get()
            while req is not None:
                req.trace.mark("dequeued")
                batch.append(req)
                if len(batch) == self.max_batch:
                    break
                try:
                    req = self._queue.get_nowait()
                except queue.Empty:
                    break
            else:
                stop = True  # close()'s sentinel: run this batch, then exit
            # one lock acquisition moves the whole batch from "queued" to
            # "in flight" — a concurrent snapshot() never sees a request
            # in both states or in neither
            with self._state_lock:
                self._depth -= len(batch)
                self._in_flight += len(batch)
            groups: dict[str, list[Request]] = {}
            for req in batch:
                groups.setdefault(req.doc_id, []).append(req)
            for doc_id, group in groups.items():
                self._run_group(doc_id, group)

    def _run_group(self, doc_id: str, group: list[Request]) -> None:
        try:
            self._execute(doc_id, group)
        except BaseException as exc:  # the executor must not kill workers
            for req in group:
                if not req.future.done():
                    req.future.set_exception(exc)
        finally:
            with self._state_lock:
                self._in_flight -= len(group)
