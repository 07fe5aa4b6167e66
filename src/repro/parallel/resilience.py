"""Fault-tolerant supervision of the parallel phase.

The paper's join phase already recovers from one kind of failure —
misspeculation — by selective reprocessing.  This module generalises
that posture to the *execution* of the chunks themselves: a worker that
raises, hangs past its deadline, or returns a corrupt result must
degrade the run, not fail it.

The recovery ladder for a failed chunk:

1. **retry** — up to ``max_retries`` more attempts, with exponential
   backoff plus deterministic jitter between rounds;
2. **fallback** — a final, fault-injection-free re-execution in the
   supervising thread.

Supervision does not depend on the execution backend.  A round runs
its attempts in chunk order on one daemon worker thread, each under a
deadline of ``chunk_timeout``; the supervising thread waits on the
reply.  An attempt that misses its deadline is abandoned together with
its thread — a daemon thread cannot be killed, but it can no longer
block the run or interpreter exit — and a replacement thread takes the
next attempt.  So a run with no hung chunk starts one thread, and each
hang costs one more.  With ``chunk_timeout=None`` the attempts run
inline on the supervising thread (a hang then blocks).

A completed chunk's result is never discarded or recomputed, and a
hung chunk blocks at most ``chunk_timeout × (max_retries + 1)`` plus
backoff, after which the fallback (which cannot hang — injection is
disabled there) finishes the work.

Validation is pluggable: the pipeline passes a callback that checks a
chunk result's integrity (index/range agreement, mapping presence), so
a *corrupted* result is caught here and retried exactly like a raised
exception instead of poisoning the join.
"""

from __future__ import annotations

import logging
import queue
import random
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..obs.journal import NULL_JOURNAL
from ..obs.logsetup import get_logger
from ..obs.tracer import NULL_TRACER

__all__ = [
    "RetryPolicy",
    "ResilienceError",
    "ResilienceReport",
    "TaskFailure",
    "TaskOutcome",
    "TaskTimeout",
    "supervised_map",
]

logger = get_logger("parallel.resilience")


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Retry/timeout/backoff configuration for the parallel phase.

    ``chunk_timeout`` bounds one attempt of one chunk in seconds
    (``None`` disables deadlines — only raises and corruption are then
    recoverable, a hang blocks).  Backoff before retry round ``k``
    (1-based) is ``backoff_base * backoff_factor**(k-1)`` capped at
    ``backoff_max``, scaled by a jitter factor drawn deterministically
    from ``seed`` — re-running a failure reproduces its exact timing.
    """

    max_retries: int = 2
    chunk_timeout: float | None = 5.0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be positive, got {self.chunk_timeout}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff(self, retry_round: int) -> float:
        """Deterministic backoff (seconds) before retry round ``k >= 1``."""
        base = min(self.backoff_max, self.backoff_base * self.backoff_factor ** (retry_round - 1))
        if self.jitter == 0.0:
            return base
        rng = random.Random(f"{self.seed}:{retry_round}")
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


@dataclass(slots=True)
class ResilienceReport:
    """What supervision did during one run (feeds counters/metrics)."""

    retries: int = 0
    timeouts: int = 0
    fallbacks: int = 0
    invalid_results: int = 0
    #: ``(item index, attempt, event, detail)`` in occurrence order
    events: list[tuple[int, int, str, str]] = field(default_factory=list)

    def record(self, index: int, attempt: int, event: str, detail: str) -> None:
        self.events.append((index, attempt, event, detail))


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


def _serve(inbox: queue.SimpleQueue) -> None:
    """Worker loop: run each ``(fn, ctx, work, reply)`` until ``None``."""
    while (task := inbox.get()) is not None:
        fn, ctx, work, reply = task
        try:
            reply.put((True, fn(ctx, work)))
        except BaseException as exc:  # ship the real error to the caller
            reply.put((False, exc))


class _Attempts:
    """Runs attempts one at a time on a daemon worker, each with a deadline.

    The worker thread starts on the first attempt; a timed-out attempt
    abandons it (it exits once its call returns) and the next attempt
    starts a replacement.  Without a timeout attempts run inline.
    """

    def __init__(self, timeout: float | None) -> None:
        self.timeout = timeout
        self._inbox: queue.SimpleQueue | None = None

    def run(self, ctx: Any, fn: Callable, work: Any, index: int) -> TaskOutcome:
        if self.timeout is None:
            try:
                return TaskOutcome(index, value=fn(ctx, work))
            except Exception as exc:
                return TaskOutcome(index, error=exc)
        if self._inbox is None:
            self._inbox = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(self._inbox,), daemon=True,
                             name="repro-supervised").start()
        reply: queue.SimpleQueue = queue.SimpleQueue()
        self._inbox.put((fn, ctx, work, reply))
        try:
            ok, payload = reply.get(timeout=self.timeout)
        except queue.Empty:
            self.close()
            return TaskOutcome(index, error=TaskTimeout(index, self.timeout))
        return TaskOutcome(index, value=payload) if ok else TaskOutcome(index, error=payload)

    def close(self) -> None:
        """Let the current worker exit after its call, if it has one."""
        if self._inbox is not None:
            self._inbox.put(None)
            self._inbox = None


class ResilienceError(RuntimeError):
    """Every rung of the recovery ladder failed for some chunk."""

    def __init__(self, index: int, attempts: int, cause: BaseException | str) -> None:
        super().__init__(
            f"chunk {index} failed after {attempts} attempt(s) "
            f"and no fallback could complete it: {cause}"
        )
        self.index = index
        self.attempts = attempts


def _classify(error: BaseException) -> str:
    return "timeout" if isinstance(error, TaskTimeout) else "error"


def supervised_map(
    ctx: Any,
    fn: Callable[[Any, tuple[Any, int]], Any],
    items: Sequence[Any],
    policy: RetryPolicy,
    validate: Callable[[Any, Any], str | None] | None = None,
    fallback: Callable[[Any], Any] | None = None,
    tracer=NULL_TRACER,
    journal=NULL_JOURNAL,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[Any], ResilienceReport]:
    """Order-preserving map with the full recovery ladder.

    ``fn(ctx, (item, attempt))`` executes one attempt — the attempt
    number rides with the item so fault rules (and any other
    attempt-aware logic) see it without shared state.
    ``validate(result, item)`` returns an error string for a corrupt
    result, ``None`` for a good one.  ``fallback(item)`` is the last
    rung; it runs on the calling thread and should execute fault-free.

    Returns the ordered results plus a :class:`ResilienceReport`;
    raises :class:`ResilienceError` only when a chunk exhausts retries
    *and* has no working fallback.
    """
    n = len(items)
    results: list[Any] = [None] * n
    report = ResilienceReport()
    pending = list(range(n))
    last_error: dict[int, BaseException | str] = {}
    attempt = 0
    attempts = _Attempts(policy.chunk_timeout)

    while pending and attempt <= policy.max_retries:
        if attempt > 0:
            delay = policy.backoff(attempt)
            if delay > 0:
                sleep(delay)
        outcomes: list[TaskOutcome] = []
        for slot in pending:
            if attempt == 0:
                outcomes.append(attempts.run(ctx, fn, (items[slot], 0), slot))
                continue
            # one retry span per re-attempted chunk, around its attempt
            with tracer.span("parallel.backend", cat="resilience",
                             recovery="retry", chunk=slot) as sp:
                sp.args.update(attempt=attempt, cause=str(last_error.get(slot, "")))
                outcomes.append(attempts.run(ctx, fn, (items[slot], attempt), slot))

        still_failed: list[int] = []
        for slot, outcome in zip(pending, outcomes):
            if outcome.ok:
                reason = validate(outcome.value, items[slot]) if validate else None
                if reason is None:
                    results[slot] = outcome.value
                    continue
                report.invalid_results += 1
                report.record(slot, attempt, "invalid", reason)
                if journal.enabled:
                    journal.record("invalid", chunk=slot, attempt=attempt, cause=reason)
                last_error[slot] = reason
            else:
                kind = _classify(outcome.error)
                if kind == "timeout":
                    report.timeouts += 1
                    if journal.enabled:
                        journal.record("timeout", chunk=slot, attempt=attempt)
                report.record(slot, attempt, kind, str(outcome.error))
                last_error[slot] = outcome.error
            still_failed.append(slot)
        if still_failed and attempt < policy.max_retries:
            report.retries += len(still_failed)
            if journal.enabled:
                for slot in still_failed:
                    journal.record("retry", chunk=slot, attempt=attempt + 1,
                                   cause=str(last_error.get(slot, "")))
            if logger.isEnabledFor(logging.WARNING):
                logger.warning("retrying %d chunk(s) (attempt %d): %s",
                               len(still_failed), attempt + 1, still_failed)
        pending = still_failed
        attempt += 1
    attempts.close()

    for slot in pending:
        cause = last_error.get(slot, "unknown failure")
        if fallback is None:
            raise ResilienceError(slot, attempt, cause) from (
                cause if isinstance(cause, BaseException) else None)
        with tracer.span("parallel.backend", cat="resilience",
                         recovery="fallback", chunk=slot) as sp:
            sp.args.update(attempts=attempt, cause=str(cause))
            try:
                value = fallback(items[slot])
            except Exception as exc:
                raise ResilienceError(slot, attempt + 1, exc) from exc
        reason = validate(value, items[slot]) if validate else None
        if reason is not None:
            raise ResilienceError(slot, attempt + 1, f"fallback result invalid: {reason}")
        results[slot] = value
        report.fallbacks += 1
        report.record(slot, attempt, "fallback", str(cause))
        if journal.enabled:
            journal.record("fallback", chunk=slot, attempts=attempt, cause=str(cause))
        logger.warning("chunk %d fell back to serial execution after %d attempt(s): %s",
                       slot, attempt, cause)

    return results, report
