"""Fault-tolerant supervision of the parallel phase.

The paper's join phase already recovers from one kind of failure —
misspeculation — by selective reprocessing.  This module generalises
that posture to the *execution* of the chunks themselves: a worker that
raises, hangs past its deadline, dies, or returns a corrupt result must
degrade the run, not fail it.

The recovery ladder for a failed chunk:

1. **retry** — up to ``max_retries`` more attempts through the same
   backend, with exponential backoff plus deterministic jitter between
   rounds;
2. **fallback** — a final, fault-injection-free re-execution on the
   serial path in the supervising process.

All attempts of one round run in parallel (one supervised batch per
round), so sibling chunks never wait on a failed one beyond the round
boundary, and a completed chunk's result is never discarded or
recomputed.  Every attempt is bounded by ``chunk_timeout``, giving the
hard bound: a hung chunk blocks at most
``chunk_timeout × (max_retries + 1)`` plus backoff, after which the
fallback (which cannot hang — injection is disabled there) finishes
the work.

Validation is pluggable: the pipeline passes a callback that checks a
chunk result's integrity (index/range agreement, mapping presence), so
a *corrupted* result is caught here and retried exactly like a raised
exception instead of poisoning the join.
"""

from __future__ import annotations

import logging
import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..obs.journal import NULL_JOURNAL
from ..obs.logsetup import get_logger
from ..obs.tracer import NULL_TRACER
from .backend import Backend, TaskOutcome, TaskTimeout

__all__ = [
    "RetryPolicy",
    "ResilienceError",
    "ResilienceReport",
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
    backend: Backend,
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
    attempt-aware logic) work across process boundaries without shared
    state.  ``validate(result, item)`` returns an error string for a
    corrupt result, ``None`` for a good one.  ``fallback(item)`` is the
    last rung; it should execute fault-free and serially.

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

    while pending and attempt <= policy.max_retries:
        if attempt > 0:
            delay = policy.backoff(attempt)
            if delay > 0:
                sleep(delay)
        handles = []
        if attempt > 0 and tracer.enabled:
            # one retry span per re-attempted chunk; they run
            # concurrently inside the round, so equal extents are honest
            for i in pending:
                h = tracer.span("parallel.backend", cat="resilience",
                                recovery="retry", chunk=i)
                sp = h.__enter__()
                sp.args.update(attempt=attempt, cause=str(last_error.get(i, "")))
                handles.append(h)
        try:
            outcomes: list[TaskOutcome] = backend.map_supervised(
                ctx, fn, [(items[i], attempt) for i in pending],
                timeout=policy.chunk_timeout,
            )
        finally:
            for h in handles:
                h.__exit__(None, None, None)

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
