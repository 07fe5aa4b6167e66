"""Deterministic fault injection for the parallel phase.

A production parallel phase must survive workers that crash, hang,
return garbage, or simply run slow.  This module is the *test plane*
for that claim: a :class:`FaultPlane` describes which chunk workers
misbehave and how, and :func:`apply_faults` — called at the top of the
chunk-worker body — makes it happen.  Everything is deterministic in
``(rule, chunk index, attempt)``, so any observed failure can be
reproduced exactly from its spec string.

Fault-spec grammar (``--inject-faults`` / the ``REPRO_FAULTS``
environment variable)::

    spec    = rule ("," rule)*
    rule    = target ":" action (":" option)*
    target  = "chunk" ":" INDEX | "any"
    action  = "raise" | "hang" | "corrupt" | "delay"
    option  = "times=" (INT | "inf")     # attempts that fire (default 1)
            | "p=" FLOAT                 # firing probability (default 1.0)
            | "seed=" INT                # RNG seed for p < 1 (default 0)
            | "delay=" FLOAT             # sleep seconds for hang/delay

Examples::

    chunk:2:raise                 # chunk 2's first attempt raises
    chunk:4:hang                  # chunk 4's first attempt hangs
    chunk:0:corrupt:times=inf     # chunk 0 always returns garbage
    any:delay:p=0.05:seed=1:delay=0.001   # 5% of attempts sleep 1 ms

The default ``times=1`` means a fault fires on the *first* attempt only
— the natural shape for testing retry recovery.  ``times=inf`` forces
the resilience layer all the way to its serial fallback.

A configured plane travels inside the worker context; without one,
``REPRO_FAULTS`` is read lazily inside the worker body, so faults
apply to any run with no config plumbing at all.  The serial fallback
runs with :data:`NO_FAULTS`, which also suppresses the environment
plane — recovery itself is never sabotaged.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass

__all__ = [
    "ACTIONS",
    "FaultRule",
    "FaultPlane",
    "InjectedFault",
    "NO_FAULTS",
    "apply_faults",
    "env_plane",
    "parse_fault_spec",
]

ACTIONS = ("raise", "hang", "corrupt", "delay")

#: default sleep for ``hang`` — long enough that any sane chunk timeout
#: expires first, short enough that an abandoned daemon thread dies with
#: the process rather than outliving the test session
DEFAULT_HANG_SECONDS = 3600.0

#: default sleep for ``delay``
DEFAULT_DELAY_SECONDS = 0.01


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault throws inside a chunk worker."""

    def __init__(self, chunk_index: int, attempt: int) -> None:
        super().__init__(f"injected fault in chunk {chunk_index} (attempt {attempt})")
        self.chunk_index = chunk_index
        self.attempt = attempt


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One parsed spec rule.

    ``chunk`` is the targeted chunk index, or ``None`` for ``any``.
    ``times`` bounds the firing attempts: attempts ``0 .. times-1``
    fire, later ones do not (``inf`` fires forever).  ``p``/``seed``
    make firing probabilistic but deterministic in
    ``(seed, chunk, attempt)``.
    """

    action: str
    chunk: int | None = None
    times: float = 1.0
    p: float = 1.0
    seed: int = 0
    delay: float | None = None

    def fires(self, chunk_index: int, attempt: int) -> bool:
        if self.chunk is not None and self.chunk != chunk_index:
            return False
        if attempt >= self.times:
            return False
        if self.p >= 1.0:
            return True
        return random.Random(f"{self.seed}:{chunk_index}:{attempt}").random() < self.p

    def sleep_seconds(self) -> float:
        if self.delay is not None:
            return self.delay
        return DEFAULT_HANG_SECONDS if self.action == "hang" else DEFAULT_DELAY_SECONDS


@dataclass(frozen=True, slots=True)
class FaultPlane:
    """A set of fault rules plus the env-inheritance switch.

    ``inherit_env`` controls whether ``REPRO_FAULTS`` is merged in at
    application time; :data:`NO_FAULTS` turns it off so the resilience
    layer's serial fallback cannot be re-faulted.
    """

    rules: tuple[FaultRule, ...] = ()
    inherit_env: bool = True

    def __bool__(self) -> bool:
        return bool(self.rules)

    def matching(self, chunk_index: int, attempt: int) -> list[FaultRule]:
        return [r for r in self.rules if r.fires(chunk_index, attempt)]


#: the explicit "no faults, not even from the environment" plane
NO_FAULTS = FaultPlane(rules=(), inherit_env=False)


def parse_fault_spec(spec: str) -> FaultPlane:
    """Parse a spec string (see module docstring) into a plane."""
    rules: list[FaultRule] = []
    for raw in spec.split(","):
        part = raw.strip()
        if not part:
            continue
        rules.append(_parse_rule(part))
    if not rules:
        raise ValueError(f"empty fault spec {spec!r}")
    return FaultPlane(rules=tuple(rules))


def _parse_rule(rule: str) -> FaultRule:
    fields = rule.split(":")
    if fields[0] == "chunk":
        if len(fields) < 3:
            raise ValueError(f"fault rule {rule!r}: expected chunk:<index>:<action>")
        try:
            chunk: int | None = int(fields[1])
        except ValueError:
            raise ValueError(f"fault rule {rule!r}: chunk index must be an integer") from None
        action, options = fields[2], fields[3:]
    elif fields[0] == "any":
        if len(fields) < 2:
            raise ValueError(f"fault rule {rule!r}: expected any:<action>")
        chunk, action, options = None, fields[1], fields[2:]
    else:
        raise ValueError(f"fault rule {rule!r}: target must be 'chunk:<i>' or 'any'")
    if action not in ACTIONS:
        raise ValueError(f"fault rule {rule!r}: unknown action {action!r} "
                         f"(expected one of {'/'.join(ACTIONS)})")

    times, p, seed, delay = 1.0, 1.0, 0, None
    for opt in options:
        key, sep, value = opt.partition("=")
        if not sep:
            raise ValueError(f"fault rule {rule!r}: option {opt!r} is not key=value")
        try:
            if key == "times":
                times = math.inf if value == "inf" else float(int(value))
            elif key == "p":
                p = float(value)
            elif key == "seed":
                seed = int(value)
            elif key == "delay":
                delay = float(value)
            else:
                raise ValueError(f"fault rule {rule!r}: unknown option {key!r}")
        except ValueError as exc:
            if "unknown option" in str(exc) or "not key=value" in str(exc):
                raise
            raise ValueError(f"fault rule {rule!r}: bad value for {key!r}") from None
    if times < 0 or not 0.0 <= p <= 1.0 or (delay is not None and delay < 0):
        raise ValueError(f"fault rule {rule!r}: out-of-range option value")
    return FaultRule(action=action, chunk=chunk, times=times, p=p, seed=seed, delay=delay)


# -- environment plane -------------------------------------------------------

_ENV_VAR = "REPRO_FAULTS"
_env_cache: dict[str, FaultPlane] = {}


def env_plane() -> FaultPlane | None:
    """The plane described by ``REPRO_FAULTS``, or ``None`` when unset.

    Parsed lazily and cached per spec value, so the variable is
    honoured inside freshly spawned worker processes and tests can
    monkeypatch it between runs.
    """
    spec = os.environ.get(_ENV_VAR)
    if not spec:
        return None
    plane = _env_cache.get(spec)
    if plane is None:
        plane = parse_fault_spec(spec)
        _env_cache[spec] = plane
    return plane


def apply_faults(plane: FaultPlane | None, chunk_index: int, attempt: int) -> bool:
    """Fire every matching fault for this ``(chunk, attempt)``.

    Called at the top of the chunk-worker body.  ``raise`` throws
    :class:`InjectedFault`; ``hang``/``delay`` sleep; ``corrupt``
    returns ``True`` so the worker mangles its result before returning.
    A ``None`` plane still honours ``REPRO_FAULTS``; pass
    :data:`NO_FAULTS` to disable injection entirely.
    """
    rules: list[FaultRule] = []
    if plane is not None:
        rules.extend(plane.matching(chunk_index, attempt))
    if plane is None or plane.inherit_env:
        env = env_plane()
        if env is not None:
            rules.extend(env.matching(chunk_index, attempt))
    corrupt = False
    for rule in rules:
        if rule.action == "raise":
            raise InjectedFault(chunk_index, attempt)
        if rule.action in ("hang", "delay"):
            time.sleep(rule.sleep_seconds())
        elif rule.action == "corrupt":
            corrupt = True
    return corrupt
