"""Telemetry history — a bounded in-memory time-series store + collector.

The service's point-in-time surfaces (``/metrics``, ``/varz``) answer
*what is happening now*; this module adds the time dimension behind
``/varz``'s ``telemetry`` section, ``repro top`` and the alert
engine (:mod:`repro.obs.alerts`):

* :class:`TimeSeries` — one named series of ``(mono, wall, value)``
  points in a bounded deque (old points fall off the back);
* :class:`TimeSeriesStore` — the named-series registry with
  counter→rate derivation (**reset-aware**: a counter that went
  backwards, e.g. across a daemon restart replayed from persistence,
  contributes its post-reset value instead of a negative delta),
  windowed min/max/avg rollups, and optional **JSONL persistence with
  retention** so history survives restarts (one line per tick under
  the artifact-store root);
* :class:`Collector` — the background thread that snapshots a source
  callable every ``interval`` seconds and feeds the store, then runs
  its listeners (the alert engine hooks in here).

Design contract:

* samples are **monotonic-clocked** (`time.monotonic`) so window math
  never goes backwards under an NTP step; each point also carries a
  wall-clock timestamp for display and persistence re-basing;
* everything takes an injectable ``clock``/``wall`` pair and
  :meth:`Collector.tick` is callable directly, so the whole plane is
  testable with a fake clock — no sleeps, no flakes;
* persisted history is re-based on load: a stored point's age is
  ``now_wall - wall`` and its monotonic stamp becomes ``now_mono -
  age``, so windows keep working across process restarts.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Mapping

from .logsetup import get_logger

__all__ = ["TimeSeries", "TimeSeriesStore", "Collector"]

logger = get_logger("obs.timeseries")

#: the two series kinds: ``counter`` (monotonic, rate-derivable) and
#: ``gauge`` (instantaneous level, rollup-able)
SERIES_KINDS = ("counter", "gauge")

#: default points kept per series (10 minutes at the default 1 s tick)
DEFAULT_CAPACITY = 600

#: default persisted-tick retention (lines kept in the JSONL file)
DEFAULT_RETENTION = 5000


class TimeSeries:
    """One named series: a bounded deque of ``(mono, wall, value)``."""

    __slots__ = ("name", "kind", "points")

    def __init__(self, name: str, kind: str = "gauge",
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {kind!r} "
                             f"(choose from {SERIES_KINDS})")
        self.name = name
        self.kind = kind
        self.points: deque[tuple[float, float, float]] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self.points)

    def append(self, mono: float, wall: float, value: float) -> None:
        self.points.append((mono, wall, float(value)))

    @property
    def latest(self) -> float | None:
        return self.points[-1][2] if self.points else None

    def window(self, seconds: float, now: float) -> list[tuple[float, float, float]]:
        """Points with ``mono >= now - seconds`` (all points if 0)."""
        if seconds <= 0:
            return list(self.points)
        cut = now - seconds
        return [p for p in self.points if p[0] >= cut]


class TimeSeriesStore:
    """Bounded named series + rates + rollups + optional persistence.

    Thread-safe: one lock guards the series map and the persistence
    file, so a collector tick and a ``/varz`` render never race.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        persist_path: str | None = None,
        retention: int = DEFAULT_RETENTION,
        clock: Callable[[], float] = time.monotonic,
        wall: Callable[[], float] = time.time,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if retention <= 0:
            raise ValueError(f"retention must be positive, got {retention}")
        self.capacity = capacity
        self.retention = retention
        self.persist_path = persist_path
        self._clock = clock
        self._wall = wall
        self._lock = threading.Lock()
        self._series: dict[str, TimeSeries] = {}
        #: counter resets observed by :meth:`rate` bookkeeping
        self.resets = 0
        #: ticks recorded into this store (including loaded history)
        self.ticks = 0
        self._persisted_lines = 0
        if persist_path:
            self._load()

    # -- recording -----------------------------------------------------

    def record(
        self,
        values: Mapping[str, float],
        kinds: Mapping[str, str] | None = None,
        now: float | None = None,
        wall_ts: float | None = None,
        persist: bool = True,
    ) -> None:
        """Record one tick: a point per named value, one persisted line.

        ``kinds`` maps names to ``counter``/``gauge`` on first sight
        (unknown names default to ``gauge``).  ``now``/``wall_ts``
        override the clocks — the fake-clock hook the tests use.
        """
        mono = self._clock() if now is None else now
        wall_ts = self._wall() if wall_ts is None else wall_ts
        kinds = kinds or {}
        with self._lock:
            for name, value in values.items():
                series = self._series.get(name)
                if series is None:
                    series = TimeSeries(name, kinds.get(name, "gauge"),
                                        capacity=self.capacity)
                    self._series[name] = series
                series.append(mono, wall_ts, value)
            self.ticks += 1
            if persist and self.persist_path:
                self._persist_tick(wall_ts, values, kinds)

    # -- queries -------------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def series(self, name: str) -> TimeSeries | None:
        with self._lock:
            return self._series.get(name)

    def latest(self, name: str) -> float | None:
        series = self.series(name)
        return series.latest if series is not None else None

    def rate(self, name: str, window: float = 60.0,
             now: float | None = None) -> float | None:
        """Per-second rate of a counter over ``window`` seconds.

        Sums the positive deltas between consecutive points; a
        **negative delta is a counter reset** (daemon restart between
        ticks) and contributes the post-reset value — the increments
        since the reset — instead of poisoning the rate with a negative
        number.  Returns ``None`` with fewer than two points in window.
        """
        now = self._clock() if now is None else now
        series = self.series(name)
        if series is None:
            return None
        pts = series.window(window, now)
        if len(pts) < 2:
            return None
        span = pts[-1][0] - pts[0][0]
        if span <= 0:
            return None
        total = 0.0
        for (_, _, prev), (_, _, curr) in zip(pts, pts[1:]):
            delta = curr - prev
            if delta < 0:  # reset: count what accumulated since
                self.resets += 1
                delta = curr
            total += delta
        return total / span

    def rollup(self, name: str, window: float = 60.0,
               now: float | None = None) -> dict | None:
        """``{count, min, max, avg, last}`` over the window (None = empty)."""
        now = self._clock() if now is None else now
        series = self.series(name)
        if series is None:
            return None
        pts = series.window(window, now)
        if not pts:
            return None
        values = [v for _, _, v in pts]
        return {
            "count": len(values),
            "min": min(values),
            "max": max(values),
            "avg": sum(values) / len(values),
            "last": values[-1],
        }

    def value_over(self, name: str, window: float,
                   now: float | None = None) -> float | None:
        """The quantity alert rules compare: rate for counters (over
        ``window``, default 60 s when 0), windowed average for gauges
        (latest value when ``window`` is 0)."""
        series = self.series(name)
        if series is None:
            return None
        if series.kind == "counter":
            return self.rate(name, window if window > 0 else 60.0, now=now)
        if window <= 0:
            return series.latest
        roll = self.rollup(name, window, now=now)
        return None if roll is None else roll["avg"]

    def to_dict(self, max_points: int = 60) -> dict:
        """The ``/varz`` telemetry section: bounded recent history.

        Per series: its kind and the newest ``max_points`` points as
        ``[wall_ts, value]`` pairs (wall clock for display; the
        in-process math uses the monotonic stamps).
        """
        with self._lock:
            out: dict = {"ticks": self.ticks, "resets": self.resets,
                         "series": {}}
            for name in sorted(self._series):
                series = self._series[name]
                pts = list(series.points)[-max_points:]
                out["series"][name] = {
                    "kind": series.kind,
                    "points": [[round(w, 3), v] for _, w, v in pts],
                }
            return out

    # -- persistence ---------------------------------------------------

    def _persist_tick(self, wall_ts: float, values: Mapping[str, float],
                      kinds: Mapping[str, str]) -> None:
        """Append one self-contained JSONL line (caller holds the lock)."""
        line = json.dumps(
            {"wall": round(wall_ts, 3), "v": dict(values),
             "k": {n: k for n, k in kinds.items() if k == "counter"}},
            separators=(",", ":"), sort_keys=True,
        )
        try:
            os.makedirs(os.path.dirname(self.persist_path) or ".", exist_ok=True)
            with open(self.persist_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            self._persisted_lines += 1
            if self._persisted_lines > 2 * self.retention:
                self._prune()
        except OSError as exc:  # persistence is best-effort
            logger.warning("telemetry persistence failed: %s", exc)

    def _prune(self) -> None:
        """Rewrite the file keeping only the newest ``retention`` lines."""
        with open(self.persist_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        keep = lines[-self.retention:]
        tmp = self.persist_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(keep)
        os.replace(tmp, self.persist_path)
        self._persisted_lines = len(keep)

    def _load(self) -> None:
        """Replay persisted ticks, re-basing monotonic stamps from age."""
        try:
            with open(self.persist_path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return
        except OSError as exc:
            logger.warning("telemetry history unreadable: %s", exc)
            return
        self._persisted_lines = len(lines)
        now_mono, now_wall = self._clock(), self._wall()
        for raw in lines[-self.capacity:]:
            raw = raw.strip()
            if not raw:
                continue
            try:
                tick = json.loads(raw)
                wall_ts = float(tick["wall"])
                values = {str(k): float(v) for k, v in tick["v"].items()}
            except (ValueError, KeyError, TypeError):
                continue  # a torn tail line is not worth failing startup
            age = max(0.0, now_wall - wall_ts)
            kinds = {n: "counter" for n in tick.get("k", ())}
            self.record(values, kinds=kinds, now=now_mono - age,
                        wall_ts=wall_ts, persist=False)


class Collector:
    """Background sampler: snapshot a source into a store on an interval.

    ``source`` is a zero-argument callable returning ``(values,
    kinds)`` — the service wires its metrics/scheduler snapshot in
    here.  ``listeners`` run after each recorded tick with ``(store,
    now, wall_ts)`` — the alert engine's evaluation hook.  The thread
    is a daemon and :meth:`stop` is idempotent; :meth:`tick` is public
    so fake-clock tests can drive the plane without the thread.
    """

    def __init__(
        self,
        source: Callable[[], tuple[Mapping[str, float], Mapping[str, str]]],
        store: TimeSeriesStore,
        interval: float = 2.0,
        listeners: Iterable[Callable] = (),
        clock: Callable[[], float] = time.monotonic,
        wall: Callable[[], float] = time.time,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"collect interval must be positive, got {interval}")
        self.source = source
        self.store = store
        self.interval = interval
        self.listeners = list(listeners)
        self._clock = clock
        self._wall = wall
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.ticks = 0
        self.errors = 0

    def tick(self, now: float | None = None, wall_ts: float | None = None) -> None:
        """One collection cycle: snapshot, record, notify listeners."""
        now = self._clock() if now is None else now
        wall_ts = self._wall() if wall_ts is None else wall_ts
        try:
            values, kinds = self.source()
            self.store.record(values, kinds=kinds, now=now, wall_ts=wall_ts)
            for listener in self.listeners:
                listener(self.store, now, wall_ts)
        except Exception:  # the collector must never kill the service
            self.errors += 1
            logger.exception("telemetry collection tick failed")
        else:
            self.ticks += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    def start(self) -> "Collector":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-telemetry-collector", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout)
