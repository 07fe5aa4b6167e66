"""A low-overhead stack-sampling profiler (the continuous half of
``repro profile``).

A daemon thread wakes ~50 times a second (configurable), snapshots
every thread's Python frame via ``sys._current_frames()`` and folds
each stack into a :class:`SampleProfile` — a dict of collapsed stacks
to sample counts.  Because the cost lives in the sampler thread (a
frame walk per tick), the *profiled* code pays nothing beyond normal
GIL arbitration, which is what lets the service leave it on in
production.

Attribution: frame labels are ``module:function`` with repro-internal
files shortened to their dotted module path, and every sample is also
charged to the **layer** (:mod:`repro.obs.layers`) that owns the
deepest repro frame on the stack — the per-layer table ``repro
profile --sample`` prints.

Output is **deterministic** for a given set of samples: collapsed
stacks are sorted lines (``frame;frame;frame count``, the flamegraph
collapsed format), independent of hash seed and accumulation order.
One sampler sees every thread of the process, so chunk workers on a
thread backend are sampled without any per-chunk plumbing.
"""

from __future__ import annotations

import sys
import threading
import time
from collections.abc import Mapping

from .layers import UNATTRIBUTED, in_table_order, layer_of_module

__all__ = ["SampleProfile", "StackSampler", "layer_of_label"]

#: default sampling interval (≈50 Hz)
DEFAULT_INTERVAL = 0.02

#: stack-depth bound per sample (deeper frames are dropped at the root)
MAX_DEPTH = 64

_SEP = "/repro/"


def _module_of(filename: str) -> str:
    """Shorten a source path to a dotted repro module (or its basename)."""
    idx = filename.rfind(_SEP)
    if idx >= 0:
        tail = filename[idx + len(_SEP):]
        if tail.endswith(".py"):
            tail = tail[:-3]
        if tail.endswith("/__init__"):
            tail = tail[: -len("/__init__")]
        return "repro." + tail.replace("/", ".") if tail else "repro"
    base = filename.rsplit("/", 1)[-1]
    return base[:-3] if base.endswith(".py") else base


def _frame_label(frame) -> str:
    code = frame.f_code
    return f"{_module_of(code.co_filename)}:{code.co_name}"


def layer_of_label(label: str) -> str | None:
    """The layer one frame label belongs to (None = not a repro frame)."""
    module = label.partition(":")[0]
    if module != "repro" and not module.startswith("repro."):
        return None
    return layer_of_module(module) or UNATTRIBUTED


def collapse_frame(frame) -> tuple[str, ...]:
    """One thread's stack as a root-first label tuple (bounded depth)."""
    labels: list[str] = []
    while frame is not None and len(labels) < MAX_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


class SampleProfile:
    """Collapsed-stack sample counts; mergeable, picklable, deterministic.

    Thread-safe for concurrent :meth:`record`/:meth:`merge` against
    renders — the sampler thread feeds it while ``/profilez`` reads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, ...], int] = {}
        self.total = 0

    def __len__(self) -> int:
        return len(self._counts)

    def record(self, stack: tuple[str, ...], n: int = 1) -> None:
        if not stack:
            return
        with self._lock:
            self._counts[stack] = self._counts.get(stack, 0) + n
            self.total += n

    def merge(self, other: "SampleProfile | Mapping[str, int]") -> None:
        """Fold another profile (or its :meth:`to_dict` form) into this one."""
        if isinstance(other, SampleProfile):
            with other._lock:
                items = [(";".join(k), v) for k, v in other._counts.items()]
        else:
            items = list(other.items())
        with self._lock:
            for key, count in items:
                stack = tuple(key.split(";"))
                self._counts[stack] = self._counts.get(stack, 0) + count
                self.total += count

    def to_dict(self) -> dict[str, int]:
        """Picklable form: ``"frame;frame;frame" -> count``."""
        with self._lock:
            return {";".join(k): v for k, v in self._counts.items()}

    def collapsed(self, min_count: int = 1) -> str:
        """The flamegraph collapsed format: sorted ``stack count`` lines.

        Sorted lexicographically by stack, so the output is identical
        for identical samples whatever the hash seed or merge order.
        """
        with self._lock:
            items = sorted(
                (";".join(stack), count)
                for stack, count in self._counts.items()
                if count >= min_count
            )
        return "\n".join(f"{key} {count}" for key, count in items) + (
            "\n" if items else ""
        )

    def layers(self) -> dict[str, int]:
        """Samples per layer, in table order, the deepest repro frame's.

        A sample with no repro frame, or whose frame no layer owns,
        counts as ``unattributed`` (last).
        """
        with self._lock:
            items = list(self._counts.items())
        counts: dict[str, int] = {}
        for stack, count in items:
            layer = UNATTRIBUTED
            for label in reversed(stack):  # deepest repro frame wins
                owner = layer_of_label(label)
                if owner is not None:
                    layer = owner
                    break
            counts[layer] = counts.get(layer, 0) + count
        return in_table_order(counts)

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` hottest leaf frames ``(label, samples)``, ties by name."""
        leaves: dict[str, int] = {}
        with self._lock:
            for stack, count in self._counts.items():
                leaves[stack[-1]] = leaves.get(stack[-1], 0) + count
        return sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


class StackSampler:
    """The sampling daemon thread over ``sys._current_frames()``.

    Every thread except the sampler itself is sampled.
    """

    def __init__(
        self,
        profile: SampleProfile | None = None,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.profile = profile if profile is not None else SampleProfile()
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples = 0
        self.started_mono: float | None = None
        self.stopped_mono: float | None = None

    def sample_once(self, frames: Mapping[int, object] | None = None) -> int:
        """Take one sample of every eligible thread; returns stacks folded."""
        if frames is None:
            frames = sys._current_frames()
        me = threading.get_ident()
        folded = 0
        for ident, frame in frames.items():
            if ident == me:
                continue
            self.profile.record(collapse_frame(frame))
            folded += 1
        self.samples += 1
        return folded

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def start(self) -> "StackSampler":
        if self._thread is None:
            self._stop.clear()
            self.started_mono = time.monotonic()
            self.stopped_mono = None
            self._thread = threading.Thread(
                target=self._run, name="repro-stack-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout)
            self.stopped_mono = time.monotonic()

    @property
    def seconds(self) -> float:
        """Wall seconds sampled: from start to stop (or to now)."""
        if self.started_mono is None:
            return 0.0
        end = time.monotonic() if self._thread is not None else self.stopped_mono
        return end - self.started_mono

    def achieved_hz(self) -> float:
        """Samples per sampled wall second: below ``1 / interval`` when
        the sampler waits for the GIL behind a busy thread."""
        seconds = self.seconds
        return self.samples / seconds if seconds > 0 else 0.0

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
