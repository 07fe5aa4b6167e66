"""The layer table — one vocabulary for where a run's time goes.

Every surface that splits time names the same layers, in the same
order: tracer spans, the sampling profiler's attribution, request
traces, the ``repro_layer_seconds{layer=}`` metric family, ``/varz``,
``/statusz``, ``repro profile``, the run report and the end-to-end
benchmark (``perfbench/spans.py``, whose ``LAYERS`` is an ordered
subsequence of this table).

Each entry carries the ``repro.*`` module prefixes whose frames the
layer owns (the longest matching prefix wins); a layer that is a span
of waiting rather than of code (``service.batching.queue_wait``) or
that no module owns on its own (``runtime.gc``) has none.

Exclusive time: :func:`self_times` charges each span its duration
minus the union of its children's intervals, so the layers of a run
executed on one thread partition its wall time.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from functools import lru_cache

__all__ = [
    "LAYERS",
    "LAYER_MODULES",
    "REQUEST_LAYERS",
    "UNATTRIBUTED",
    "in_table_order",
    "layer_of_module",
    "layer_seconds",
    "self_times",
    "stage_key",
]

#: layer → the repro.* module prefixes it owns, in pipeline order
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "xpath.compile": ("repro.xpath",),
    "core.inference": ("repro.core.inference", "repro.core.speculative",
                       "repro.grammar"),
    "xmlstream.split": ("repro.xmlstream.chunking",),
    "xmlstream.lex": ("repro.xmlstream",),
    "jsonstream.lex": ("repro.jsonstream",),
    "parallel.backend": ("repro.parallel",),
    "core.kernel": ("repro.core.kernel",),
    "xpath.subseq": ("repro.xpath.subseq",),
    "xpath.subseq.persist": (),
    "transducer.mapping": ("repro.transducer",),
    "xpath.filtering": ("repro.xpath.filtering",),
    "stream.session": ("repro.stream",),
    "stream.checkpoint": ("repro.stream.checkpoint",),
    "store": ("repro.store",),
    "stream.hub": ("repro.stream.hub",),
    "runtime.gc": (),
    "service.registry": ("repro.service.registry",),
    "service.service": ("repro.service",),
    # one request's service-side latency, partitioned (see reqtrace)
    "service.batching.queue_wait": (),
    "service.batching.batch_assembly": ("repro.service.batching",),
    "service.service.execute": (),
    "service.service.respond": (),
}

#: the layer names, in pipeline order
LAYERS: tuple[str, ...] = tuple(LAYER_MODULES)

#: the four layers that partition one request's service-side latency
REQUEST_LAYERS: tuple[str, ...] = LAYERS[-4:]

#: the row for time or samples no layer owns
UNATTRIBUTED = "unattributed"


def stage_key(layer: str) -> str:
    """A request layer's key in JSON surfaces (``queue_wait``, …)."""
    return layer.rpartition(".")[2]


@lru_cache(maxsize=None)
def layer_of_module(module: str) -> str | None:
    """The layer owning a dotted module (longest prefix), or ``None``."""
    best, best_len = None, -1
    for layer, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) \
                    and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def _parents(spans: Sequence) -> list[int | None]:
    """Index of each span's parent, or ``None`` for a root.

    Within one lane (``tid``) spans nest by ``depth``.  The top span of
    a worker lane hangs under the deepest driver-lane (``tid`` 0) span
    that encloses it — the ``parallel.backend`` span that waited for it.
    """
    parent: list[int | None] = [None] * len(spans)
    lanes: defaultdict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        lanes[s.tid].append(i)
    for members in lanes.values():
        stack: list[int] = []
        for i in sorted(members, key=lambda i: (spans[i].t0, spans[i].depth)):
            while stack and spans[stack[-1]].depth >= spans[i].depth:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
            stack.append(i)
    driver = lanes.get(0, [])
    for i, s in enumerate(spans):
        if s.tid == 0 or parent[i] is not None:
            continue
        enclosing = [j for j in driver
                     if spans[j].t0 <= s.t0 and s.t1 <= spans[j].t1]
        if enclosing:
            parent[i] = max(enclosing, key=lambda j: spans[j].depth)
    return parent


def self_times(spans: Sequence) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: defaultdict[int, list] = defaultdict(list)
    for i, p in enumerate(_parents(spans)):
        if p is not None:
            children[p].append(spans[i])
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.t0
        for c in sorted(children.get(i, ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, reach), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.t1 - s.t0 - covered)
    return out


def in_table_order(by_name: dict) -> dict:
    """``by_name`` re-ordered: table layers in order, other names after."""
    rank = {layer: i for i, layer in enumerate(LAYERS)}
    return dict(sorted(by_name.items(),
                       key=lambda kv: (rank.get(kv[0], len(rank)), kv[0])))


def layer_seconds(spans: Sequence) -> dict[str, float]:
    """Exclusive seconds per span name, in table order."""
    totals: dict[str, float] = {}
    for s, secs in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + secs
    return in_table_order(totals)
