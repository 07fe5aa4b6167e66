"""Benchmark-side span tracer for the traced run.

It wraps the public calls into each layer from outside the program
(``install`` patches module and class attributes, ``uninstall`` puts
the originals back) and records one span per call: name, start, end,
parent span and operation id.  Spans stay in memory; ``report`` turns
them into per-layer self times and counts.

A span's self time is its duration minus the part of it that its child
spans cover.  Work that a thread pool runs for a span (the service's
thread backend) is parented to that span through the wrapped
``map_with_context``.  A module-level function is replaced in every
``repro`` module that holds it, so a caller that imported it by name is
traced too.  A wrapped target the program no longer has raises, and the
traced run fails; so does a workload whose own layers record no span.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: per-op table rows, in pipeline order
LAYERS = ("xpath.compile", "core.inference", "xmlstream.split",
          "xmlstream.lex", "parallel.backend", "core.kernel", "xpath.subseq",
          "xpath.subseq.persist", "transducer.mapping", "xpath.filtering", "stream.session",
          "stream.checkpoint", "store", "stream.hub", "runtime.gc",
          "service.registry", "service.service")

_NAME, _T0, _T1, _PARENT, _OP = range(5)


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []
        self._installed = False
        self._setup_mark = 0
        self._memo0: dict = {}
        self._build()

    # -- span recording --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _begin(self, name: str, op=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [name, perf_counter(), None, parent,
                op if parent is None else parent[_OP]]
        self.spans.append(span)
        stack.append(span)
        return span

    def _end(self, span: list) -> None:
        span[_T1] = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str, op=None):
        sp = self._begin(name, op)
        try:
            yield sp
        finally:
            self._end(sp)

    def op(self, op_id):
        """Root span of one operation."""
        return self.span("op", op=op_id)

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._begin("runtime.gc")
        else:
            stack = self._stack()
            if stack and stack[-1][_NAME] == "runtime.gc":
                self._end(stack[-1])
            if info.get("generation") == 2:
                self.counts["runtime.gc.gen2_collections"] += 1

    # -- instrumentation -------------------------------------------------

    def _patch(self, module: str, owner: str | None, attr: str, make) -> None:
        """Wrap ``module.owner.attr`` (a method) or ``module.attr``.

        A missing target raises: the trace would silently read 0.
        """
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
            original = target.__dict__[attr]
            self._patches.append((target, attr, original, make(original)))
            return
        original = getattr(target, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if ((name == "repro" or name.startswith("repro."))
                    and getattr(mod, attr, None) is original):
                self._patches.append((mod, attr, original, wrapper))

    def _timed(self, layer: str, count=None):
        """Wrapper factory: a span per call, then ``count(result, args)``."""
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(layer):
                    result = fn(*args, **kwargs)
                if count is not None:
                    count(result, args)
                return result
            return wrapper
        return make

    def _build(self) -> None:
        c = self.counts
        P = self._patch

        def split_count(_r, args):
            c["xmlstream.split.bytes"] += _utf8_len(args[0])

        def lex_range(fn):
            def wrapper(text, begin, end):
                with self.span("xmlstream.lex"):
                    tokens = list(fn(text, begin, end))
                c["xmlstream.lex.tokens"] += len(tokens)
                c["xmlstream.lex.bytes"] += _utf8_len(text[begin:end])
                return iter(tokens)
            return wrapper

        def incremental(fn):  # IncrementalLexer.feed(piece) / .close()
            def wrapper(lexer, *piece):
                with self.span("xmlstream.lex"):
                    tokens = list(fn(lexer, *piece))
                c["xmlstream.lex.tokens"] += len(tokens)
                if piece:
                    c["xmlstream.lex.bytes"] += _utf8_len(piece[0])
                return tokens
            return wrapper

        def calls(name):
            return lambda _r, _a: c.__setitem__(name, c[name] + 1)

        def kernel_count(result, _args):
            k = result.counters
            c["core.kernel.tokens"] += k.total_tokens
            c["core.kernel.stack_tokens"] += k.stack_tokens
            c["core.kernel.chunks"] += k.chunks
            c["core.kernel.starting_paths"] += k.starting_paths
            c["core.kernel.paths_eliminated"] += k.paths_eliminated
            c["core.kernel.switches"] += k.switches

        def join(fn):
            def wrapper(first, chunks, reprocess, totals, *args, **kwargs):
                mis, rep = totals.misspeculations, totals.reprocessed_tokens
                with self.span("transducer.mapping"):
                    result = fn(first, chunks, reprocess, totals, *args, **kwargs)
                c["transducer.mapping.misspeculations"] += totals.misspeculations - mis
                c["transducer.mapping.reprocessed_tokens"] += totals.reprocessed_tokens - rep
                return result
            return wrapper

        def backend_map(fn):
            def wrapper(backend, ctx, work, items):
                with self.span("parallel.backend") as parent:
                    def adopted(context, item):
                        stack = self._stack()
                        stack.append(parent)
                        try:
                            return work(context, item)
                        finally:
                            stack.pop()
                    return fn(backend, ctx, adopted, items)
            return wrapper

        def store_get(fn):
            def wrapper(store, kind, key):
                t0 = perf_counter()
                with self.span("store"):
                    payload = fn(store, kind, key)
                c["store.read_s"] += perf_counter() - t0
                c["store.reads"] += 1
                c["store.hits"] += payload is not None
                return payload
            return wrapper

        def store_put(fn):
            def wrapper(store, kind, key, payload):
                t0 = perf_counter()
                with self.span("store"):
                    ok = fn(store, kind, key, payload)
                c["store.write_s"] += perf_counter() - t0
                c["store.writes"] += 1
                c["store.bytes_written"] += len(payload)
                return ok
            return wrapper

        def session_feed(fn):
            def wrapper(session, piece):
                before = session.chunks_sealed
                with self.span("stream.session"):
                    deltas = fn(session, piece)
                c["stream.session.chunks_sealed"] += session.chunks_sealed - before
                c["stream.session.lag_bytes_max"] = max(
                    c["stream.session.lag_bytes_max"], session.lag_bytes)
                return deltas
            return wrapper

        def read_count(result, _args):
            c["stream.hub.gap"] += result["gap"]

        def property_timed(layer):
            def make(prop):
                return property(self._timed(layer)(prop.fget))
            return make

        batches = itertools.count()

        def root(layer):
            """A span that starts an operation on a thread with none open."""
            def make(fn):
                def wrapper(*args, **kwargs):
                    op = None if self._stack() else ("batch", next(batches))
                    with self.span(layer, op=op):
                        return fn(*args, **kwargs)
                return wrapper
            return make

        P("repro.xmlstream.chunking", None, "split_chunks",
          self._timed("xmlstream.split", split_count))
        P("repro.xmlstream.lexer", None, "lex_range", lex_range)
        P("repro.xmlstream.incremental", "IncrementalLexer", "feed", incremental)
        P("repro.xmlstream.incremental", "IncrementalLexer", "close", incremental)
        P("repro.core.engine", "GapEngine", "__init__",
          self._timed("xpath.compile", calls("xpath.compile.calls")))
        P("repro.core.kernel", None, "tables_for_policy",
          self._timed("xpath.compile", calls("xpath.compile.calls")))
        P("repro.core.engine", "GapEngine", "table", property_timed("core.inference"))
        P("repro.xpath.subseq", "MemoTable", "plan_for", self._timed("xpath.subseq"))
        P("repro.xpath.subseq", None, "maybe_persist_memo",
          self._timed("xpath.subseq.persist"))
        P("repro.service.registry", "DocumentRegistry", "register",
          self._timed("service.registry"))
        P("repro.core.kernel", "DenseRunner", "run_chunk",
          self._timed("core.kernel", kernel_count))
        P("repro.transducer.mapping", None, "join_results", join)
        P("repro.xpath.filtering", None, "apply_filters", self._timed("xpath.filtering"))
        P("repro.parallel.backend", "SerialBackend", "map_with_context", backend_map)
        P("repro.parallel.backend", "ThreadBackend", "map_with_context", backend_map)
        P("repro.store.artifacts", "ArtifactStore", "get", store_get)
        P("repro.store.artifacts", "ArtifactStore", "put", store_put)
        P("repro.stream.checkpoint", None, "save_checkpoint",
          self._timed("stream.checkpoint", calls("stream.checkpoint.saves")))
        P("repro.stream.session", "StreamSession", "feed", session_feed)
        P("repro.stream.manager", "StreamManager", "read_deltas",
          self._timed("stream.hub", read_count))
        # the service's batch boundary: one merged pass over a document
        P("repro.service.service", "QueryService", "_execute_group",
          root("service.service"))

    def install(self) -> None:
        if self._installed:
            return
        for target, attr, _original, wrapper in self._patches:
            setattr(target, attr, wrapper)
        gc.callbacks.append(self._gc_callback)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        gc.callbacks.remove(self._gc_callback)
        for target, attr, original, _wrapper in self._patches:
            setattr(target, attr, original)
        self._installed = False

    def mark_setup(self) -> None:
        """End of the traced set-up: counts restart, memo stats snapshot."""
        from repro.xpath.subseq import memo_info

        self.counts.clear()
        self._setup_mark = len(self.spans)
        self._memo0 = memo_info()

    # -- analysis --------------------------------------------------------

    def self_times(self, spans: list[list]) -> dict[int, float]:
        """id(span) → duration minus the union of its children's intervals."""
        children: defaultdict[int, list] = defaultdict(list)
        for s in spans:
            if s[_PARENT] is not None and s[_T1] is not None:
                children[id(s[_PARENT])].append(s)
        out = {}
        for s in spans:
            if s[_T1] is None:
                continue
            covered, reach = 0.0, s[_T0]
            for c in sorted(children.get(id(s), ()), key=lambda c: c[_T0]):
                lo, hi = max(c[_T0], reach), min(c[_T1], s[_T1])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[id(s)] = (s[_T1] - s[_T0]) - covered
        return out

    def layer_seconds(self, spans: list[list], ops) -> tuple[dict, float]:
        """Σ self seconds per layer over spans of the given ops.

        Returns ``(layer → seconds, Σ root durations)``; a root ``op``
        span's self time is the ``unattributed`` layer.
        """
        self_t = self.self_times(spans)
        per_layer: defaultdict[str, float] = defaultdict(float)
        root_total = 0.0
        for s in spans:
            if s[_T1] is None or not ops(s[_OP]):
                continue
            if s[_PARENT] is None:
                root_total += s[_T1] - s[_T0]
                name = "unattributed" if s[_NAME] == "op" else s[_NAME]
            else:
                name = s[_NAME]
            per_layer[name] += self_t[id(s)]
        return dict(per_layer), root_total

    def report(self) -> dict:
        """Per-layer seconds and counts for ``run.py``'s per-op table."""
        from repro.xpath.subseq import memo_info

        timed = self.spans[self._setup_mark:]
        setup_layers, setup_total = self.layer_seconds(
            self.spans[:self._setup_mark], lambda op: op == "setup")
        memo1 = memo_info()
        memo = {k: memo1[k] - self._memo0.get(k, 0)
                for k in ("hits", "misses", "rejects")}
        if self.workload == "service-xmark":  # batch ops: ("batch", n)
            layers, root_total = self.layer_seconds(
                timed, lambda op: isinstance(op, tuple))
        else:
            layers, root_total = self.layer_seconds(
                timed, lambda op: op is not None and op != "setup")
        gc_total = sum(s[_T1] - s[_T0] for s in timed
                       if s[_NAME] == "runtime.gc" and s[_T1] is not None)
        span_counts: defaultdict[str, int] = defaultdict(int)
        for s in timed:
            span_counts[s[_NAME]] += 1
        return {
            "layers_s": layers, "root_s": root_total,
            "setup_layers_s": setup_layers, "setup_root_s": setup_total,
            "counts": dict(self.counts), "memo": memo,
            "gc_pause_s": gc_total,
            "spans": dict(span_counts),
        }
