"""Dense kernel tables — the query automaton and feasible-path table
compiled into flat integer arrays.

The object-graph hot path (``QueryAutomaton.step`` dict lookups,
``FeasibleTable`` frozenset membership) is what the dense chunk kernel
(:mod:`repro.core.kernel`) replaces.  This module performs the one-time
compilation:

* **tag interning** — every tag the automaton or the feasibility table
  distinguishes gets a small integer *symbol id* (sorted order, so ids
  are deterministic and stable across compilations); every other tag
  maps to the reserved ``other_sym``, mirroring the automaton's OTHER
  convention.  A document tag is interned once per token with a single
  dict lookup;
* **transitions** — one ``array('i')`` of shape ``n_states × n_symbols``
  (row-major by state), so the DFA move is one index computation;
* **accept/close rows** — per-state tuples of sub-query ids plus a
  ``bytes`` flag vector each, so the common non-accepting state costs
  one byte test;
* **the dead state** — the automaton's empty position set, absorbing
  and silent: no accept and no close can follow it.  ``start_flags``
  folds it into the byte a START already tests, so the single-stack
  loop learns that a START entered it, and may skip the element's
  rows, at no extra cost for any other state;
* **feasibility rows** — per-symbol ``bytes`` bitmaps over states (for
  membership checks during elimination) *and* pre-sorted tuples (for
  path enumeration at chunk starts and divergences).  A row is ``None``
  when the table answers "unknown" for that symbol — exactly the
  ``FeasibleTable`` lookup contract (a missing tag is provably
  infeasible under a complete grammar, unknown under a partial one).

Compiled tables are immutable: the parallel pipeline shares one set
across every chunk worker of a run inside the shared context.

A bounded **compile cache** keyed on the *structural content* of
``(automaton, feasible table, anchor set)`` — i.e. on (query, grammar)
rather than object identity — makes repeated queries skip table
construction entirely: re-running an engine, or constructing a new
engine over the same query/grammar pair, reuses the compiled arrays.
Learning new grammar (speculative mode) produces a structurally
different table and therefore a cache miss, which is the invalidation
path (pinned by ``tests/test_table_compile.py``).  The cache lives in
memory only: compiling a merged query set costs less than reading the
tables back from an artifact store.  An engine that runs registered
documents keeps its exact-entry tables itself and skips even the
cache lookup (``GapEngine._pipeline``).
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.journal import NULL_JOURNAL
from .automaton import QueryAutomaton

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports xpath)
    from ..core.inference import FeasibleTable

__all__ = [
    "KernelTables",
    "compile_tables",
    "compiled_tables",
    "compile_cache_info",
    "clear_compile_cache",
    "set_artifact_store",
    "get_artifact_store",
]

#: bounded LRU size for the structural compile cache
_CACHE_MAX = 64


@dataclass(slots=True, frozen=True)
class KernelTables:
    """The dense, flat-array form of one ``(automaton, table)`` pair.

    All rows indexed by *symbol id* have length ``n_symbols`` (the
    interned tags plus the trailing OTHER symbol at ``other_sym``).
    ``*_rows`` entries are per-state membership bitmaps (``bytes`` of
    length ``n_states``), ``*_sets`` entries the same states as sorted
    tuples; both are ``None`` where the feasibility answer is
    "unknown".
    """

    n_states: int
    n_symbols: int
    initial: int
    #: tag name → symbol id (use ``sym_ids.get(tag, other_sym)``)
    sym_ids: dict[str, int]
    other_sym: int
    #: DFA moves, row-major by state: ``trans[state * n_symbols + sym]``
    trans: array
    accepts: tuple[tuple[int, ...], ...]
    accept_flags: bytes
    close_accepts: tuple[tuple[int, ...], ...]
    close_flags: bytes
    #: the absorbing state no accept or close can follow, or -1
    dead: int
    #: per state: 1 if it accepts, 2 if it is ``dead``, else 0 (derived)
    start_flags: bytes
    start_rows: tuple[bytes | None, ...]
    start_sets: tuple[tuple[int, ...] | None, ...]
    end_rows: tuple[bytes | None, ...]
    end_sets: tuple[tuple[int, ...] | None, ...]
    #: scenario-1 row for a chunk whose first token is text
    text_set: tuple[int, ...] | None
    all_states: tuple[int, ...]
    #: whether a feasibility table was compiled in at all
    has_table: bool
    #: table completeness (meaningless when ``has_table`` is False)
    complete: bool

    def sym_of(self, tag: str) -> int:
        """Interned symbol id of ``tag`` (OTHER for unknown tags)."""
        return self.sym_ids.get(tag, self.other_sym)


def compile_tables(
    automaton: QueryAutomaton,
    table: "FeasibleTable | None" = None,
    anchor_sids: frozenset[int] = frozenset(),
) -> KernelTables:
    """Compile ``automaton`` (and optionally ``table``) into dense arrays.

    ``table=None`` compiles transition/accept structure only — the
    baseline (PP-Transducer) configuration, where every feasibility row
    answers "unknown".
    """
    n = automaton.n_states
    tags = set(automaton.alphabet)
    if table is not None:
        tags |= set(table.before_start)
        tags |= set(table.before_end)
    symbols = sorted(tags)
    sym_ids = {tag: i for i, tag in enumerate(symbols)}
    other_sym = len(symbols)
    n_symbols = other_sym + 1

    trans = array("i", bytes(4 * n * n_symbols))
    for q in range(n):
        base = q * n_symbols
        row = automaton.transitions[q]
        oth = automaton.other[q]
        for tag, s in sym_ids.items():
            trans[base + s] = row.get(tag, oth)
        trans[base + other_sym] = oth

    accepts = tuple(tuple(a) for a in automaton.accepts)
    accept_flags = bytes(1 if a else 0 for a in accepts)
    close_accepts = tuple(
        tuple(sid for sid in a if sid in anchor_sids) for a in accepts
    )
    close_flags = bytes(1 if a else 0 for a in close_accepts)
    start_flags = bytearray(accept_flags)
    if automaton.dead >= 0:
        start_flags[automaton.dead] = 2  # the dead state accepts nothing

    def feas_rows(lookup: dict[str, frozenset[int]], complete: bool):
        rows: list[bytes | None] = []
        sets: list[tuple[int, ...] | None] = []
        for tag in symbols:
            feas = lookup.get(tag)
            if feas is None:
                feas = frozenset() if complete else None
            if feas is None:
                rows.append(None)
                sets.append(None)
            else:
                bitmap = bytearray(n)
                for s in feas:
                    bitmap[s] = 1
                rows.append(bytes(bitmap))
                sets.append(tuple(sorted(feas)))
        # the OTHER symbol: a tag neither queried nor declared
        if complete:
            rows.append(bytes(n))
            sets.append(())
        else:
            rows.append(None)
            sets.append(None)
        return tuple(rows), tuple(sets)

    if table is not None:
        start_rows, start_sets = feas_rows(table.before_start, table.complete)
        end_rows, end_sets = feas_rows(table.before_end, table.complete)
        text_set = tuple(sorted(table.text_states)) if table.complete else None
        has_table, complete = True, table.complete
    else:
        start_rows = end_rows = (None,) * n_symbols
        start_sets = end_sets = (None,) * n_symbols
        text_set = None
        has_table, complete = False, False

    return KernelTables(
        n_states=n,
        n_symbols=n_symbols,
        initial=automaton.initial,
        sym_ids=sym_ids,
        other_sym=other_sym,
        trans=trans,
        accepts=accepts,
        accept_flags=accept_flags,
        close_accepts=close_accepts,
        close_flags=close_flags,
        dead=automaton.dead,
        start_flags=bytes(start_flags),
        start_rows=start_rows,
        start_sets=start_sets,
        end_rows=end_rows,
        end_sets=end_sets,
        text_set=text_set,
        all_states=tuple(range(n)),
        has_table=has_table,
        complete=complete,
    )


# ---------------------------------------------------------------------------
# structural compile cache
# ---------------------------------------------------------------------------

_cache: OrderedDict[tuple, KernelTables] = OrderedDict()
_hits = 0
_misses = 0
#: guards every _cache/_hits/_misses access — the query service
#: compiles from multiple scheduler worker threads, and OrderedDict
#: move_to_end/popitem during a concurrent lookup corrupts the dict
_cache_lock = threading.Lock()

#: the artifact store the opt-in structural memo persists its
#: snapshots to (:mod:`repro.xpath.subseq`); compiled tables are never
#: stored — compiling costs less than reading them back.  Typed
#: loosely to keep this module import-free of :mod:`repro.store`.
_store = None


def set_artifact_store(store) -> None:
    """Install (or with ``None`` remove) the memo's artifact store.

    Process-global, like the memo tables it persists.
    """
    global _store
    with _cache_lock:
        _store = store


def get_artifact_store():
    """The installed artifact store, or ``None``."""
    with _cache_lock:
        return _store


def _automaton_key(a: QueryAutomaton) -> tuple:
    return (
        a.initial,
        a.dead,
        tuple(a.other),
        tuple(tuple(sorted(row.items())) for row in a.transitions),
        tuple(tuple(acc) for acc in a.accepts),
        tuple(sorted(a.alphabet)),
    )


def _table_key(t: "FeasibleTable | None") -> tuple | None:
    if t is None:
        return None
    return (
        t.complete,
        tuple(sorted((k, tuple(sorted(v))) for k, v in t.before_start.items())),
        tuple(sorted((k, tuple(sorted(v))) for k, v in t.before_end.items())),
        tuple(sorted(t.text_states)),
    )


def compiled_tables(
    automaton: QueryAutomaton,
    table: "FeasibleTable | None" = None,
    anchor_sids: frozenset[int] = frozenset(),
    journal=NULL_JOURNAL,
) -> KernelTables:
    """Cached :func:`compile_tables` keyed on structural content.

    Two calls with *equal* (query automaton, feasible table, anchor
    set) share one compiled object, regardless of object identity —
    this is the "(query, grammar)" compile cache: building the key is
    O(automaton + table), far below compilation (which also walks the
    full transition structure but allocates and fills every dense row).
    ``journal`` receives a ``cache_hit``/``cache_miss`` event per lookup.

    Thread-safe: lookups and LRU mutation are serialised by a lock
    (the query service compiles from concurrent scheduler threads);
    compilation itself runs outside the lock, so two threads missing
    on the same key may both compile — the duplicate insert is
    harmless (equal content) and cheaper than holding the lock across
    a full table compilation.
    """
    global _hits, _misses
    key = (
        _automaton_key(automaton),
        _table_key(table),
        tuple(sorted(anchor_sids)),
    )
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _hits += 1
            _cache.move_to_end(key)
        else:
            _misses += 1
        size = len(_cache)
    if cached is not None:
        if journal.enabled:
            journal.record("cache_hit", size=size)
        return cached
    if journal.enabled:
        journal.record("cache_miss", size=size)
    tables = compile_tables(automaton, table, anchor_sids)
    with _cache_lock:
        _cache[key] = tables
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_MAX:
            _cache.popitem(last=False)
    return tables


def compile_cache_info() -> dict:
    """Cache statistics: hits/misses/size (each miss is one compile).

    The ``memo`` key aggregates the structural-repetition memo layer
    (:mod:`repro.xpath.subseq`) that rides on the compiled tables:
    per-process entry/sequence totals, hit/miss/reject counters and the
    configured capacity.
    """
    with _cache_lock:
        info: dict = {
            "hits": _hits,
            "misses": _misses,
            "size": len(_cache),
        }
    from .subseq import memo_info

    info["memo"] = memo_info()
    return info


def clear_compile_cache() -> None:
    """Drop all cached tables and reset the hit/miss counters."""
    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0
