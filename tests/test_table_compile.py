"""Dense table compilation: interning, row equivalence, compile cache.

Pins the three contracts of :mod:`repro.xpath.compile_tables`:

* **interning stability** — symbol ids are assigned in sorted tag
  order, so two compilations of equal inputs produce identical id
  maps (and identical arrays), independent of dict iteration order;
* **row equivalence** — every feasibility row (bitmap and sorted-set
  form) answers exactly what :class:`repro.core.inference.FeasibleTable`
  answers, pinned on the paper's running example (Figure 4 / Table 1:
  the recursive ``a (b+, c)`` grammar with query ``/a/b/a/c``),
  including the complete-grammar "missing tag ⇒ infeasible" and
  partial-grammar "missing tag ⇒ unknown" conventions;
* **cache keying** — :func:`repro.xpath.compiled_tables` hits on
  structurally equal (automaton, table, anchors) regardless of object
  identity, and misses — the invalidation path — when the grammar
  (hence the table) changes, e.g. after speculative learning.
"""

from __future__ import annotations

import pytest

from repro import GapEngine, PPTransducerEngine
from repro.grammar import parse_dtd, sample_partial_grammar
from repro.xpath import (
    MemoTable,
    clear_compile_cache,
    clear_memo_tables,
    compile_cache_info,
    compile_tables,
    compiled_tables,
    memo_for_tables,
    set_memo_defaults,
)

from tests.conftest import RUNNING_DTD, RUNNING_QUERY


@pytest.fixture
def running_engine():
    return GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_compile_cache()
    clear_memo_tables()
    yield
    clear_compile_cache()
    clear_memo_tables()


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------


class TestInterning:
    def test_symbol_ids_are_sorted_and_stable(self, running_engine):
        e = running_engine
        t1 = compile_tables(e.automaton, e.table, e.anchor_sids)
        t2 = compile_tables(e.automaton, e.table, e.anchor_sids)
        assert t1.sym_ids == t2.sym_ids
        assert list(t1.sym_ids.values()) == list(range(len(t1.sym_ids)))
        assert sorted(t1.sym_ids) == list(t1.sym_ids)  # sorted tag order
        assert t1.other_sym == len(t1.sym_ids)
        assert t1.n_symbols == t1.other_sym + 1
        # the whole compiled structure is reproducible, not just the ids
        assert t1.trans == t2.trans
        assert t1.start_sets == t2.start_sets
        assert t1.end_sets == t2.end_sets

    def test_unknown_tag_maps_to_other(self, running_engine):
        e = running_engine
        t = compile_tables(e.automaton, e.table, e.anchor_sids)
        assert t.sym_of("nonexistent") == t.other_sym
        for tag, sym in t.sym_ids.items():
            assert t.sym_of(tag) == sym

    def test_transitions_match_automaton(self, running_engine):
        """Every dense move equals the object automaton's dict lookup."""
        e = running_engine
        t = compile_tables(e.automaton, e.table, e.anchor_sids)
        for q in range(e.automaton.n_states):
            for tag, sym in t.sym_ids.items():
                expected = e.automaton.transitions[q].get(tag, e.automaton.other[q])
                assert t.trans[q * t.n_symbols + sym] == expected, (q, tag)
            assert t.trans[q * t.n_symbols + t.other_sym] == e.automaton.other[q]


# ---------------------------------------------------------------------------
# feasibility-row equivalence (paper running example, Table 1)
# ---------------------------------------------------------------------------


class TestRowEquivalence:
    def assert_rows_match_table(self, t, table):
        for tag, sym in t.sym_ids.items():
            for sets, rows, lookup in (
                (t.start_sets, t.start_rows, table.lookup_start),
                (t.end_sets, t.end_rows, table.lookup_end),
            ):
                expected = lookup(tag)
                if expected is None:
                    assert sets[sym] is None and rows[sym] is None, tag
                else:
                    assert sets[sym] == tuple(sorted(expected)), tag
                    bitmap = rows[sym]
                    assert {s for s, bit in enumerate(bitmap) if bit} == set(
                        expected
                    ), tag
        # the OTHER symbol mirrors an undeclared, unqueried tag
        other_start = table.lookup_start("__undeclared__")
        if other_start is None:
            assert t.start_sets[t.other_sym] is None
            assert t.end_sets[t.other_sym] is None
        else:
            assert t.start_sets[t.other_sym] == tuple(sorted(other_start))

    def test_running_example_complete_grammar(self, running_engine):
        """Figure 4's ``a (b+, c)`` grammar with ``/a/b/a/c``."""
        e = running_engine
        assert e.table.complete
        t = compile_tables(e.automaton, e.table, e.anchor_sids)
        assert t.has_table and t.complete
        self.assert_rows_match_table(t, e.table)
        assert t.text_set == tuple(sorted(e.table.text_states))
        # complete grammar: unknown tags are provably infeasible
        assert t.start_sets[t.other_sym] == ()
        assert t.end_sets[t.other_sym] == ()

    def test_running_example_partial_grammar(self):
        """A sampled partial grammar keeps the speculative None contract."""
        grammar = sample_partial_grammar(parse_dtd(RUNNING_DTD), 0.5, seed=2)
        e = GapEngine([RUNNING_QUERY], grammar=grammar)
        assert not e.table.complete
        t = compile_tables(e.automaton, e.table, e.anchor_sids)
        assert t.has_table and not t.complete
        self.assert_rows_match_table(t, e.table)
        # partial grammar: the OTHER row answers "unknown", and so does
        # the scenario-1 text row
        assert t.start_rows[t.other_sym] is None
        assert t.text_set is None

    def test_no_table_compiles_all_unknown(self):
        """The PP baseline (no table) compiles every row to unknown."""
        e = PPTransducerEngine([RUNNING_QUERY])
        t = compile_tables(e.automaton, None, e.anchor_sids)
        assert not t.has_table
        assert all(r is None for r in t.start_rows)
        assert all(r is None for r in t.end_rows)
        assert t.text_set is None


# ---------------------------------------------------------------------------
# compile cache
# ---------------------------------------------------------------------------


class TestCompileCache:
    def test_hit_on_identical_inputs(self, running_engine):
        e = running_engine
        t1 = compiled_tables(e.automaton, e.table, e.anchor_sids)
        t2 = compiled_tables(e.automaton, e.table, e.anchor_sids)
        assert t1 is t2
        info = compile_cache_info()
        memo = info.pop("memo")
        assert info == {"hits": 1, "misses": 1, "size": 1}
        # the memo layer reports through the same surface
        assert {"tables", "entries", "sequences", "hits", "misses",
                "rejects", "evictions", "capacity"} <= set(memo)

    def test_hit_on_equal_content_distinct_objects(self):
        """Two engines over the same (query, grammar) share one compile."""
        e1 = GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)
        e2 = GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)
        assert e1.automaton is not e2.automaton
        t1 = compiled_tables(e1.automaton, e1.table, e1.anchor_sids)
        t2 = compiled_tables(e2.automaton, e2.table, e2.anchor_sids)
        assert t1 is t2
        assert compile_cache_info()["hits"] == 1

    def test_miss_when_grammar_changes(self):
        """Learning new grammar invalidates by producing a new key."""
        full = GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)
        partial = GapEngine(
            [RUNNING_QUERY],
            grammar=sample_partial_grammar(parse_dtd(RUNNING_DTD), 0.5, seed=2),
        )
        t_full = compiled_tables(full.automaton, full.table, full.anchor_sids)
        t_partial = compiled_tables(
            partial.automaton, partial.table, partial.anchor_sids
        )
        assert t_full is not t_partial
        info = compile_cache_info()
        assert info["misses"] == 2 and info["hits"] == 0

    def test_miss_when_query_changes(self):
        e1 = GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)
        e2 = GapEngine(["/a/c"], grammar=RUNNING_DTD)
        compiled_tables(e1.automaton, e1.table, e1.anchor_sids)
        compiled_tables(e2.automaton, e2.table, e2.anchor_sids)
        assert compile_cache_info()["misses"] == 2

    def test_speculative_learning_invalidates(self):
        """The engine-level path: observe → new table → cache miss."""
        qs = [RUNNING_QUERY]
        engine = GapEngine(qs)
        t_before = compiled_tables(engine.automaton, engine.table,
                                   engine.anchor_sids)
        engine.learn("<a><b><a><c>x</c></a></b><c>y</c></a>")
        t_after = compiled_tables(engine.automaton, engine.table,
                                  engine.anchor_sids)
        assert t_before is not t_after
        assert compile_cache_info()["misses"] == 2

    def test_clear_resets_counters(self, running_engine):
        e = running_engine
        compiled_tables(e.automaton, e.table, e.anchor_sids)
        clear_compile_cache()
        info = compile_cache_info()
        del info["memo"]
        assert info == {"hits": 0, "misses": 0, "size": 0}


class TestEngineKeepsTables:
    """A warm :class:`GapEngine` runs from the tables its first run
    compiled; learning drops the GAP tables, so the next run compiles
    exactly once."""

    def test_warm_run_tokens_skip_the_compile_cache(self, monkeypatch):
        import repro.core.kernel as kernel_mod
        from repro.jsonstream import tokenize_json

        calls = []
        real = kernel_mod.compiled_tables
        monkeypatch.setattr(kernel_mod, "compiled_tables",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        tokens = tokenize_json('{"feed": {"entry": [{"id": 1}, {"id": 2}]}}')
        engine = GapEngine(["//id"])
        first = engine.run_tokens(tokens).matches
        assert len(calls) == 1
        calls.clear()
        for _ in range(50):
            assert engine.run_tokens(tokens).matches == first
        assert calls == []
        engine.learn_tokens(tokens)
        assert engine.run_tokens(tokens).matches == first
        assert len(calls) == 1
        engine.learn("<json><feed><entry><id>1</id></entry></feed></json>")
        assert engine.run_tokens(tokens).matches == first
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# thread safety (the query service compiles from scheduler workers)
# ---------------------------------------------------------------------------


class TestCacheThreadSafety:
    """Hammer the locked cache from many threads at once.

    Without the lock these crash or corrupt: concurrent
    ``move_to_end``/``popitem`` during a lookup breaks the OrderedDict,
    and the hit/miss counters lose increments.  The contract under
    contention: no exceptions, ``hits + misses == lookups`` exactly,
    one cache entry per distinct key, and every result for a key is
    structurally identical (a concurrent first miss may compile twice —
    documented as harmless — so object identity is NOT guaranteed).
    """

    def _engines(self):
        queries = ["/a/b/a/c", "//c", "/a/c", "/a/b", "//b//c"]
        return [GapEngine([q], grammar=RUNNING_DTD) for q in queries]

    def test_concurrent_lookups_stay_consistent(self):
        import threading

        engines = self._engines()
        per_thread, n_threads = 40, 8
        errors: list[Exception] = []
        results: dict[int, list] = {i: [] for i in range(len(engines))}
        barrier = threading.Barrier(n_threads)

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for i in range(per_thread):
                    j = (seed + i) % len(engines)
                    e = engines[j]
                    t = compiled_tables(e.automaton, e.table, e.anchor_sids)
                    results[j].append(t)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        info = compile_cache_info()
        assert info["hits"] + info["misses"] == n_threads * per_thread
        assert info["size"] == len(engines)
        assert info["misses"] >= len(engines)
        for j, tables in results.items():
            first = tables[0]
            for t in tables[1:]:
                assert t.sym_ids == first.sym_ids
                assert t.trans == first.trans
                assert t.start_sets == first.start_sets

    def test_concurrent_lookups_with_clears(self):
        """clear_compile_cache racing lookups must never corrupt state."""
        import threading

        engines = self._engines()
        stop = threading.Event()
        errors: list[Exception] = []

        def clearer() -> None:
            while not stop.is_set():
                clear_compile_cache()

        def worker(seed: int) -> None:
            try:
                for i in range(60):
                    e = engines[(seed + i) % len(engines)]
                    compiled_tables(e.automaton, e.table, e.anchor_sids)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=clearer)] + [
            threading.Thread(target=worker, args=(s,)) for s in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads[1:]:
            t.join(timeout=30.0)
        stop.set()
        threads[0].join(timeout=30.0)
        assert not errors
        info = compile_cache_info()
        assert info["size"] <= len(engines)
        assert info["hits"] >= 0 and info["misses"] >= 0


# ---------------------------------------------------------------------------
# structural-repetition memo invariants (repro.xpath.subseq)
# ---------------------------------------------------------------------------


def _rows(tag: str, n: int, payload=lambda i: "t") -> str:
    """``n`` structurally identical rows (payload may vary the text)."""
    return "".join(
        f"<{tag}><a>{payload(i)}</a><b>{payload(i)}</b></{tag}>"
        for i in range(n)
    )


class _MemoRig:
    """A dense runner over one pre-lexed chunk with a private memo table.

    Mirrors the benchmark's setup: the memo is constructed directly
    (never through the registry), so counter assertions see exactly
    this rig's traffic.
    """

    def __init__(self, xml: str, qs, capacity: int = 64, min_span: int = 4):
        from repro.transducer.policies import PathPolicy
        from repro.xmlstream.lexer import lex_range

        self.engine = GapEngine(qs)
        self.policy = PathPolicy.gap(self.engine.table)
        self.xml = xml
        self.toks = list(lex_range(xml, 0, len(xml)))
        self.tables = compiled_tables(
            self.engine.automaton, self.engine.table, self.engine.anchor_sids
        )
        self.memo = MemoTable(self.tables, capacity=capacity, min_span=min_span)
        self.initial = frozenset((self.engine.automaton.initial,))

    def runner(self, memo=True):
        from repro.core.kernel import DenseRunner

        return DenseRunner(
            self.engine.automaton, self.policy, self.engine.anchor_sids,
            memo=self.memo if memo else None,
        )

    def run_once(self, runner):
        return runner.run_chunk(self.toks, 0, 0, len(self.xml),
                                start_states=self.initial)


class TestMemoCounters:
    """Hit/miss/reject accounting is exact, not approximate."""

    def test_counts_on_repetitive_document(self):
        """N identical rows: one miss interns, N-1 replays hit."""
        n = 8
        rig = _MemoRig(f"<t>{_rows('r', n)}</t>", ["//r/a"])
        rig.run_once(rig.runner())
        stats = rig.memo.stats()
        assert stats["misses"] == 1, stats
        assert stats["hits"] == n - 1, stats
        assert stats["rejects"] == 0 and stats["evictions"] == 0, stats
        assert stats["sequences"] == 1 and stats["entries"] == 1, stats

    def test_text_variants_share_one_sequence(self):
        """Near-repeats differing only in text are hits (structural key)."""
        n = 6
        xml = f"<t>{_rows('r', n, payload=lambda i: 'x' * (i + 1))}</t>"
        rig = _MemoRig(xml, ["//r/b"])
        rig.run_once(rig.runner())
        stats = rig.memo.stats()
        assert stats["sequences"] == 1, stats
        assert stats["hits"] == n - 1 and stats["misses"] == 1, stats

    def test_steady_state_is_all_hits(self):
        """After the first pass every later pass replays every row."""
        n = 5
        rig = _MemoRig(f"<t>{_rows('r', n)}</t>", ["//r/a"])
        runner = rig.runner()
        rig.run_once(runner)
        before = rig.memo.stats()
        rig.run_once(runner)
        after = rig.memo.stats()
        assert after["hits"] - before["hits"] == n
        assert after["misses"] == before["misses"]

    def test_memoized_run_matches_plain(self):
        """The rig itself is differential: memo on ≡ memo off."""
        xml = f"<t>{_rows('r', 7, payload=lambda i: str(i))}</t>"
        rig = _MemoRig(xml, ["//r/a", "//r"])
        g_memo = rig.run_once(rig.runner(memo=True))
        g_plain = rig.run_once(rig.runner(memo=False))

        def flat(res):
            return [
                (
                    c.restart_index,
                    [
                        {
                            key: (e.events, e.final_state, e.pushed)
                            for key, e in s.entries.items()
                        }
                        for s in c.segments
                    ],
                )
                for c in res.cohorts
            ]

        assert flat(g_memo) == flat(g_plain)
        assert g_memo.counters.as_dict() == g_plain.counters.as_dict()
        assert rig.memo.stats()["hits"] > 0


class TestMemoEviction:
    """Bounded capacity evicts deterministically, oldest first."""

    XML = "<t>" + _rows("r", 2) + _rows("s", 2) + _rows("u", 2) + "</t>"

    def _run(self):
        rig = _MemoRig(self.XML, ["//a"], capacity=2)
        rig.run_once(rig.runner())
        return rig.memo

    def test_capacity_is_enforced(self):
        memo = self._run()
        stats = memo.stats()
        assert stats["entries"] == 2, stats
        assert stats["sequences"] == 3, stats
        assert stats["evictions"] == 1, stats
        assert stats["misses"] == 3 and stats["hits"] == 3, stats

    def test_eviction_is_deterministic(self):
        """Two identical runs evict the same entry and report the same
        stats — the policy has no timing or hash-seed dependence."""
        m1, m2 = self._run(), self._run()
        assert m1.stats() == m2.stats()
        assert list(m1.entries) == list(m2.entries)

    def test_undercapacity_thrash_is_deterministic(self):
        """Capacity below the working set thrashes — deterministically.

        Three entry groups cycling through two slots: each pass
        re-misses (and re-inserts, evicting the oldest) every group's
        first occurrence and still hits its repeat.  The exact counts
        pin the eviction policy; correctness is unaffected (misses
        re-record, they never corrupt)."""
        rig = _MemoRig(self.XML, ["//a"], capacity=2)
        runner = rig.runner()
        rig.run_once(runner)
        first = rig.memo.stats()
        rig.run_once(runner)
        second = rig.memo.stats()
        assert second["misses"] == first["misses"] + 3
        assert second["hits"] == first["hits"] + 3
        assert second["evictions"] == first["evictions"] + 3
        assert second["entries"] == 2


class TestMemoInvalidation:
    """A grammar or query change yields a fresh memo (per-tables registry)."""

    def test_same_inputs_share_one_memo(self):
        e1 = GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)
        e2 = GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)
        t1 = compiled_tables(e1.automaton, e1.table, e1.anchor_sids)
        t2 = compiled_tables(e2.automaton, e2.table, e2.anchor_sids)
        assert t1 is t2  # structural compile cache
        assert memo_for_tables(t1) is memo_for_tables(t2)

    def test_query_change_gets_fresh_memo(self):
        e1 = GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)
        e2 = GapEngine(["/a/c"], grammar=RUNNING_DTD)
        t1 = compiled_tables(e1.automaton, e1.table, e1.anchor_sids)
        t2 = compiled_tables(e2.automaton, e2.table, e2.anchor_sids)
        assert memo_for_tables(t1) is not memo_for_tables(t2)

    def test_grammar_change_gets_fresh_memo(self):
        full = GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)
        part = GapEngine(
            [RUNNING_QUERY],
            grammar=sample_partial_grammar(parse_dtd(RUNNING_DTD), 0.5, seed=2),
        )
        tf = compiled_tables(full.automaton, full.table, full.anchor_sids)
        tp = compiled_tables(part.automaton, part.table, part.anchor_sids)
        assert memo_for_tables(tf) is not memo_for_tables(tp)

    def test_clear_drops_registered_memos(self):
        e = GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)
        t = compiled_tables(e.automaton, e.table, e.anchor_sids)
        m1 = memo_for_tables(t)
        clear_memo_tables()
        assert memo_for_tables(t) is not m1

    def test_registry_honours_default_overrides(self):
        prev = set_memo_defaults(capacity=7, min_span=3, max_span=99)
        try:
            e = GapEngine([RUNNING_QUERY], grammar=RUNNING_DTD)
            t = compiled_tables(e.automaton, e.table, e.anchor_sids)
            m = memo_for_tables(t)
            assert (m.capacity, m.min_span, m.max_span) == (7, 3, 99)
        finally:
            set_memo_defaults(**prev)


class TestMemoThreadSafety:
    """Hammer one shared memo table from concurrent dense runners.

    This is the service's actual shape: worker threads share the
    registry memo for one (query, grammar).  The kernel's hit path
    reads ``entries`` without the lock and batches counters through
    ``flush_chunk``; under contention the contract is: no exceptions,
    ``hits + misses`` exactly equals the number of planned spans
    consulted (every consult is one or the other, races included), and
    the table stays within capacity.
    """

    def test_concurrent_runs_stay_consistent(self):
        import threading

        n_rows, n_threads, per_thread = 10, 6, 15
        rig = _MemoRig(f"<t>{_rows('r', n_rows)}</t>", ["//r/a"])
        # one serial pass measures the consult count per pass (identical
        # every pass: hit or miss, each planned span is consulted once)
        rig.run_once(rig.runner())
        s0 = rig.memo.stats()
        per_pass = s0["hits"] + s0["misses"]
        assert per_pass == n_rows

        errors: list[Exception] = []
        barrier = threading.Barrier(n_threads)

        def worker() -> None:
            try:
                runner = rig.runner()
                barrier.wait()
                for _ in range(per_thread):
                    rig.run_once(runner)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        stats = rig.memo.stats()
        total_passes = 1 + n_threads * per_thread
        assert stats["hits"] + stats["misses"] == total_passes * per_pass
        assert stats["entries"] <= rig.memo.capacity
        assert stats["sequences"] == 1
