"""Dead-state subtree skipping in the single-stack loop.

When a START moves the query automaton into its dead state (the empty
position set: absorbing, no accept, no close), no row below that
element can emit an event or change what the loop returns after its
END.  :meth:`repro.core.kernel.DenseRunner._stack_loop` then only
counts the element's rows (``WorkCounters.skipped_tokens``) and resumes
after the END with the state the START pushed; a chunk that ends inside
leaves ``dead`` on the stack once per element still open below it.

The contract is that the skip is invisible: events, final state and
stack, and every counter other than ``skipped_tokens`` are what stepping
every row gives.  The oracles step every row and count
``skipped_tokens`` by their own rule (``tests/object_kernel.py``):

* **run_from** ≡ :func:`tests.object_kernel.run_sequential` on fixed
  cases (a dead element across a cut, so the second part enters in the
  dead state; one still open at the end of an unclosed document; one
  ending exactly at the cut; ``<a/>`` and text inside dead elements,
  dead inside dead; predicate anchors; ``//`` sets without a dead
  state) and on a seeded generator of documents and absolute queries;
* **engines** — GAP, PP and sequential × 1/2/7 chunks, the registry's
  exact entry path and stream ≡ batch, dense ≡ object on matches and
  every counter, matches ≡ DOM oracle;
* **XMark** — ``/s/r`` skips most of the document.
"""

from __future__ import annotations

import random

import pytest

from repro import GapEngine, PPTransducerEngine, SequentialEngine
from repro.core import DenseRunner
from repro.datasets import ALL_DATASETS
from repro.store import prepare_xml
from repro.stream import StreamSession
from repro.transducer import BaselinePolicy, StackUnderflow, WorkCounters
from repro.xmlstream import lex_range
from repro.xpath import build_document, evaluate_offsets

from tests.conftest import sealed_batch
from tests.object_kernel import object_kernel, run_sequential

CHUNK_COUNTS = (1, 2, 7)

#: a dead ``x`` subtree long enough that 2 and 7 chunks cut inside it
LONG = ("<a><x>" + "<y>t</y><x><z>u<y/></z>v</x>" * 30
        + "</x><b>1</b><c><d/><e>w<f/></e></c></a>")
#: ``<a/>``-style empty elements and text inside dead elements, dead
#: elements nested in dead elements, live elements between them
NESTED = ("<a>s<x>t<y/>u<x><x/>v<z><y>w</y></z></x></x><b>1</b>"
          "<c><d/><x><d/></x><e>w<f/><f>q</f></e></c><x/><b/></a>")
DOCS = {"long": LONG, "nested": NESTED}

#: absolute child paths (a dead state is reachable), predicate anchors
#: (CLOSE events), a wildcard step, and two sets without a dead state
QUERY_SETS = {
    "child": ["/a/b", "/a/c/d"],
    "predicates": ["/a[b]/c/d", "/a/c[d]/e/f", "/a/x[y]"],
    "wildcard": ["/a/*/d", "/a/c/e"],
    "descendant": ["//y", "//c/d"],
    "any": ["//*"],
}
HAS_DEAD = {"child", "predicates", "wildcard"}


def columns(xml: str):
    return lex_range(xml, 0, len(xml))


def dense_from(engine, tokens, state, stack, counters):
    a = engine.automaton
    return DenseRunner(a, BaselinePolicy(a), engine.anchor_sids).run_from(
        tokens, state, stack, counters)


def oracle_from(engine, tokens, state, stack, counters):
    return run_sequential(engine.automaton, tokens, engine.anchor_sids,
                          state, stack, counters)


def run_parts(run, engine, cols, cuts):
    """Run ``cols`` cut at ``cuts``, carrying the configuration across."""
    counters = WorkCounters()
    state, stack, events = engine.automaton.initial, [], []
    configs = []
    for lo, hi in zip((0, *cuts), (*cuts, len(cols))):
        state, stack, more = run(engine, cols[lo:hi], state, stack, counters)
        events += more
        configs.append((state, tuple(stack)))
    return configs, events, counters.as_dict()


def assert_run_from_equal(engine, cols, cuts=()):
    """Dense ≡ oracle on each part's configuration, events and counters."""
    dense = run_parts(dense_from, engine, cols, cuts)
    oracle = run_parts(oracle_from, engine, cols, cuts)
    assert dense == oracle
    return dense


# ---------------------------------------------------------------------------
# run_from: fixed cases
# ---------------------------------------------------------------------------


class TestRunFromFixed:
    def test_skipped_rows_counted_exactly(self):
        # rows: <a> <x> <y> t </y> <y> </y> </x> <b> 1 </b> </a>
        # <x> enters the dead state: rows 2..7 are skipped
        xml = "<a><x><y>t</y><y/></x><b>1</b></a>"
        engine = SequentialEngine(["/a/b"])
        _configs, events, counters = assert_run_from_equal(engine, columns(xml))
        assert counters["skipped_tokens"] == 6
        assert counters["stack_tokens"] == 12
        assert [ev.offset for ev in events] == [xml.index("<b>")]

    @pytest.mark.parametrize("qname", sorted(QUERY_SETS))
    @pytest.mark.parametrize("dname", sorted(DOCS))
    def test_whole_document(self, dname, qname):
        engine = SequentialEngine(QUERY_SETS[qname])
        _configs, _events, counters = assert_run_from_equal(
            engine, columns(DOCS[dname]))
        if qname in HAS_DEAD:
            assert engine.automaton.dead >= 0
            assert counters["skipped_tokens"] > 0
        else:
            assert engine.automaton.dead == -1
            assert counters["skipped_tokens"] == 0

    @pytest.mark.parametrize("qname", sorted(HAS_DEAD))
    def test_cut_inside_dead_element_enters_dead(self, qname):
        """Cuts inside the long ``x`` (dead under the child set): the
        first part ends with the state and stack the full stepping
        leaves, dead among them, and the second part starts from it."""
        engine = SequentialEngine(QUERY_SETS[qname])
        dead = engine.automaton.dead
        cols = columns(LONG)
        lo = LONG.index("<x>")
        inside = [i for i, off in enumerate(cols.offsets)
                  if lo < off < LONG.index("<b>")]
        for cut in inside[::7]:
            configs, _events, _counters = assert_run_from_equal(
                engine, cols, (cut,))
            state, stack = configs[0]
            if qname == "child":
                assert state == dead or dead in stack

    def test_dead_element_ends_exactly_at_cut(self):
        engine = SequentialEngine(QUERY_SETS["child"])
        cols = columns(LONG)
        # the row after the outer </x>, whose END closes the skip
        cut = cols.offsets.index(LONG.index("<b>"))
        configs, _events, counters = assert_run_from_equal(engine, cols, (cut,))
        assert configs[0][0] == engine.automaton.step(engine.automaton.initial, "a")
        assert counters["skipped_tokens"] > 0

    def test_unclosed_document_leaves_dead_on_the_stack(self):
        xml = "<a><b>1</b><x><y>t</y><x><z>u<y/>"
        engine = SequentialEngine(["/a/b"])
        dead = engine.automaton.dead
        configs, _events, counters = assert_run_from_equal(engine, columns(xml))
        state, stack = configs[0]
        # <a> <x> <x> <z> are open: the pushed states of a and of the
        # outer x, then dead once per open element below the outer x
        assert state == dead
        assert stack[2:] == (dead, dead)
        # everything after the outer <x>: <y> t </y> <x> <z> u <y> </y>
        assert counters["skipped_tokens"] == 8

    def test_last_row_enters_dead(self):
        engine = SequentialEngine(["/a/b"])
        configs, _events, counters = assert_run_from_equal(
            engine, columns("<a><b/><x>"))
        assert configs[0][0] == engine.automaton.dead
        assert counters["skipped_tokens"] == 0

    def test_underflow_after_a_skip(self):
        """An END with an empty stack after a skipped element raises at
        its offset on both sides, with the rows before it counted."""
        engine = SequentialEngine(["/a/b"])
        cols = columns("<a><x><y/></x></a>")[1:]  # <x> ... </a>
        counted = []
        for run in (dense_from, oracle_from):
            counters = WorkCounters()
            with pytest.raises(StackUnderflow) as info:
                run(engine, cols, engine.automaton.step(0, "a"), [], counters)
            counted.append((info.value.args, counters.as_dict()))
        assert counted[0] == counted[1]
        assert counted[0][1]["skipped_tokens"] == 3


# ---------------------------------------------------------------------------
# run_from: seeded generator
# ---------------------------------------------------------------------------

TAGS = ("a", "b", "c", "d")


def random_document(rng: random.Random, root: str = "a", closed: bool = True) -> str:
    """A document over :data:`TAGS` with text, empty elements and depth ≤ 6."""
    out: list[str] = []

    def element(name: str, depth: int) -> None:
        if depth >= 6 or rng.random() < 0.15:
            out.append(f"<{name}/>")
            return
        out.append(f"<{name}>")
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.3:
                out.append(rng.choice(("t", "ü", "x y")))
            else:
                element(rng.choice(TAGS), depth + 1)
        out.append(f"</{name}>")

    element(root, 0)
    xml = "".join(out)
    if not closed:
        # cut after a random tag
        xml = xml[:rng.choice([i for i, ch in enumerate(xml) if ch == ">"]) + 1]
    return xml


def random_absolute_queries(rng: random.Random, k: int = 3) -> list[str]:
    """Absolute child paths, some with a wildcard or a predicate."""
    out = []
    for _ in range(k):
        steps = ["/a"]
        for _ in range(rng.randint(1, 3)):
            test = rng.choice(TAGS + ("*",))
            if rng.random() < 0.2:
                test += f"[{rng.choice(TAGS)}]"
            steps.append("/" + test)
        out.append("".join(steps))
    return sorted(set(out))


class TestRunFromSeeded:
    SEEDS = range(12)

    @staticmethod
    def sweep(seed: int) -> int:
        """Dense ≡ oracle on a closed and an unclosed document, whole
        and cut at up to three random rows; returns the rows skipped."""
        rng = random.Random(seed)
        skipped = 0
        for closed in (True, False):
            xml = random_document(rng, closed=closed)
            engine = SequentialEngine(random_absolute_queries(rng))
            cols = columns(xml)
            cuts = tuple(sorted(rng.sample(range(1, len(cols)),
                                           min(3, len(cols) - 1))))
            for parts in ((), cuts):
                _c, _e, counters = assert_run_from_equal(engine, cols, parts)
                skipped += counters["skipped_tokens"]
        return skipped

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_documents_and_cuts(self, seed):
        self.sweep(seed)

    def test_generator_reaches_the_skip(self):
        assert sum(1 for seed in self.SEEDS if self.sweep(seed)) >= len(self.SEEDS) // 2


# ---------------------------------------------------------------------------
# engines: dense ≡ object ≡ DOM
# ---------------------------------------------------------------------------


def engine_runs(qs):
    """(name, engine factory, chunk counts); sequential runs unchunked."""
    return [
        ("gap", lambda: GapEngine(qs), CHUNK_COUNTS),
        ("pp", lambda: PPTransducerEngine(qs), CHUNK_COUNTS),
        ("seq", lambda: SequentialEngine(qs), (None,)),
    ]


def assert_dense_equals_object(xml, make, n, label):
    """Dense ≡ object on matches, run counters and per-chunk counters."""
    kw = {} if n is None else {"n_chunks": n}
    dense = make().run(xml, **kw)
    with object_kernel():
        obj = make().run(xml, **kw)
    assert dense.matches == obj.matches, label
    assert dense.stats.counters.as_dict() == obj.stats.counters.as_dict(), label
    assert [c.as_dict() for c in dense.stats.chunk_counters] == [
        c.as_dict() for c in obj.stats.chunk_counters], label
    return dense


def assert_matches_oracle(xml, matches, qs, label):
    doc = build_document(columns(xml))
    for q in qs:
        assert matches[q] == evaluate_offsets(doc, q), (label, q)


class TestEngines:
    @pytest.mark.parametrize("qname", sorted(QUERY_SETS))
    @pytest.mark.parametrize("dname", sorted(DOCS))
    def test_fixed_documents(self, dname, qname):
        xml, qs = DOCS[dname], QUERY_SETS[qname]
        for name, make, counts in engine_runs(qs):
            for n in counts:
                result = assert_dense_equals_object(xml, make, n, (dname, name, n))
                assert_matches_oracle(xml, result.matches, qs, (dname, name, n))
                skipped = result.stats.counters.skipped_tokens
                if qname not in HAS_DEAD:
                    assert skipped == 0, (dname, name, n)
                elif name == "seq":
                    assert skipped > 0, (dname, name, n)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_documents(self, seed):
        rng = random.Random(1000 + seed)
        xml = random_document(rng)
        qs = random_absolute_queries(rng)
        for name, make, counts in engine_runs(qs):
            for n in counts:
                result = assert_dense_equals_object(xml, make, n, (seed, name, n))
                assert_matches_oracle(xml, result.matches, qs, (seed, name, n))

    @pytest.mark.parametrize("qname", sorted(HAS_DEAD))
    def test_memo_variant(self, qname):
        """The opt-in memo's copy of the loop skips alike (chunks cut
        inside the long dead ``x``); spans that skipped are not memoized,
        so a replay never hides skipped rows."""
        qs = QUERY_SETS[qname]
        for n in CHUNK_COUNTS:
            on = assert_dense_equals_object(
                LONG, lambda: GapEngine(qs, memo=True), n, (qname, n))
            off = GapEngine(qs).run(LONG, n_chunks=n)
            assert on.matches == off.matches
            assert on.stats.counters.as_dict() == off.stats.counters.as_dict()
            assert [c.as_dict() for c in on.stats.chunk_counters] == [
                c.as_dict() for c in off.stats.chunk_counters]
            assert_matches_oracle(LONG, on.matches, qs, (qname, n))

    @pytest.mark.parametrize("qname", sorted(QUERY_SETS))
    def test_registry_exact_path(self, qname):
        """Every chunk from its exact entry; a cut inside the long dead
        ``x`` enters that chunk in the dead state."""
        qs = QUERY_SETS[qname]
        for n in CHUNK_COUNTS:
            chunks, toks, paths = prepare_xml(None, LONG, n)
            runs = []
            for patched in (False, True):
                engine = GapEngine(qs)
                if patched:
                    with object_kernel():
                        runs.append(engine.run(LONG, chunks=chunks,
                                               chunk_tokens=toks,
                                               chunk_paths=paths))
                else:
                    runs.append(engine.run(LONG, chunks=chunks,
                                           chunk_tokens=toks, chunk_paths=paths))
            dense, obj = runs
            assert dense.matches == obj.matches
            assert dense.stats.counters.as_dict() == obj.stats.counters.as_dict()
            assert [c.as_dict() for c in dense.stats.chunk_counters] == [
                c.as_dict() for c in obj.stats.chunk_counters]
            assert_matches_oracle(LONG, dense.matches, qs, (qname, n))
            if qname in HAS_DEAD and n > 1:
                assert any("x" in path for path in paths), paths
                assert dense.stats.counters.skipped_tokens > 0

    @pytest.mark.parametrize("qname", ["child", "predicates", "descendant"])
    def test_stream_equals_batch(self, qname):
        qs = QUERY_SETS[qname]
        rng = random.Random(7)
        pieces, i = [], 0
        while i < len(LONG):
            j = min(len(LONG), i + rng.randint(5, 60))
            pieces.append(LONG[i:j])
            i = j
        totals = []
        for patched in (False, True):
            def stream():
                session = StreamSession(qs, chunk_bytes=96)
                session.sealed_log = []
                found: dict[str, list[int]] = {}
                for delta in [d for p in pieces for d in session.feed(p)] + list(
                        session.finalize()):
                    for q, offs in delta.matches.items():
                        found.setdefault(q, []).extend(offs)
                return session, found, sealed_batch(GapEngine(qs), LONG,
                                                    session)

            if patched:
                with object_kernel():
                    session, found, batch = stream()
            else:
                session, found, batch = stream()
            for q in qs:
                assert found.get(q, []) == list(batch.matches[q]), (q, patched)
            assert session.totals.as_dict() == batch.stats.counters.as_dict()
            totals.append(session.totals.as_dict())
        assert totals[0] == totals[1]
        assert_matches_oracle(LONG, batch.matches, qs, qname)


class TestXMark:
    def test_child_path_skips_most_of_the_document(self):
        """``/s/r`` over XMark: every element outside ``/s/r`` is dead."""
        xmark = ALL_DATASETS["xmark"]
        xml = xmark.generate(scale=0.3, seed=1)
        qs = ["/s/r", "/s/r/af/item/name"]
        seq = SequentialEngine(qs).run(xml)
        counters = seq.stats.counters
        assert counters.skipped_tokens > counters.stack_tokens // 2
        chunks, toks, paths = prepare_xml(None, xml, 4)
        exact = GapEngine(qs, grammar=xmark.dtd).run(
            xml, chunks=chunks, chunk_tokens=toks, chunk_paths=paths)
        assert exact.stats.counters.skipped_tokens > 0
        assert exact.stats.summary()["skipped_tokens"] > 0
        assert_matches_oracle(xml, exact.matches, qs, "xmark")
        assert exact.matches == seq.matches
