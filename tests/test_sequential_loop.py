"""``DenseRunner.run_from`` ≡ the sequential oracle.

:meth:`repro.core.kernel.DenseRunner.run_from` is the only sequential
pushdown transducer in the library: the chunk kernel's single-stack
loop entered from a known ``(state, stack)``.  It serves the sequential
baseline, the join's reprocessing and the stream's recovery path, and
its ``stack_tokens`` price the simulated speedups.  The oracle is
:func:`tests.object_kernel.run_sequential`, the same machine read off
the automaton one ``Token`` view at a time.

Seeded sweep: documents from the differential corpus (one with
non-ASCII names and text) and random queries over their element
names, run whole and cut at a random row with the configuration
carried across the cut; then runs from a random row with an empty
stack, which mostly underflow.  Events, final configuration,
``stack_tokens`` and the underflow offset must agree.
"""

from __future__ import annotations

import random

import pytest

from repro import SequentialEngine
from repro.core import DenseRunner
from repro.grammar import parse_dtd
from repro.transducer import PathPolicy, StackUnderflow, WorkCounters
from repro.xmlstream import lex_range
from repro.xpath import build_document, evaluate_offsets

from tests.object_kernel import object_kernel, run_sequential
from tests.test_kernel_differential import CORPUS, CORPUS_IDS, corpus_document

SEEDS = range(8)


def random_queries(rng: random.Random, names: list[str], k: int = 4) -> list[str]:
    """``k`` absolute queries of 1–3 steps over ``names`` and ``*``."""
    out = []
    for _ in range(k):
        steps = []
        for _ in range(rng.randint(1, 3)):
            axis = rng.choice(("/", "//"))
            test = rng.choice(names + ["*"])
            if rng.random() < 0.25:
                test += f"[{rng.choice(names)}]"
            steps.append(axis + test)
        out.append("".join(steps))
    return out


def case(entry, seed):
    """(xml, columns, engine over random queries, rng) for one sweep point."""
    dtd, _queries, transform = entry
    xml = corpus_document(parse_dtd(dtd), seed, transform)
    cols = lex_range(xml, 0, len(xml))
    rng = random.Random(seed)
    names = sorted({t.name for t in cols if t.is_start})
    engine = SequentialEngine(random_queries(rng, names))
    return xml, cols, engine, rng


def dense(engine, tokens, state, stack, counters):
    a = engine.automaton
    return DenseRunner(a, PathPolicy.baseline(), engine.anchor_sids).run_from(
        tokens, state, stack, counters)


def oracle(engine, tokens, state, stack, counters):
    return run_sequential(engine.automaton, tokens, engine.anchor_sids,
                          state, stack, counters)


def run_cut(run, engine, cols, cut):
    counters = WorkCounters()
    state, stack, first = run(engine, cols[:cut], engine.automaton.initial,
                              [], counters)
    state, stack, second = run(engine, cols[cut:], state, stack, counters)
    return state, stack, first + second, counters.stack_tokens


@pytest.mark.parametrize("entry", CORPUS, ids=CORPUS_IDS)
@pytest.mark.parametrize("seed", SEEDS)
class TestRunFromDifferential:
    def test_resumed_at_a_random_cut(self, entry, seed):
        _xml, cols, engine, rng = case(entry, seed)
        cut = rng.randrange(len(cols) + 1)
        got = run_cut(dense, engine, cols, cut)
        assert got == run_cut(oracle, engine, cols, cut), (engine.queries, cut)
        # the cut is invisible: one run over the whole document agrees
        assert got == run_cut(dense, engine, cols, 0)
        state, stack, _events, n = got
        assert (state, stack, n) == (engine.automaton.initial, [], len(cols))

    def test_underflow_from_an_empty_stack(self, entry, seed):
        _xml, cols, engine, rng = case(entry, seed)
        start = rng.randrange(len(cols))
        state = rng.randrange(engine.automaton.n_states)
        outcomes = []
        for run in (dense, oracle):
            counters = WorkCounters()
            try:
                result = run(engine, cols[start:], state, [], counters)
            except StackUnderflow as exc:
                result = ("underflow", exc.offset)
            outcomes.append((result, counters.stack_tokens))
        assert outcomes[0] == outcomes[1], (engine.queries, start, state)

    def test_sequential_engine_matches_oracle_and_dom(self, entry, seed):
        xml, _cols, engine, _rng = case(entry, seed)
        got = SequentialEngine(engine.queries).run(xml)
        with object_kernel():
            want = SequentialEngine(engine.queries).run(xml)
        assert got.matches == want.matches
        assert got.stats.counters.as_dict() == want.stats.counters.as_dict()
        doc = build_document(iter(lex_range(xml, 0, len(xml))))
        for q in engine.queries:
            assert got.matches[q] == evaluate_offsets(doc, q), q


def test_underflow_counts_the_rows_before_it():
    engine = SequentialEngine(["//a"])
    cols = lex_range("<a>x</a></b><a/>", 0, 16)
    counters = WorkCounters()
    with pytest.raises(StackUnderflow, match="at offset 8") as exc:
        dense(engine, cols, engine.automaton.initial, [], counters)
    assert exc.value.offset == 8
    assert counters.stack_tokens == 3
