"""Microbenchmarks: raw throughput of the pipeline's stages.

Not a paper artifact — engineering numbers for the substrates, so
regressions in the hot loops show up in `--benchmark-compare` runs:

* lexer MB/s over a DBLP corpus;
* sequential PDT tokens/s (the speedup baseline's inner loop,
  ``DenseRunner.run_from``);
* the chunk kernel under the GAP policy (single-path stack mode) vs
  under the PP policy (multi-path tree mode) on the same chunk — the
  per-token cost gap that runtime data-structure switching exploits,
  measured in real wall-clock rather than the cost model.
"""

from __future__ import annotations

import pytest

from repro.bench import generate_document
from repro.core import DenseRunner, infer_feasible_paths, tables_for_policy
from repro.datasets import dataset_by_name
from repro.grammar import build_syntax_tree
from repro.transducer import PathPolicy, WorkCounters
from repro.xmlstream import lex_range
from repro.xpath import build_automaton, parse_xpath

SCALE = 20.0


@pytest.fixture(scope="module")
def corpus():
    ds = dataset_by_name("dblp")
    text = generate_document(ds.name, SCALE, 0)
    automaton = build_automaton([(0, parse_xpath("/dp/ar/au"))])
    table = infer_feasible_paths(automaton, build_syntax_tree(ds.grammar))
    return text, automaton, table


@pytest.fixture(scope="module")
def half_chunk(corpus):
    """The second half of the corpus as one chunk, lexed once."""
    text = corpus[0]
    begin = text.index("<", len(text) // 2)
    return lex_range(text, begin, len(text)), begin, len(text)


def _mean_seconds(benchmark) -> float | None:
    """Mean time per round, or None under ``--benchmark-disable``."""
    return benchmark.stats["mean"] if benchmark.stats is not None else None


def test_lexer_throughput(corpus, benchmark):
    text, _a, _t = corpus
    n_tokens = benchmark(lambda: len(lex_range(text, 0, len(text))))
    mean = _mean_seconds(benchmark)
    if mean is not None:
        print(f"\nlexer: {len(text) / 1e6 / mean:.1f} MB/s, {n_tokens} tokens")


def test_sequential_pdt_throughput(corpus, benchmark):
    text, automaton, _t = corpus
    tokens = lex_range(text, 0, len(text))
    runner = kernel_for(automaton, PathPolicy.baseline())
    benchmark(lambda: runner.run_from(tokens, automaton.initial, [], WorkCounters()))
    mean = _mean_seconds(benchmark)
    if mean is not None:
        print(f"\nsequential PDT: {len(tokens) / mean / 1e6:.2f} Mtokens/s")


def kernel_for(automaton, policy):
    """The production chunk kernel over the tables the pipeline compiles."""
    return DenseRunner(automaton, policy,
                       tables=tables_for_policy(automaton, policy))


def test_gap_chunk_runner_stack_mode(corpus, half_chunk, benchmark):
    _text, automaton, table = corpus
    runner = kernel_for(automaton, PathPolicy.gap(table))
    tokens, begin, end = half_chunk
    benchmark(lambda: runner.run_chunk(tokens, 1, begin, end))


def test_pp_chunk_runner_tree_mode(corpus, half_chunk, benchmark):
    _text, automaton, _t = corpus
    runner = kernel_for(automaton, PathPolicy.baseline())
    tokens, begin, end = half_chunk
    result = benchmark(lambda: runner.run_chunk(tokens, 1, begin, end))
    # sanity: the baseline really ran multi-path
    assert result.counters.tree_tokens > 0
