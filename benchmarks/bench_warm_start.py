"""Warm-start driver: time to first query result, cold vs stored.

The artifact-store claim: a process that inherits a populated store
reaches its first query result at least **2× faster** than a cold one,
because the two preparation artifacts — the tag-aligned split (with
each chunk's entry path) and the per-chunk token cache — are decoded
from disk instead of recomputed.  Kernel tables are compiled in both
rounds: compiling them costs less than reading them back.

The experiment is honest about process boundaries: each measurement is
a **fresh interpreter** (``sys.executable -c``) so no in-memory cache
can leak between rounds.  A cold round gets an empty store directory
(it pays split + lex, then publishes); a warm round gets the directory
a previous process populated.  Both rounds time the same span —
store-backed preparation through the first ``GapEngine.run`` returning
— and report their matches and store counters, so the gate can also
assert *why* warm was fast (a hit per artifact, no writes) and that
speed changed nothing (byte-identical matches).

Timings are best-of-``TRIALS`` per mode (each trial its own process;
cold trials each get their own store directory).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import GapEngine
from repro.bench.reporting import format_table
from repro.datasets import dataset_by_name, generate_query_set

from conftest import emit

SCALE = 20.0
N_CHUNKS = 8
N_QUERIES = 4
TRIALS = 3

_CHILD = """
import json, sys, time
from repro.core.engine import GapEngine
from repro.datasets import dataset_by_name
from repro.store import ArtifactStore, prepare_xml

doc_path, store_dir, n_chunks = sys.argv[1], sys.argv[2], int(sys.argv[3])
queries = json.loads(sys.argv[4])
text = open(doc_path).read()
grammar = dataset_by_name("xmark").grammar
store = ArtifactStore(store_dir)
t0 = time.perf_counter()
chunks, toks, _paths = prepare_xml(store, text, n_chunks)
engine = GapEngine(queries, grammar=grammar, n_chunks=n_chunks,
                   backend="serial")
result = engine.run(text, chunks=chunks, chunk_tokens=toks)
elapsed = time.perf_counter() - t0
engine.close()
print(json.dumps({
    "seconds": elapsed,
    "matches": result.matches,
    "store": store.counters(),
}))
"""


def _child_round(doc_path: str, store_dir: str, queries: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, doc_path, store_dir,
         str(N_CHUNKS), json.dumps(queries)],
        env=env, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def warm_start_results(tmp_path_factory):
    base = tmp_path_factory.mktemp("warm_start")
    ds = dataset_by_name("xmark")
    text = ds.generate(scale=SCALE, seed=0)
    doc_path = str(base / "xmark.xml")
    with open(doc_path, "w") as fh:
        fh.write(text)
    queries = generate_query_set(ds, N_QUERIES)

    colds = [
        _child_round(doc_path, str(base / f"cold{i}"), queries)
        for i in range(TRIALS)
    ]
    # the warm directory is what cold trial 0's process published
    warm_dir = str(base / "cold0")
    warms = [_child_round(doc_path, warm_dir, queries) for _ in range(TRIALS)]
    return {
        "n_bytes": len(text),
        "queries": queries,
        "colds": colds,
        "warms": warms,
    }


def test_warm_start_reaches_first_result_2x_faster(warm_start_results, benchmark):
    r = warm_start_results
    colds, warms = r["colds"], r["warms"]
    cold_s = min(c["seconds"] for c in colds)
    warm_s = min(w["seconds"] for w in warms)
    speedup = cold_s / warm_s

    headers = ["mode", "trials", "best s", "store hits", "store writes",
               "speedup"]
    rows = [
        ["cold (empty store)", TRIALS, round(cold_s, 4),
         colds[0]["store"]["hits"], colds[0]["store"]["writes"], 1.0],
        ["warm (stored artifacts)", TRIALS, round(warm_s, 4),
         warms[0]["store"]["hits"], warms[0]["store"]["writes"],
         round(speedup, 2)],
    ]
    table = format_table(
        headers, rows,
        title=(
            f"Warm start — time to first result, xmark "
            f"{r['n_bytes'] / 1e3:.0f} KB, {N_QUERIES} queries, "
            f"{N_CHUNKS} chunks (fresh process per trial)"
        ),
    )
    emit("warm_start", table, headers=headers, rows=rows)

    # the warm rounds really ran from the store, and changed nothing
    for c in colds:
        assert c["store"]["writes"] == 2  # split, tokens
        assert c["matches"] == colds[0]["matches"]
    for w in warms:
        assert w["store"]["hits"] == 2
        assert w["store"]["writes"] == 0
        assert w["store"]["invalid"] == 0
        assert w["matches"] == colds[0]["matches"]

    # the issue's acceptance gate
    assert speedup >= 2.0, f"warm start only {speedup:.2f}x faster"

    # representative kernel for --benchmark-compare: one warm in-process
    # preparation + run (store decode included, subprocess cost not)
    from repro.store import ArtifactStore, prepare_xml
    from repro.xpath.compile_tables import clear_compile_cache

    import tempfile

    ds = dataset_by_name("xmark")
    text = ds.generate(scale=SCALE, seed=0)
    store = ArtifactStore(tempfile.mkdtemp(prefix="warm-bench-"))
    engine = GapEngine(list(r["queries"]), grammar=ds.grammar,
                       n_chunks=N_CHUNKS, backend="serial")
    chunks, toks, _paths = prepare_xml(store, text, N_CHUNKS)
    engine.run(text, chunks=chunks, chunk_tokens=toks)  # populate

    def warm_round():
        clear_compile_cache()
        c, t, _p = prepare_xml(store, text, N_CHUNKS)
        return engine.run(text, chunks=c, chunk_tokens=t)

    benchmark(warm_round)
