#!/usr/bin/env python3
"""End-to-end performance gate: the working tree against a parent commit.

Usage, from the repository root::

    python3 .github/perf_gate.py [--base REV]

The head is the working tree.  The base is ``REV`` (default ``HEAD^``):
its ``src/`` is exported with ``git archive`` into a temporary
directory.  Both sides run the head's ``perfbench/run.py``, so only
``src/`` differs between them.  For every workload in
``BENCHMARK.json`` the gate runs ten pairs of runs with seeds 1..10,
alternating which side goes first, each for the file's
``run_seconds``.

The gate fails if, on any workload,

* a run is incorrect: it exits non-zero, reports ``"correct": false``
  or prints no result.  ``perfbench/run.py`` reports a run with any
  failed operation as incorrect, so a failed operation fails the gate;
* for any ``end_to_end`` metric, the head's median is worse than the
  base's median by more than the metric's ``bound``, relative to the
  base: ``better: higher`` fails below ``base * (1 - bound)``,
  ``better: lower`` above ``base * (1 + bound)``.

Only the standard library is used.  Exit status 0 = pass, 1 = fail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
PAIRS = 10


def worsening(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a fraction of ``base``.

    Negative means better.  A zero base makes any worse head infinitely
    worse and any other head a change of 0.
    """
    delta = head - base if better == "lower" else base - head
    if base == 0:
        return math.inf if delta > 0 else 0.0
    return delta / abs(base)


def decide(bench: dict, runs: dict) -> tuple[list[dict], list[str]]:
    """Apply the gate to finished runs → ``(rows, failures)``.

    ``runs[workload][side]`` lists one record per run: the JSON object
    ``perfbench/run.py`` prints last, or ``None`` for a run that printed
    none.  ``rows`` holds one entry per (workload, end-to-end metric);
    the gate passes when ``failures`` is empty.
    """
    rows: list[dict] = []
    failures: list[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        sides = runs.get(workload, {})
        good: dict[str, list[dict]] = {}
        for side in SIDES:
            records = sides.get(side, [])
            if not records:
                failures.append(f"{workload}: no {side} runs")
            bad = sum(1 for r in records if not (r and r.get("correct")))
            if bad:
                failures.append(f"{workload}: {bad} incorrect {side} run(s)")
            good[side] = [r for r in records if r and r.get("correct")]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in good[side]
                             if name in r.get("metrics", {})] for side in SIDES}
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   "better": metric["better"], "bound": metric["bound"],
                   "base": None, "head": None, "worse_by": None, "ok": False}
            rows.append(row)
            if any(len(values[side]) != len(good[side]) or not values[side]
                   for side in SIDES):
                failures.append(f"{workload}: {name} missing from some runs")
                continue
            row["base"] = statistics.median(values["base"])
            row["head"] = statistics.median(values["head"])
            row["worse_by"] = worsening(row["base"], row["head"], metric["better"])
            row["ok"] = row["worse_by"] <= metric["bound"]
            if not row["ok"]:
                failures.append(
                    f"{workload}: {name} median {row['head']:.6g} {metric['unit']} "
                    f"is {row['worse_by']:.1%} worse than the base's "
                    f"{row['base']:.6g} (bound {metric['bound']:.0%})")
    return rows, failures


def format_rows(rows: list[dict]) -> str:
    """The per-metric table, in Markdown."""
    def num(v):
        return "—" if v is None else f"{v:.4g}"

    lines = ["| workload | metric | base median | head median | worse by | bound | verdict |",
             "|---|---|---|---|---|---|---|"]
    for r in rows:
        worse = "—" if r["worse_by"] is None else f"{r['worse_by']:+.1%}"
        lines.append(f"| {r['workload']} | {r['metric']} ({r['unit']}, "
                     f"{r['better']} is better) | {num(r['base'])} | {num(r['head'])} "
                     f"| {worse} | {r['bound']:.0%} | {'ok' if r['ok'] else 'FAIL'} |")
    return "\n".join(lines)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One ``perfbench/run.py`` run of the head's benchmark over ``tree``."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=seconds + 600)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    if proc.returncode != 0:
        record["correct"] = False
    return record


def export_base(rev: str, into: str) -> str:
    """``src/`` of ``rev`` under ``into``; → the commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True
                            ).stdout.strip()
    subprocess.run(f"git archive {commit} src | tar -x -C {shlex.quote(into)}",
                   shell=True, cwd=ROOT, check=True)
    if not os.path.isfile(os.path.join(into, "src", "repro", "__init__.py")):
        raise RuntimeError(f"{rev} has no src/repro")
    return commit


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD^",
                    help="revision the working tree is compared with (default HEAD^)")
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]

    base_dir = tempfile.mkdtemp(prefix="perf-gate-base-")
    try:
        commit = export_base(args.base, base_dir)
        print(f"base {args.base} = {commit}; head = working tree {ROOT}; "
              f"{PAIRS} pairs of {seconds:g} s runs per workload", flush=True)
        trees = {"base": base_dir, "head": ROOT}
        runs: dict = {}
        for workload in (w["name"] for w in bench["workloads"]):
            runs[workload] = {side: [] for side in SIDES}
            for seed in range(1, PAIRS + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                for side in order:
                    record = run_once(trees[side], workload, seed, seconds)
                    runs[workload][side].append(record)
                    summary = ("no result" if record is None else
                               " ".join(f"{k}={v['value']:.4g}"
                                        for k, v in record.get("metrics", {}).items())
                               + ("" if record.get("correct") else " INCORRECT"))
                    print(f"{workload} seed {seed} {side}: {summary}", flush=True)
        rows, failures = decide(bench, runs)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    print(format_rows(rows))
    for failure in failures:
        print(f"FAIL {failure}")
    print("perf gate:", "FAIL" if failures else "pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
