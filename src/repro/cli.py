"""Command-line interface: ``python -m repro <command> ...``.

The commands mirror the library's workflow:

``query``
    Run XPath queries over an XML *or JSON* file (sniffed by content)
    with any engine; print matches (offsets, optionally decoded values)
    and execution stats.  For JSON, ``--grammar`` takes a JSON Schema
    and queries address members under ``/json/…``.

``inspect``
    Show what GAP precomputes for a grammar + query set: the grammar's
    elements, the static syntax tree (size, cycles), the merged query
    automaton, and the feasible path table's set sizes.

``generate``
    Emit one of the synthetic benchmark datasets, deterministic in
    ``(scale, seed)`` — handy for trying the engines on something
    bigger than a toy snippet.

``speedup``
    Run a workload through the sequential engine, the PP-Transducer
    and GAP, and report the simulated N-core speedups (the benchmark
    harness in miniature).

``report``
    Run a query with tracing *and* the flight recorder on; emit a run
    report — chunk timeline, per-layer self time, per-chunk path
    lifecycle, the paper's Table 5/6 profile — to the terminal or as a
    self-contained HTML page (``--format html``, no scripts, no
    external assets).

``explain``
    Replay one chunk's flight-recorder journal tag by tag: which paths
    were spawned where and why, which tags eliminated them (the
    paper's three elimination scenarios), where the chunk converged
    and where it switched from stack to tree mode.

``serve``
    Run the long-running query service: ingest documents once, answer
    concurrent HTTP queries with merged-automaton batches, admission
    control, ``/metrics``, the ``/varz`` + ``/statusz`` operator
    surfaces and per-request tracing (see ``docs/SERVICE.md``).

``top``
    Live operator view of a running service: poll ``/varz`` and render
    the ``/statusz`` sections in the terminal — queue, latency
    percentiles per request layer, caches, the most recent slow
    requests, the alert-rule table and telemetry sparklines — plus
    request rates derived from successive snapshots.  ``--once``
    prints a single frame and exits (the CI smoke check).

``tail``
    Continuously query a growing file: bytes feed the incremental
    lexer, tag-aligned chunks seal and evaluate as they fill, and
    completed matches print as JSONL deltas — ``tail -f`` for XPath.
    In-process by default; ``--connect HOST:PORT`` runs the stream on
    a daemon instead (offset-idempotent appends, checkpointed resume
    across daemon restarts; see ``docs/STREAMING.md``).

``profile``
    Run a query with tracing on and print the per-chunk timeline
    (duration, tokens, mode switches per chunk) and the exclusive time
    per layer (``repro.obs.LAYERS``, garbage collection included);
    optionally write Chrome-tracing JSON (``--trace-out``, loadable in
    ``chrome://tracing`` / Perfetto) and a metrics snapshot
    (``--metrics-out``).  ``--sample`` additionally runs the
    stack-sampling profiler during execution and prints the collapsed
    (folded) stacks with a per-layer attribution table; ``--flame
    OUT`` writes the self-contained HTML flame view.

``query``, ``speedup``, ``profile``, ``report`` and ``explain`` share
the observability flags: ``--trace`` (print a span summary),
``--trace-out FILE``, ``--metrics-out FILE`` (Prometheus text, or JSON
when FILE ends with ``.json``), ``--journal-out FILE`` (flight
recorder JSONL), ``--log-level LEVEL`` and ``--backend
{serial,thread,process}`` — plus the resilience flags
``--chunk-timeout``, ``--max-retries`` and ``--inject-faults`` (see
``docs/ROBUSTNESS.md``): giving any of them supervises the parallel
phase with per-chunk timeouts, bounded retries and a serial fallback.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext

from .core.engine import GapEngine, PPTransducerEngine, SequentialEngine, element_at
from .core.inference import infer_feasible_paths
from .datasets import ALL_DATASETS, dataset_by_name, generate_query_set
from .grammar import build_syntax_tree, is_xsd, parse_dtd, parse_xsd
from .jsonstream import json_value_at, tokenize_json
from .obs import (
    Journal,
    MetricsRegistry,
    Page,
    Section,
    Tracer,
    build_report,
    collect_run_metrics,
    configure_logging,
    explain_chunk,
    format_explain,
    format_timeline,
    gc_spans,
    layer_seconds,
    render_html,
    render_terminal,
    varz_sections,
    write_chrome_trace,
)
from .obs.journal import NULL_JOURNAL
from .obs.report import (
    VIEW_HISTORY,
    layer_rows,
    render_sections,
    sample_sections,
    varz_meta,
)
from .obs.tracer import NULL_TRACER
from .parallel import SimulatedCluster
from .store import prepare_json, prepare_xml
from .xpath.compile_tables import compile_cache_info, set_artifact_store

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GAP: grammar-aware parallel XPath querying (PPoPP'17 reproduction)",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    q = sub.add_parser("query", help="run XPath queries over an XML file")
    _add_run_args(q)
    q.add_argument("--text", action="store_true", help="decode matched elements' text")
    q.add_argument("--stats", action="store_true", help="print execution statistics")
    q.add_argument("--artifact-store", metavar="DIR",
                   help="persistent artifact store: reuse stored compiled "
                        "tables, chunk splits and token caches, and publish "
                        "what this run computes")
    q.set_defaults(func=_cmd_query)

    i = sub.add_parser("inspect", help="show grammar/automaton/feasible-table info")
    i.add_argument("grammar", help="DTD or XSD file, or an XML document with an inline DTD")
    i.add_argument("-q", "--query", action="append", default=[], dest="queries",
                   help="query to compile against the grammar (repeatable)")
    i.set_defaults(func=_cmd_inspect)

    g = sub.add_parser("generate", help="emit a synthetic benchmark dataset")
    g.add_argument("dataset", choices=sorted(ALL_DATASETS))
    g.add_argument("-s", "--scale", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", help="output file (default stdout)")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("speedup", help="compare engines on a dataset workload")
    s.add_argument("dataset", choices=sorted(ALL_DATASETS))
    s.add_argument("-Q", "--n-queries", type=int, default=10)
    s.add_argument("-s", "--scale", type=float, default=10.0)
    s.add_argument("-c", "--cores", type=int, default=20)
    _add_memo_arg(s)
    _add_obs_args(s)
    _add_resilience_args(s)
    s.set_defaults(func=_cmd_speedup)

    p = sub.add_parser("profile", help="run a query traced; print a per-chunk timeline")
    _add_run_args(p)
    p.add_argument("--sample", action="store_true",
                   help="run the stack-sampling profiler during execution; "
                        "print collapsed (folded) stacks and a per-layer "
                        "attribution table")
    p.add_argument("--sample-hz", type=float, default=50.0, metavar="HZ",
                   help="sampling rate for --sample (default 50)")
    p.add_argument("--flame", metavar="FILE",
                   help="write the sampled profile as a self-contained HTML "
                        "flame view (implies --sample)")
    p.set_defaults(func=_cmd_profile)

    r = sub.add_parser(
        "report",
        help="run a query with the flight recorder on; emit a run report",
    )
    _add_run_args(r, required=False)
    r.add_argument("--from-journal", metavar="FILE",
                   help="render from a saved service journal (JSONL, e.g. "
                        "GET /journal) instead of running a query")
    r.add_argument("--request", type=int, metavar="ID",
                   help="with --from-journal: follow one request id through "
                        "its lifecycle (admit / batch / respond / trace)")
    r.add_argument("--format", choices=("terminal", "html"), default="terminal",
                   dest="report_format", help="report format (default terminal)")
    r.add_argument("-o", "--output", metavar="FILE",
                   help="write the report to FILE instead of stdout")
    r.set_defaults(func=_cmd_report)

    x = sub.add_parser(
        "explain",
        help="replay one chunk's flight-recorder journal tag by tag",
    )
    _add_run_args(x)
    x.add_argument("chunk", type=int, help="chunk index to explain")
    x.set_defaults(func=_cmd_explain)

    v = sub.add_parser(
        "serve",
        help="run the long-running query service (HTTP, see docs/SERVICE.md)",
    )
    v.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    v.add_argument("--port", type=int, default=8077, help="bind port (default 8077)")
    v.add_argument("--backend", choices=("serial", "thread", "process"),
                   default="thread",
                   help="execution backend for merged passes (default thread)")
    v.add_argument("-n", "--chunks", type=int, default=8,
                   help="default chunk width for ingested documents (default 8)")
    v.add_argument("--max-queue", type=int, default=64,
                   help="request-queue bound; beyond it requests are rejected "
                        "with 429 (default 64)")
    v.add_argument("--max-batch", type=int, default=16,
                   help="most already-queued requests a free worker merges "
                        "into one pass (default 16)")
    v.add_argument("--workers", type=int, default=4,
                   help="worker threads pulling requests from the queue; a "
                        "request runs as soon as one is free (default 4)")
    v.add_argument("--max-documents", type=int, default=64,
                   help="registry bound; beyond it ingestion is rejected "
                        "(default 64)")
    v.add_argument("--deadline", type=float, default=30.0, metavar="SECONDS",
                   help="default per-request deadline (default 30)")
    v.add_argument("--chunk-timeout", type=float, metavar="SECONDS",
                   help="per-chunk resilience deadline inside merged passes")
    v.add_argument("--max-retries", type=int, metavar="N",
                   help="per-chunk retry budget inside merged passes")
    v.add_argument("--no-pre-lex", action="store_true",
                   help="skip caching pre-lexed chunk tokens per document")
    v.add_argument("--no-request-tracing", action="store_true",
                   help="disable per-request stage tracing (the NullRequestTrace "
                        "fast path; /varz stage percentiles and the slow log "
                        "stay empty)")
    v.add_argument("--slow-threshold", type=float, default=0.5, metavar="SECONDS",
                   help="end-to-end latency beyond which a request's span "
                        "breakdown is captured in the slow log (default 0.5)")
    v.add_argument("--slow-log-size", type=int, default=128, metavar="N",
                   help="slow-log ring capacity (default 128)")
    v.add_argument("--artifact-store", metavar="DIR",
                   help="persistent artifact store for warm starts: compiled "
                        "tables write through, document splits/token caches "
                        "are cached aside (see docs/PERFORMANCE.md); also "
                        "persists the telemetry history across restarts")
    v.add_argument("--collect-interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="telemetry collector tick interval (default 2.0)")
    v.add_argument("--history", type=int, default=600, metavar="N",
                   help="telemetry points kept per series (default 600; the "
                        "history window is N x collect-interval)")
    v.add_argument("--alert-rule", action="append", default=[], metavar="SPEC",
                   help="SLO alert rule, e.g. 'queue_fraction>0.8:for=30' or "
                        "'burn:requests_deadline>0.5:short=60:long=600'; "
                        "'default' expands the built-in rule pack "
                        "(repeatable; see docs/OBSERVABILITY.md)")
    v.add_argument("--no-collector", action="store_true",
                   help="disable the background telemetry collector (no "
                        "history, no alert evaluation)")
    v.add_argument("--sample", action="store_true",
                   help="continuous stack-sampling profiler: serve the live "
                        "profile at /profilez (on the process backend, pool "
                        "workers are sampled per chunk)")
    v.add_argument("--sample-hz", type=float, default=50.0, metavar="HZ",
                   help="sampling rate for --sample and /profilez?seconds= "
                        "captures (default 50)")
    v.add_argument("--stream-chunk-bytes", type=int, default=1 << 16,
                   metavar="N",
                   help="sealed-chunk target size for continuous queries "
                        "(default 65536)")
    v.add_argument("--stream-delta-buffer", type=int, default=256, metavar="N",
                   help="per-stream delta ring capacity; slow subscribers "
                        "past it get a counted gap (default 256)")
    v.add_argument("--max-streams", type=int, default=16, metavar="N",
                   help="open-stream bound (default 16)")
    v.add_argument("--document", action="append", default=[], metavar="FILE",
                   help="ingest FILE at startup (repeatable)")
    v.add_argument("-g", "--grammar", metavar="FILE",
                   help="grammar for documents preloaded with --document")
    v.add_argument("--log-level", metavar="LEVEL",
                   help="enable repro logging at LEVEL (DEBUG, INFO, ...)")
    _add_memo_arg(v)
    v.set_defaults(func=_cmd_serve)

    t = sub.add_parser(
        "top",
        help="live operator view of a running service (polls /varz)",
    )
    t.add_argument("--host", default="127.0.0.1", help="service address (default 127.0.0.1)")
    t.add_argument("--port", type=int, default=8077, help="service port (default 8077)")
    t.add_argument("-i", "--interval", type=float, default=1.0, metavar="SECONDS",
                   help="polling interval (default 1.0)")
    t.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (no screen clearing)")
    t.add_argument("--count", type=int, default=0, metavar="N",
                   help="stop after N refreshes (default: until Ctrl-C)")
    t.add_argument("--slow", type=int, default=5, metavar="N",
                   help="slow-log entries shown (default 5)")
    t.set_defaults(func=_cmd_top)

    ta = sub.add_parser(
        "tail",
        help="continuously query a growing file; print match deltas (JSONL)",
    )
    ta.add_argument("file", help="document to tail (use '-' for stdin)")
    ta.add_argument("-q", "--query", action="append", required=True,
                    dest="queries", help="XPath query (repeatable)")
    ta.add_argument("-g", "--grammar", metavar="FILE",
                    help="DTD or XSD file (feasible-path mid-stream entry; "
                         "omit for speculative mode)")
    ta.add_argument("-f", "--follow", action="store_true",
                    help="keep watching for appended bytes (like tail -f); "
                         "Ctrl-C stops without finalizing")
    ta.add_argument("--json", action="store_true", dest="json_kind",
                    help="the input is JSON (default: XML)")
    ta.add_argument("--root", default="json", metavar="NAME",
                    help="virtual root element for JSON input (default 'json')")
    ta.add_argument("--chunk-bytes", type=int, default=1 << 16, metavar="N",
                    help="sealed-chunk target size (default 65536)")
    ta.add_argument("--connect", metavar="HOST:PORT",
                    help="run the stream on a daemon instead of in-process")
    ta.add_argument("--name", default="", metavar="NAME",
                    help="stream name with --connect (part of the stream's "
                         "identity: the same name + queries resumes a "
                         "checkpointed stream after a daemon restart)")
    ta.add_argument("--stats", action="store_true",
                    help="print work counters to stderr when the stream ends")
    _add_memo_arg(ta)
    ta.set_defaults(func=_cmd_tail)

    st = sub.add_parser(
        "store",
        help="operate on a persistent artifact store directory",
    )
    st_sub = st.add_subparsers(required=True, metavar="action", dest="action")
    st_stats = st_sub.add_parser("stats", help="per-kind artifact counts and sizes")
    st_verify = st_sub.add_parser(
        "verify", help="checksum-verify every artifact (exit 1 on any invalid)")
    st_gc = st_sub.add_parser(
        "gc", help="remove invalid artifacts and stale temp files")
    st_gc.add_argument("--max-age", type=float, metavar="SECONDS",
                       help="also prune valid artifacts older than SECONDS")
    for sp in (st_stats, st_verify, st_gc):
        sp.add_argument("dir", help="artifact store directory")
        sp.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable JSON")
        sp.set_defaults(func=_cmd_store)
    return parser


def _add_run_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    """What the commands that run one query share (query / profile /
    report / explain): the document, queries, engine and grammar, plus
    the memo, observability and resilience flags."""
    p.add_argument("file", nargs=None if required else "?",
                   help="XML or JSON document (use '-' for stdin)"
                        + ("" if required else "; not needed with --from-journal"))
    p.add_argument("-q", "--query", action="append", required=required,
                   dest="queries", default=None if required else [],
                   help="XPath query (repeatable)")
    p.add_argument("-g", "--grammar", help="DTD or XSD file (default: the document's inline DTD, if any)")
    p.add_argument("-e", "--engine", choices=("gap", "pp", "seq"), default="gap")
    p.add_argument("-n", "--chunks", type=int, default=8, help="parallel chunks (default 8)")
    p.add_argument("--learn", action="append", default=[], metavar="FILE",
                   help="prior document(s) to learn a partial grammar from (speculative mode)")
    _add_memo_arg(p)
    _add_obs_args(p)
    _add_resilience_args(p)


def _add_memo_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--memo", action=argparse.BooleanOptionalAction, default=False,
                   help="structural-repetition memoization in the chunk kernel "
                        "(default off: planning costs more than it saves and "
                        "its tables load the garbage collector; --memo opts in)")


def _add_resilience_args(p: argparse.ArgumentParser) -> None:
    """The shared resilience flags (query / speedup / profile).

    Supervision engages when any of the three is given; all-defaults
    runs keep the unsupervised fast path.
    """
    p.add_argument("--chunk-timeout", type=float, metavar="SECONDS",
                   help="per-attempt deadline for one chunk (default 5.0 when "
                        "supervision is on; a hung chunk blocks at most "
                        "chunk-timeout x (max-retries + 1))")
    p.add_argument("--max-retries", type=int, metavar="N",
                   help="retry attempts per failed chunk before the serial "
                        "fallback (default 2 when supervision is on)")
    p.add_argument("--inject-faults", metavar="SPEC",
                   help="deterministic fault injection for chunk workers, e.g. "
                        "'chunk:2:raise,chunk:4:hang' (see docs/ROBUSTNESS.md; "
                        "also readable from the REPRO_FAULTS environment variable)")


def _resilience_from_args(args: argparse.Namespace):
    """Build the (RetryPolicy | None, fault spec | None) pair for a command."""
    if (args.chunk_timeout is None and args.max_retries is None
            and args.inject_faults is None):
        return None, None
    from .parallel import RetryPolicy

    policy = RetryPolicy(
        max_retries=2 if args.max_retries is None else args.max_retries,
        chunk_timeout=5.0 if args.chunk_timeout is None else args.chunk_timeout,
    )
    return policy, args.inject_faults


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """The shared observability flags (query / speedup / profile)."""
    p.add_argument("--trace", action="store_true",
                   help="record spans and print a phase timing summary")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write Chrome-tracing JSON (chrome://tracing / Perfetto); implies --trace")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write run metrics (Prometheus text; JSON when FILE ends with .json)")
    p.add_argument("--journal-out", metavar="FILE",
                   help="record the flight-recorder event journal and write it "
                        "as JSONL (path lifecycle, speculation, resilience)")
    p.add_argument("--log-level", metavar="LEVEL",
                   help="enable repro logging at LEVEL (DEBUG, INFO, ...)")
    p.add_argument("--backend", choices=("serial", "thread", "process"),
                   help="execution backend for the parallel phase (default: serial)")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_grammar(text: str):
    if text.lstrip()[:1] == "{":
        from .jsonstream import json_schema_to_grammar

        return json_schema_to_grammar(text)
    return parse_xsd(text) if is_xsd(text) else parse_dtd(text)


def _looks_like_json(text: str) -> bool:
    return text.lstrip()[:1] in ("{", "[")


def _format_stat(value: float) -> str:
    """Ints as ints, floats at full precision (no ``%g`` truncation)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


# -- observability plumbing shared by query/speedup/profile -----------------


def _obs_prepare(args: argparse.Namespace, force_trace: bool = False,
                 force_journal: bool = False):
    """Apply --log-level; build the run's (tracer, journal) pair."""
    if args.log_level:
        configure_logging(args.log_level)
    tracer = Tracer() if (force_trace or args.trace or args.trace_out) else NULL_TRACER
    journal = Journal() if (force_journal or args.journal_out) else NULL_JOURNAL
    return tracer, journal


def _write_metrics(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".json"):
            json.dump(registry.to_json(), fh, indent=2)
            fh.write("\n")
        else:
            fh.write(registry.to_prometheus())


def _obs_emit(args: argparse.Namespace, tracer, registry: MetricsRegistry | None,
              journal=NULL_JOURNAL) -> None:
    """Write --trace-out / --metrics-out / --journal-out; print --trace."""
    if args.journal_out and journal.enabled:
        journal.write_jsonl(args.journal_out)
        print(f"# journal written to {args.journal_out} "
              f"({len(journal.events)} event(s), {journal.dropped} dropped)")
    if args.trace and tracer.enabled:
        print("# trace (self seconds by layer)")
        for layer, total in layer_seconds(tracer.spans).items():
            print(f"  {layer}: {total:.6f}")
    if args.trace_out:
        write_chrome_trace(tracer.spans, args.trace_out)
        print(f"# trace written to {args.trace_out}")
    if args.metrics_out and registry is not None:
        _write_metrics(registry, args.metrics_out)
        print(f"# metrics written to {args.metrics_out}")


# ---------------------------------------------------------------------------


def _build_query_engine(args: argparse.Namespace, content: str, as_json: bool, tracer,
                        journal=None, sample: float = 0.0, profile=None):
    """Construct the engine the query/profile/report commands share."""
    resilience, faults = _resilience_from_args(args)
    if args.engine == "seq":
        return SequentialEngine(args.queries, backend=args.backend, tracer=tracer)
    if args.engine == "pp":
        return PPTransducerEngine(
            args.queries, n_chunks=args.chunks, backend=args.backend, tracer=tracer,
            resilience=resilience, faults=faults,
            memo=args.memo, journal=journal, sample=sample, profile=profile,
        )
    grammar = None
    if args.grammar:
        grammar = _load_grammar(_read(args.grammar))
    elif not as_json and "<!DOCTYPE" in content[:65536] and not args.learn:
        grammar = parse_dtd(content)
    engine = GapEngine(
        args.queries, grammar=grammar, n_chunks=args.chunks,
        backend=args.backend, tracer=tracer,
        resilience=resilience, faults=faults,
        memo=args.memo, journal=journal, sample=sample, profile=profile,
    )
    for prior in args.learn:
        prior_text = _read(prior)
        if _looks_like_json(prior_text):
            engine.learn_tokens(tokenize_json(prior_text))
        else:
            engine.learn(prior_text)
    return engine


def _execute(engine, args: argparse.Namespace, content: str, tokens, prep=None):
    if tokens is not None:
        if args.engine == "seq":
            return engine.run_tokens(tokens)
        return engine.run_tokens(tokens, n_chunks=args.chunks)
    if args.engine == "seq":
        return engine.run(content)
    if prep is not None:
        chunks, chunk_tokens = prep
        return engine.run(content, n_chunks=args.chunks,
                          chunks=chunks, chunk_tokens=chunk_tokens)
    return engine.run(content, n_chunks=args.chunks)


def _cmd_query(args: argparse.Namespace) -> int:
    with _run_query(args, trace=False) as run:
        if args.engine == "gap":
            print(f"# engine: {run.mode}")

        for query, offsets in run.result.matches.items():
            print(f"{query}: {len(offsets)} match(es)")
            for offset in offsets:
                if args.text and run.as_json:
                    print(f"  @{offset} {json_value_at(run.content, offset)!r}")
                elif args.text:
                    tag, text = element_at(run.content, offset)
                    print(f"  @{offset} <{tag}> {text!r}")
                else:
                    print(f"  @{offset}")
        if args.stats:
            print("# stats")
            for key, value in run.result.stats.summary().items():
                print(f"  {key}: {_format_stat(value)}")
            cache = compile_cache_info()
            print(f"  compile_cache_hits: {cache['hits']}")
            print(f"  compile_cache_misses: {cache['misses']}")
            print(f"  compiles: {cache['compiles']}")
            if run.store is not None:
                for key, value in run.store.counters().items():
                    print(f"  store_{key}: {value}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    grammar = _load_grammar(_read(args.grammar))
    print(f"grammar: root <{grammar.root}>, {len(grammar)} element declarations, "
          f"{'complete' if grammar.is_complete() else 'PARTIAL'}")
    tree = build_syntax_tree(grammar)
    print(f"static syntax tree: {len(tree)} nodes, {tree.n_cycles()} cycles, "
          f"max depth {tree.max_depth()}")
    for node in tree.nodes():
        if node.cycle:
            print(f"  recursion: {node.path()} -> {', '.join(c.tag for c in node.cycle)}")
    if not args.queries:
        return 0

    from .xpath import build_automaton, compile_queries

    compiled, registry = compile_queries(list(args.queries))
    automaton = build_automaton(registry.automaton_inputs())
    print(f"queries: {len(compiled)}; forward sub-queries: {len(registry.subqueries)}")
    for cq in compiled:
        print(f"  {cq.source}  (#sub={cq.n_sub})")
    print(f"automaton: {automaton.n_states} states over {len(automaton.alphabet)} tags")
    table = infer_feasible_paths(automaton, tree)
    print(f"feasible path table: {len(table)} entries, largest set "
          f"{table.max_set_size()} / {automaton.n_states} states")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    ds = dataset_by_name(args.dataset)
    xml = ds.generate(scale=args.scale, seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(xml)
        tags, dmax, davg = ds.stats(xml)
        print(f"wrote {args.output}: {len(xml)} bytes, {tags} tags, "
              f"d_max={dmax}, d_avg={davg:.2f}")
    else:
        sys.stdout.write(xml)
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    tracer, journal = _obs_prepare(args)
    ds = dataset_by_name(args.dataset)
    queries = generate_query_set(ds, args.n_queries)
    xml = ds.generate(scale=args.scale, seed=0)
    print(f"{args.dataset}: {len(xml) // 1024} KiB, {args.n_queries} queries, "
          f"{args.cores} simulated cores")

    registry = MetricsRegistry() if args.metrics_out else None
    resilience, faults = _resilience_from_args(args)
    with SequentialEngine(queries, tracer=tracer) as seq_engine:
        seq = seq_engine.run(xml)
    cluster = SimulatedCluster(args.cores)
    for name, engine in (
        ("pp", PPTransducerEngine(queries, n_chunks=args.cores,
                                  backend=args.backend, tracer=tracer,
                                  resilience=resilience, faults=faults,
                                  memo=args.memo, journal=journal)),
        ("gap", GapEngine(queries, grammar=ds.grammar, n_chunks=args.cores,
                          backend=args.backend, tracer=tracer,
                          resilience=resilience, faults=faults,
                          memo=args.memo, journal=journal)),
    ):
        with engine:
            res = engine.run(xml)
        if res.offsets_by_id != seq.offsets_by_id:
            raise RuntimeError(f"{name} results diverged from sequential")
        report = cluster.schedule(
            res.stats.chunk_counters, seq.stats.counters, run_totals=res.stats.counters
        )
        print(f"  {name:4s} speedup {report.speedup:6.2f}x  "
              f"(starting paths {res.stats.avg_starting_paths:6.1f}, "
              f"efficiency {report.efficiency:4.0%})")
        if registry is not None:
            for key, value in report.as_dict().items():
                registry.gauge(f"repro_sim_{key}", "Simulated-cluster scheduling output",
                               engine=name).set(value)
            collect_run_metrics(res.stats, registry=registry)
    _obs_emit(args, tracer, registry, journal)
    return 0


@contextmanager
def _run_query(args: argparse.Namespace, *, journal: bool = False,
               sample: bool = False, trace: bool = True):
    """One run of ``args.queries`` over ``args.file``, yielded to a command.

    The sequence ``query``, ``profile``, ``report`` and ``explain``
    share: read, sniff JSON, build the engine (the ``xpath.compile``
    layer), tokenize JSON under a ``jsonstream.lex`` span — or take the
    tokens, split and chunk tokens from ``--artifact-store`` — and
    execute, with each garbage collection of a traced run recorded as a
    ``runtime.gc`` span.  When the command's block ends, the requested
    observability outputs are written.  ``trace=False`` leaves tracing
    to ``--trace``/``--trace-out``.
    """
    tracer, jr = _obs_prepare(args, force_trace=trace, force_journal=journal)
    content = _read(args.file)
    as_json = _looks_like_json(content)
    profile = None
    if sample:
        from .obs.sampler import SampleProfile

        profile = SampleProfile()
    store = None
    if getattr(args, "artifact_store", None):
        from .store import ArtifactStore

        store = ArtifactStore(args.artifact_store, journal=jr)
        set_artifact_store(store)
    try:
        with gc_spans(tracer) if tracer.enabled else nullcontext():
            with tracer.span("xpath.compile", cat="phase"):
                engine = _build_query_engine(
                    args, content, as_json, tracer, jr, profile=profile,
                    sample=args.sample_hz if sample else 0.0)
            with engine:
                tokens = prep = None
                if as_json:
                    with tracer.span("jsonstream.lex", cat="phase") as sp:
                        tokens = prepare_json(store, content)
                        sp.args["tokens"] = len(tokens)
                elif store is not None and args.engine != "seq":
                    prep = prepare_xml(store, content, args.chunks, tracer=tracer)
                if profile is not None and args.engine == "seq":
                    # the sequential engine has no chunk workers to sample
                    # themselves; sample the evaluating thread from outside
                    from .obs.sampler import StackSampler

                    with StackSampler(profile=profile, interval=1.0 / args.sample_hz):
                        result = _execute(engine, args, content, tokens)
                else:
                    result = _execute(engine, args, content, tokens, prep=prep)
    finally:
        if store is not None:
            set_artifact_store(None)
    yield argparse.Namespace(
        content=content, as_json=as_json, result=result, tracer=tracer,
        journal=jr, profile=profile, store=store,
        mode=f"gap ({engine.mode})" if args.engine == "gap" else args.engine,
    )
    registry = None
    if args.metrics_out:
        registry = collect_run_metrics(
            result.stats, matches=result.matches, spans=tracer.spans
        )
    _obs_emit(args, tracer, registry, jr)


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.flame:
        args.sample = True
    if args.sample and args.sample_hz <= 0:
        raise ValueError("--sample-hz must be > 0")
    with _run_query(args, journal=False, sample=args.sample) as run:
        spans = run.tracer.spans
        wall = max(s.t1 for s in spans) - min(s.t0 for s in spans)
        print(f"# profile: {args.file} ({len(run.content)} bytes), engine {run.mode}, "
              f"{args.chunks} chunks, backend {args.backend or 'serial'}")
        print(f"# matches: {run.result.total_matches} across "
              f"{len(args.queries)} query(ies); wall {wall * 1e3:.2f} ms")
        print(format_timeline(spans))
        print(render_sections([Section("layers (self time)",
                                        ("layer", "self ms", "share"),
                                        layer_rows(spans))]))
        if run.profile is not None:
            _print_sample_profile(args, run.profile)
    return 0


def _print_sample_profile(args: argparse.Namespace, profile) -> None:
    """``repro profile --sample`` output: layer table, folded stacks, flame."""
    print(f"# stack samples: {profile.total} at {args.sample_hz:g} Hz "
          f"({len(profile)} distinct stack(s))")
    if profile.total:
        print(render_sections(sample_sections(profile)))
        print("# collapsed stacks (flamegraph folded format)")
        print(profile.collapsed(), end="")
    if args.flame:
        from .obs.report import render_flame

        html = render_flame(
            profile.to_dict(),
            title=f"repro profile — {args.file}",
            meta={"file": args.file, "engine": args.engine,
                  "hz": f"{args.sample_hz:g}"},
        )
        with open(args.flame, "w", encoding="utf-8") as fh:
            fh.write(html)
        print(f"# flame view written to {args.flame}")


def _cmd_report(args: argparse.Namespace) -> int:
    if args.from_journal:
        return _report_from_journal(args)
    if not args.file or not args.queries:
        print("error: report needs a document and -q QUERY "
              "(or --from-journal FILE)", file=sys.stderr)
        return 2
    with _run_query(args, journal=True) as run:
        page = build_report(
            run.result.stats, run.journal, spans=run.tracer.spans,
            matches=run.result.matches,
            title=f"repro run report — {args.file}",
            meta={
                "file": args.file,
                "bytes": len(run.content),
                "engine": run.mode,
                "chunks": args.chunks,
                "backend": args.backend or "serial",
            },
        )
        rendered = (render_html(page) if args.report_format == "html"
                    else render_terminal(page))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
            print(f"# report written to {args.output}")
        else:
            print(rendered)
    return 0


def _report_from_journal(args: argparse.Namespace) -> int:
    """``repro report --from-journal``: render a saved service journal."""
    from .bench.reporting import format_table
    from .obs.report import format_request

    journal = Journal.read_jsonl(args.from_journal)
    if args.request is not None:
        print(format_request(journal, args.request), end="")
        return 0
    counts = journal.counts()
    print(f"# service journal {args.from_journal}: {len(journal.events)} event(s)")
    if counts:
        print(format_table(["event", "count"],
                           [[k, v] for k, v in sorted(counts.items())]))
    traces = journal.by_kind("trace")
    if traces:
        rows = [
            [ev.args.get("request"), ev.args.get("doc", ""),
             ev.args.get("total_ms"), ev.args.get("batch_seq")]
            for ev in traces
        ]
        print(format_table(["request", "doc", "total ms", "batch"], rows,
                           title="traced requests (follow one with --request ID)"))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    # out-of-range chunk indexes exit 2 with a one-line diagnosis (a
    # script can tell "bad index" from engine errors, which exit 1)
    if not 0 <= args.chunk < args.chunks:
        print(f"error: chunk {args.chunk} out of range for a "
              f"{args.chunks}-chunk run (valid: 0..{args.chunks - 1})",
              file=sys.stderr)
        return 2
    with _run_query(args, journal=True) as run:
        n_actual = len(run.result.stats.chunk_counters)
        if args.chunk >= n_actual:
            print(f"error: chunk {args.chunk} out of range — the document "
                  f"split into {n_actual} chunk(s) (valid: 0..{n_actual - 1})",
                  file=sys.stderr)
            return 2
        print(format_explain(explain_chunk(run.journal, args.chunk)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import QueryService, ServiceConfig, serve

    if args.log_level:
        configure_logging(args.log_level)
    config = ServiceConfig(
        backend=args.backend,
        n_chunks=args.chunks,
        memo=args.memo,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        workers=args.workers,
        max_documents=args.max_documents,
        default_deadline=args.deadline if args.deadline > 0 else None,
        chunk_timeout=args.chunk_timeout,
        max_retries=args.max_retries,
        pre_lex=not args.no_pre_lex,
        request_tracing=not args.no_request_tracing,
        slow_threshold=args.slow_threshold,
        slow_log_size=args.slow_log_size,
        artifact_store=args.artifact_store,
        collector=not args.no_collector,
        collect_interval=args.collect_interval,
        history=args.history,
        alert_rules=tuple(args.alert_rule),
        sample=args.sample,
        sample_hz=args.sample_hz,
        stream_chunk_bytes=args.stream_chunk_bytes,
        stream_delta_buffer=args.stream_delta_buffer,
        max_streams=args.max_streams,
    )
    service = QueryService(config)
    grammar = _read(args.grammar) if args.grammar else None
    for path in args.document:
        record = service.register(_read(path), name=path, grammar=grammar)
        print(f"# ingested {path} as {record.doc_id} "
              f"({record.n_bytes} bytes, {record.kind})")
    server = serve(args.host, args.port, service)
    host, port = server.server_address[:2]
    extras = []
    if config.collector:
        extras.append(f"collector {config.collect_interval:g}s")
        if len(service.alerts):
            extras.append(f"{len(service.alerts)} alert rule(s)")
    if config.sample:
        extras.append(f"sampler {config.sample_hz:g} Hz")
    print(f"# repro serve on http://{host}:{port} "
          f"(backend {config.backend}, queue {config.max_queue}, "
          f"batch {config.max_batch}"
          + (", " + ", ".join(extras) if extras else "")
          + "); POST /shutdown or Ctrl-C to stop",
          flush=True)
    server.run()
    print("# repro serve: shut down cleanly")
    return 0


def _top_rates(curr: dict, prev: dict | None,
               dt: float) -> tuple[dict[str, float], bool]:
    """Per-second deltas between two /varz snapshots.

    Returns ``(rates, reset_seen)``.  A counter that went *backwards*
    (the service restarted between polls) would otherwise render as a
    huge negative rate — such deltas are clamped to 0 and the sample
    is flagged so the frame can say ``[reset]`` instead of lying.
    ``dt <= 0`` (first poll, or a clock that did not advance) yields
    no rates at all rather than a division by zero.
    """
    if prev is None or dt <= 0:
        return {}, False
    reset = False
    rates: dict[str, float] = {}

    def delta(value: float, before: float) -> float:
        nonlocal reset
        d = value - before
        if d < 0:
            reset = True
            return 0.0
        return d

    for status, value in curr.get("requests", {}).items():
        before = prev.get("requests", {}).get(status, 0)
        rates[f"req {status}/s"] = delta(value, before) / dt
    rates["batches/s"] = delta(
        curr.get("batches_total", 0), prev.get("batches_total", 0)) / dt
    return rates, reset


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .service.client import QueryClient, ServiceError

    client = QueryClient(args.host, args.port)

    def frame(varz: dict, prev: dict | None, dt: float) -> str:
        """The ``/statusz`` sections plus the per-second rate line."""
        meta = varz_meta(varz)
        rates, reset = _top_rates(varz, prev, dt)
        if rates:
            meta += "\n" + " · ".join(f"{k} {v:.1f}" for k, v in sorted(rates.items()))
            if reset:
                meta += " · [reset]"
        return render_terminal(Page("repro top", meta, varz_sections(varz)))

    try:
        varz = client.varz(n=args.slow, history=VIEW_HISTORY)
    except (OSError, ServiceError) as exc:
        print(f"error: no service at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    if args.once:
        print(frame(varz, None, 0.0), end="")
        return 0
    prev, prev_t = None, 0.0
    frames = 0
    try:
        while True:
            now = time.monotonic()
            # clear + home keeps the view in place like top(1)
            sys.stdout.write("\x1b[2J\x1b[H"
                             + frame(varz, prev, now - prev_t if prev else 0.0))
            sys.stdout.flush()
            frames += 1
            if args.count and frames >= args.count:
                return 0
            prev, prev_t = varz, now
            time.sleep(args.interval)
            varz = client.varz(n=args.slow, history=VIEW_HISTORY)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print()
        return 0
    except (OSError, ServiceError) as exc:
        print(f"\nerror: lost the service at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1


def _cmd_tail(args: argparse.Namespace) -> int:
    """Continuous querying over a growing file (local or via a daemon)."""
    grammar = _read(args.grammar) if args.grammar else None
    kind = "json" if args.json_kind else "xml"
    if args.connect:
        return _tail_remote(args, grammar, kind)
    from .stream import StreamSession

    session = StreamSession(
        args.queries, grammar=grammar, kind=kind, root_name=args.root,
        chunk_bytes=args.chunk_bytes, memo=args.memo,
        track_matches=False,
    )
    seq = 0

    def emit(deltas) -> int:
        nonlocal seq
        for delta in deltas:
            seq += 1
            delta.seq = seq
            print(json.dumps(delta.to_dict(), separators=(",", ":")),
                  flush=True)
        return len(deltas)

    interrupted = False
    try:
        for piece in _tail_pieces(args.file, follow=args.follow):
            emit(session.feed(piece))
    except KeyboardInterrupt:
        interrupted = True
    if not interrupted:
        emit(session.finalize())
    if args.stats or interrupted:
        status = "interrupted" if interrupted else "end of stream"
        print(f"# {status}: {session.offset} bytes, "
              f"{session.chunks_sealed} chunks, {seq} deltas",
              file=sys.stderr)
    if args.stats:
        for key, value in sorted(session.totals.as_dict().items()):
            print(f"# {key}: {value}", file=sys.stderr)
    return 0


def _tail_pieces(path: str, follow: bool, block: int = 1 << 16):
    """Yield chunks of a (possibly growing) file; ``-`` reads stdin."""
    import time

    if path == "-":
        while True:
            piece = sys.stdin.read(block)
            if not piece:
                return
            yield piece
    with open(path, encoding="utf-8") as fh:
        while True:
            piece = fh.read(block)
            if piece:
                yield piece
            elif follow:
                time.sleep(0.2)  # tail -f: wait for the file to grow
            else:
                return


def _tail_remote(args: argparse.Namespace, grammar: str | None,
                 kind: str) -> int:
    """Run the stream on a daemon: idempotent appends + delta long-poll.

    The subscriber runs in a thread so slow evaluation never stalls
    ingest; deltas print as they arrive.  On resume (the daemon
    restarted with a checkpoint) the file is re-read from the server's
    committed offset — the offset protocol makes re-sent bytes a no-op.
    """
    import threading

    from .service.client import QueryClient, ServiceError

    host, _, port = args.connect.rpartition(":")
    client = QueryClient(host or "127.0.0.1", int(port))
    state = client.stream_create(
        args.name or args.file, args.queries, grammar=grammar, kind=kind,
        root=args.root, chunk_bytes=args.chunk_bytes,
    )
    sid = state["stream_id"]
    offset = int(state["offset"])
    if state.get("resumed"):
        print(f"# resumed stream {sid} at offset {offset}", file=sys.stderr)

    stop = threading.Event()

    def subscribe() -> None:
        since = 0
        while not stop.is_set():
            try:
                out = client.stream_deltas(sid, since=since, timeout=5)
            except (OSError, ServiceError):
                if stop.is_set():
                    return
                raise
            if out["gap"]:
                print(f"# gap: {out['gap']} delta(s) dropped", file=sys.stderr)
                since += out["gap"]
            for delta in out["deltas"]:
                print(json.dumps(delta, separators=(",", ":")), flush=True)
                since = delta["seq"]
            if out["closed"] and not out["deltas"]:
                return

    reader = threading.Thread(target=subscribe, daemon=True)
    reader.start()
    interrupted = False
    try:
        if args.file == "-":
            while True:
                piece = sys.stdin.read(1 << 16)
                if not piece:
                    break
                client.stream_append(sid, piece, offset=offset)
                offset += len(piece)
        else:
            import time

            with open(args.file, encoding="utf-8") as fh:
                # the offset counts characters, and a text file's seek()
                # takes an opaque cookie: read past the committed prefix
                skip = offset
                while skip:
                    skipped = fh.read(min(skip, 1 << 16))
                    if not skipped:
                        raise ValueError(
                            f"{args.file} is shorter than the stream's "
                            f"committed offset {offset}")
                    skip -= len(skipped)
                while True:
                    piece = fh.read(1 << 16)
                    if piece:
                        client.stream_append(sid, piece, offset=offset)
                        offset += len(piece)
                    elif args.follow:
                        time.sleep(0.2)
                    else:
                        break
    except KeyboardInterrupt:
        # leave the stream open: the daemon's checkpoint lets a later
        # `repro tail --connect` with the same name/queries resume it
        interrupted = True
    if not interrupted:
        result = client.stream_finalize(sid)
        reader.join(timeout=30)
        if args.stats:
            print(f"# end of stream: {result['offset']} bytes, "
                  f"{result['chunks']} chunks", file=sys.stderr)
            for key, value in sorted(result["counters"].items()):
                print(f"# {key}: {value}", file=sys.stderr)
    stop.set()
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Operator maintenance over one artifact store directory."""
    import json as _json
    import os

    from .bench.reporting import format_table
    from .store import ArtifactStore

    if not os.path.isdir(args.dir):
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return 1
    store = ArtifactStore(args.dir)
    infos = store.scan()

    if args.action == "gc":
        result = store.gc(max_age=args.max_age)
        if args.as_json:
            print(_json.dumps(result, sort_keys=True))
        else:
            print(f"# gc {args.dir}: removed {result['removed']} artifact(s), "
                  f"kept {result['kept']}, "
                  f"pruned {result['tmp_removed']} temp file(s)")
        return 0

    by_kind: dict[str, dict[str, int]] = {}
    for info in infos:
        row = by_kind.setdefault(
            info.kind, {"artifacts": 0, "bytes": 0, "invalid": 0})
        row["artifacts"] += 1
        row["bytes"] += info.n_bytes
        if not info.valid:
            row["invalid"] += 1
    invalid = [i for i in infos if not i.valid]

    if args.as_json:
        out = {"root": store.root, "kinds": by_kind,
               "invalid": [
                   {"kind": i.kind, "key": i.key, "reason": i.reason}
                   for i in invalid
               ]}
        print(_json.dumps(out, sort_keys=True))
    else:
        rows = [
            [kind, row["artifacts"], row["bytes"], row["invalid"]]
            for kind, row in sorted(by_kind.items())
        ]
        print(format_table(
            ["kind", "artifacts", "bytes", "invalid"], rows,
            title=f"artifact store {store.root}",
        ))
        for info in invalid:
            print(f"  invalid {info.kind}/{info.key}: {info.reason}")
    if args.action == "verify" and invalid:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
