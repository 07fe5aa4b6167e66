"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import _format_stat, main

from tests.conftest import FEED_DTD, FEED_XML


@pytest.fixture
def feed_file(tmp_path):
    p = tmp_path / "feed.xml"
    p.write_text(FEED_XML)
    return str(p)


@pytest.fixture
def dtd_file(tmp_path):
    p = tmp_path / "feed.dtd"
    p.write_text(FEED_DTD)
    return str(p)


class TestQueryCommand:
    def test_gap_with_grammar_file(self, feed_file, dtd_file, capsys):
        rc = main(["query", feed_file, "-q", "/feed/entry/id", "-g", dtd_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gap (nonspec)" in out
        assert "/feed/entry/id: 1 match(es)" in out

    def test_gap_inline_doctype(self, tmp_path, capsys):
        doc = FEED_DTD + "\n" + FEED_XML
        p = tmp_path / "doc.xml"
        p.write_text(doc)
        rc = main(["query", str(p), "-q", "//id"])
        assert rc == 0
        assert "gap (nonspec)" in capsys.readouterr().out

    def test_gap_speculative_with_learning(self, feed_file, tmp_path, capsys):
        prior = tmp_path / "prior.xml"
        prior.write_text("<feed><entry><title>t</title></entry><id>x</id></feed>")
        rc = main(["query", feed_file, "-q", "//id", "--learn", str(prior)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gap (spec)" in out
        assert "//id: 2 match(es)" in out

    def test_seq_and_pp_engines(self, feed_file, capsys):
        for engine in ("seq", "pp"):
            rc = main(["query", feed_file, "-q", "//id", "-e", engine])
            assert rc == 0
            assert "2 match(es)" in capsys.readouterr().out

    def test_text_decoding(self, feed_file, dtd_file, capsys):
        rc = main(["query", feed_file, "-q", "/feed/id", "-g", dtd_file, "--text"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "'feed-id'" in out

    def test_stats_flag(self, feed_file, capsys):
        rc = main(["query", feed_file, "-q", "//id", "-e", "seq", "--stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# stats" in out and "stack_tokens" in out

    def test_missing_file_errors(self, capsys):
        rc = main(["query", "/nonexistent.xml", "-q", "//x"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_query_errors(self, feed_file, capsys):
        rc = main(["query", feed_file, "-q", "not a query"])
        assert rc == 1

    def test_trace_flag_prints_phase_summary(self, feed_file, capsys):
        rc = main(["query", feed_file, "-q", "//id", "--trace"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# trace (self seconds by layer)" in out
        assert "transducer.mapping:" in out

    def test_thread_backend_flag(self, feed_file, capsys):
        rc = main(["query", feed_file, "-q", "//id", "--backend", "thread"])
        assert rc == 0
        assert "2 match(es)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["query", "profile", "report", "serve"])
    def test_process_backend_is_an_argparse_error(self, feed_file, command, capsys):
        argv = [command, "--backend", "process"]
        if command != "serve":
            argv += [feed_file, "-q", "//id"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the choices' quoting differs between Python versions
        choices = r"\(choose from '?serial'?, '?thread'?\)"
        assert re.search(r"invalid choice: '?process'? " + choices, err), err

    def test_serve_backend_defaults_to_the_service_config(self):
        from repro.cli import _build_parser
        from repro.service import ServiceConfig

        args = _build_parser().parse_args(["serve"])
        assert args.backend == ServiceConfig().backend == "serial"


class TestFormatStat:
    def test_integral_floats_print_as_ints(self):
        # the old f"{v:g}" truncated large ints to 1.23457e+08
        assert _format_stat(123456789.0) == "123456789"
        assert _format_stat(32.0) == "32"
        assert _format_stat(0.0) == "0"

    def test_non_integral_floats_keep_full_precision(self):
        assert _format_stat(0.3333333333333333) == "0.3333333333333333"
        assert _format_stat(1.5) == "1.5"

    def test_stats_output_has_no_scientific_notation(self, capsys, tmp_path):
        p = tmp_path / "big.xml"
        p.write_text(FEED_XML)
        rc = main(["query", str(p), "-q", "//id", "-e", "seq", "--stats"])
        out = capsys.readouterr().out
        assert rc == 0
        for line in out.splitlines():
            if line.startswith("  "):
                assert "e+" not in line and "e-" not in line


class TestInspectCommand:
    def test_inspect_dtd(self, dtd_file, capsys):
        rc = main(["inspect", dtd_file, "-q", "/feed/entry/id"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 element declarations" in out
        assert "static syntax tree: 5 nodes" in out
        assert "feasible path table" in out

    def test_inspect_recursive_grammar_shows_cycles(self, tmp_path, capsys):
        p = tmp_path / "rec.dtd"
        p.write_text("<!ELEMENT li (t?, li*)> <!ELEMENT t (#PCDATA)>")
        rc = main(["inspect", str(p)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recursion: /li -> li" in out


class TestGenerateCommand:
    def test_generate_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "li.xml"
        rc = main(["generate", "lineitem", "-s", "0.2", "-o", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        assert "d_max=3" in capsys.readouterr().out

    def test_generate_to_stdout(self, capsys):
        rc = main(["generate", "dblp", "-s", "0.1"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("<?xml")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "martian"])


class TestTailCommand:
    def test_local_deltas_equal_batch_matches(self, tmp_path, capsys):
        from repro import GapEngine
        from repro.datasets import ALL_DATASETS
        from repro.stream import StreamSession

        data = ALL_DATASETS["dblp"]
        doc = data.generate(scale=0.2, seed=3)
        queries = list(data.queries.values())[:3]
        path, dtd = tmp_path / "dblp.xml", tmp_path / "dblp.dtd"
        path.write_text(doc, encoding="utf-8")
        dtd.write_text(data.dtd, encoding="utf-8")
        rc = main(["tail", str(path), "-g", str(dtd), "--chunk-bytes", "512",
                   "--stats", *(arg for q in queries for arg in ("-q", q))])
        out, err = capsys.readouterr()
        assert rc == 0
        got: dict[str, list[int]] = {}
        for seq, line in enumerate(out.splitlines(), 1):
            delta = json.loads(line)
            assert delta["seq"] == seq
            for q, offsets in delta["matches"].items():
                got.setdefault(q, []).extend(offsets)
        batch = GapEngine(queries, grammar=data.dtd).run(doc)
        assert got == {q: v for q, v in batch.matches.items() if v}
        assert got

        # the seal points do not depend on how the file was read
        session = StreamSession(queries, grammar=data.dtd, chunk_bytes=512)
        session.feed(doc)
        session.finalize()
        stats = dict(re.findall(r"^# (\w+): (\d+)$", err, re.M))
        assert stats == {k: str(v) for k, v in session.totals.as_dict().items()}
        assert f"{session.chunks_sealed} chunks" in err


class TestSpeedupCommand:
    def test_speedup_runs(self, capsys):
        rc = main(["speedup", "dblp", "-Q", "4", "-s", "2", "-c", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pp " in out and "gap " in out and "speedup" in out


class TestProfileCommand:
    def test_timeline_printed(self, feed_file, capsys):
        rc = main(["profile", feed_file, "-q", "/feed/entry/id", "-n", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# profile:" in out and "3 chunks" in out
        assert "# matches: 1 across 1 query(ies)" in out
        # the timeline table: phases plus one row per chunk
        assert "span" in out and "dur ms" in out
        for row in ("xmlstream.split", "parallel.backend", "transducer.mapping",
                    "core.kernel #0", "core.kernel #1", "core.kernel #2",
                    "layers (self time)", "self ms"):
            assert row in out, row

    def test_trace_out_writes_chrome_json(self, feed_file, tmp_path, capsys):
        trace = tmp_path / "t.json"
        rc = main(["profile", feed_file, "-q", "//id", "--trace-out", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"# trace written to {trace}" in out
        data = json.loads(trace.read_text())
        events = data["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X"}
        assert any(e["name"] == "core.kernel" and "chunk" in e["args"]
                   for e in events)

    def test_metrics_out_prometheus_and_json(self, feed_file, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        rc = main(["profile", feed_file, "-q", "//id", "--metrics-out", str(prom)])
        assert rc == 0
        text = prom.read_text()
        assert "# TYPE repro_chunks_total counter" in text
        assert "# TYPE repro_chunk_seconds histogram" in text
        assert 'repro_matches_total{query="//id"} 2' in text

        mjson = tmp_path / "m.json"
        rc = main(["profile", feed_file, "-q", "//id", "--metrics-out", str(mjson)])
        assert rc == 0
        data = json.loads(mjson.read_text())
        names = {m["name"] for m in data["metrics"]}
        assert "repro_chunks_total" in names
        capsys.readouterr()

    def test_profile_json_document(self, tmp_path, capsys):
        p = tmp_path / "data.json"
        p.write_text('{"items": [{"id": 1}, {"id": 2}]}')
        rc = main(["profile", str(p), "-q", "//id", "-n", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "jsonstream.lex" in out and "core.kernel #0" in out

    def test_profile_seq_engine(self, feed_file, capsys):
        rc = main(["profile", feed_file, "-q", "//id", "-e", "seq"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "core.kernel" in out and "xmlstream.lex" not in out


@pytest.fixture(scope="module")
def xmark_file(tmp_path_factory):
    """A ~170 KB XMark document: long enough that a 500 Hz sampler
    always catches the run (60 KB gave as few as 2 samples)."""
    path = tmp_path_factory.mktemp("xmark") / "xmark.xml"
    assert main(["generate", "xmark", "-s", "30", "-o", str(path)]) == 0
    return str(path)


class TestProfileSample:
    """``repro profile --sample``: one sampler around the run, every engine."""

    SAMPLES_HEADER = re.compile(
        r"^# stack samples: \d+ at 500 Hz \(\d+ distinct stack\(s\)\); "
        r"achieved (\d+) Hz \((\d+) sample\(s\) in ([\d.]+) ms\)$", re.M)

    def assert_achieved_rate(self, out):
        """The achieved rate is the samples over the sampled wall time."""
        m = self.SAMPLES_HEADER.search(out)
        assert m, out
        hz, samples, ms = int(m[1]), int(m[2]), float(m[3])
        assert samples >= 1 and ms > 0
        assert abs(hz - samples / (ms / 1e3)) <= 1 + hz * 0.01, m[0]

    @pytest.mark.parametrize("flags", [["-e", "seq"], [], ["--backend", "thread"]],
                             ids=["seq", "gap-serial", "gap-thread"])
    def test_sampled_report(self, xmark_file, flags, capsys):
        rc = main(["profile", xmark_file, "-q", "//item/name",
                   "--sample", "--sample-hz", "500", *flags])
        out = capsys.readouterr().out
        assert rc == 0
        self.assert_achieved_rate(out)
        assert "samples by layer" in out
        assert "hottest frames (leaf)" in out
        assert "# collapsed stacks (flamegraph folded format)" in out

    def test_flame_implies_sample(self, xmark_file, tmp_path, capsys):
        flame = tmp_path / "flame.html"
        rc = main(["profile", xmark_file, "-q", "//item/name",
                   "--sample-hz", "500", "--flame", str(flame)])
        out = capsys.readouterr().out
        assert rc == 0
        self.assert_achieved_rate(out)
        assert f"# flame view written to {flame}" in out
        assert flame.read_text(encoding="utf-8").lower().startswith("<!doctype html>")


class TestJsonQueries:
    def test_json_file_sniffed(self, tmp_path, capsys):
        p = tmp_path / "data.json"
        p.write_text('{"items": [{"id": 1, "tag": "x"}, {"id": 2}]}')
        rc = main(["query", str(p), "-q", "/json/items[tag]/id", "--text"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 match(es)" in out
        assert "'1'" in out

    def test_json_schema_as_grammar(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text('{"items": [{"id": 1}]}')
        schema = tmp_path / "schema.json"
        schema.write_text(
            '{"type": "object", "properties": {"items": {"type": "array",'
            ' "items": {"type": "object", "properties": {"id": {"type": "integer"}}}}}}'
        )
        rc = main(["query", str(data), "-q", "//id", "-g", str(schema)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gap (nonspec)" in out

    def test_json_learning(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text('{"items": [{"id": 1}, {"id": 2}]}')
        prior = tmp_path / "prior.json"
        prior.write_text('{"items": [{"id": 9}]}')
        rc = main(["query", str(data), "-q", "//id", "--learn", str(prior)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gap (spec)" in out and "2 match(es)" in out


class TestJsonSniff:
    """A top-level JSON scalar is a JSON document, not XML."""

    @pytest.mark.parametrize("doc", ['"abc"', "42", " true\n"],
                             ids=["string", "number", "literal"])
    def test_scalar_json_document(self, tmp_path, capsys, doc):
        p = tmp_path / "scalar.json"
        p.write_text(doc)
        rc = main(["query", str(p), "-q", "/json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "/json: 1 match(es)" in out

    @pytest.mark.parametrize("doc", ['"abc"', "42", "-1.5", "true", "null", "[1]"])
    def test_registry_registers_json_kind(self, doc):
        from repro.service import DocumentRegistry

        assert DocumentRegistry().register(doc).kind == "json"

    @pytest.mark.parametrize("doc", [FEED_XML, "  <r>true</r>", "<?xml version='1.0'?><n/>"],
                             ids=["feed", "indented", "prolog"])
    def test_xml_still_sniffed_as_xml(self, doc):
        from repro.service import DocumentRegistry
        from repro.store.docprep import looks_like_json

        assert not looks_like_json(doc)
        assert DocumentRegistry().register(doc).kind == "xml"


class TestExplainCommand:
    def test_valid_chunk_replays(self, feed_file, capsys):
        rc = main(["explain", feed_file, "1", "-q", "//id", "-n", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chunk 1" in out

    def test_chunk_beyond_requested_width_exits_2(self, feed_file, capsys):
        rc = main(["explain", feed_file, "8", "-q", "//id", "-n", "8"])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1  # exactly one diagnostic line
        assert lines[0].startswith("error: chunk 8 out of range")
        assert "0..7" in lines[0]

    def test_negative_chunk_exits_2(self, feed_file, capsys):
        rc = main(["explain", feed_file, "-q", "//id", "--", "-1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: chunk -1 out of range")

    def test_chunk_beyond_actual_split_exits_2(self, tmp_path, capsys):
        # a tiny document splits into fewer chunks than requested: an
        # index valid for the requested width can still be out of range
        p = tmp_path / "tiny.xml"
        p.write_text("<a><b/></a>")  # splits into 3 chunks, not 8
        rc = main(["explain", str(p), "5", "-q", "//b", "-n", "8"])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert "split into 3 chunk(s)" in lines[0]
        assert "0..2" in lines[0]
