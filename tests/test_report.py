"""Tests for run reports and chunk explanations."""

from __future__ import annotations

import pytest

from repro import GapEngine
from repro.grammar import parse_dtd
from repro.obs import (
    Journal,
    Page,
    Section,
    Tracer,
    build_report,
    chunk_timeline,
    explain_chunk,
    format_explain,
    render_html,
    render_terminal,
)
from repro.xpath.compile_tables import clear_compile_cache

from tests.conftest import FEED_DTD, FEED_XML, RUNNING_DTD, RUNNING_QUERY, RUNNING_XML


def _journaled_run(queries, dtd, xml, n_chunks, tracer=None):
    clear_compile_cache()
    journal = Journal()
    engine = GapEngine(queries, grammar=parse_dtd(dtd), tracer=tracer,
                       journal=journal)
    return engine.run(xml, n_chunks=n_chunks), journal


def _rows(page: Page, title: str):
    """The rows of the page section called ``title``."""
    (section,) = [s for s in page.sections if s.title == title]
    return section.rows


class TestExplain:
    N_CHUNKS = 4

    @pytest.fixture(scope="class")
    def run(self):
        return _journaled_run([RUNNING_QUERY], RUNNING_DTD, RUNNING_XML,
                              self.N_CHUNKS)

    def test_running_example_matches(self, run):
        res, _ = run
        assert res.matches == {RUNNING_QUERY: [17]}

    def test_starting_paths_match_table5_counters(self, run):
        # the explanation's per-chunk starting paths are exactly the
        # Table 5 quantity the counters record
        res, journal = run
        for i, counters in enumerate(res.stats.chunk_counters):
            assert explain_chunk(journal, i).starting_paths == \
                counters.starting_paths

    def test_chunk0_is_the_initial_path(self, run):
        _, journal = run
        exp = explain_chunk(journal, 0)
        assert exp.starting_paths == 1
        assert exp.rows[0][2] == "spawn"
        assert "initial" in exp.rows[0][3]

    def test_later_chunks_enumerate_feasible_paths(self, run):
        res, journal = run
        for i in range(1, self.N_CHUNKS):
            exp = explain_chunk(journal, i)
            assert exp.starting_paths > 1  # ambiguity: the paper's premise
            assert any("scenario1" in row[3] for row in exp.rows)

    def test_format_explain_renders_table(self, run):
        _, journal = run
        text = format_explain(explain_chunk(journal, 1))
        assert text.startswith("chunk 1: started 3 path(s)")
        for header in ("offset", "tag", "event", "detail", "live"):
            assert header in text

    def test_empty_chunk_explains_gracefully(self):
        exp = explain_chunk(Journal(), 7)
        assert exp.starting_paths == 0 and exp.rows == []
        assert "no journal events" in format_explain(exp)


class TestRunReport:
    @pytest.fixture(scope="class")
    def report(self):
        tracer = Tracer()
        res, journal = _journaled_run(["/feed/entry/id", "//title"], FEED_DTD,
                                      FEED_XML, 3, tracer=tracer)
        return build_report(res.stats, journal, spans=tracer.spans,
                            matches=res.matches, title="test report",
                            meta={"file": "feed.xml", "chunks": 3})

    def test_sections_populated(self, report):
        assert [row[0] for row in _rows(report, "chunk timeline")] == [0, 1, 2]
        assert [row[0] for row in _rows(report, "path lifecycle (per chunk)")] == \
            [0, 1, 2]
        assert dict(_rows(report, "profile (Tables 5/6)"))["chunks"] == 3
        assert ("cache_miss", 1) in [tuple(r) for r in _rows(report, "journal events")]
        assert dict(_rows(report, "matches"))["//title"] == 2
        layers = [row[0] for row in _rows(report, "layers (self time)")]
        assert {"xmlstream.split", "core.kernel", "transducer.mapping"} <= set(layers)

    def test_lifecycle_starting_paths_column(self, report):
        for row in _rows(report, "path lifecycle (per chunk)"):
            assert row[1] >= 1  # start paths
            assert row[6] == "-"  # no misspeculation with a full grammar

    def test_terminal_rendering(self, report):
        text = render_terminal(report)
        assert "test report" in text
        assert "file: feed.xml · chunks: 3" in text
        assert "chunk timeline" in text
        assert "layers (self time)" in text
        assert "path lifecycle (per chunk)" in text
        assert "profile (Tables 5/6)" in text
        assert "avg starting paths (Table 5)" in text

    def test_html_is_deterministic(self, report):
        first = render_html(report)
        second = render_html(report)
        assert first == second

    def test_html_is_self_contained(self, report):
        page = render_html(report)
        assert page.startswith("<!DOCTYPE html>")
        # no scripts, no network assets, no external references
        lowered = page.lower()
        assert "<script" not in lowered
        assert "http://" not in lowered and "https://" not in lowered
        assert "src=" not in lowered and "@import" not in lowered
        assert 'href="' not in lowered
        # content made it into the page, escaped
        assert "Chunk timeline" in page
        assert "lane-bar" in page
        assert "prefers-color-scheme" in page

    def test_html_escapes_queries(self):
        report = Page(title="<t>&", sections=[
            Section("matches", ("query", "matches"), [['//a[b="<x>"]', 1]])])
        page = render_html(report)
        assert "&lt;t&gt;&amp;" in page
        assert "&lt;x&gt;" in page and "<x>" not in page.replace("&lt;x&gt;", "")

    def test_report_without_spans_or_matches(self):
        res, journal = _journaled_run([RUNNING_QUERY], RUNNING_DTD,
                                      RUNNING_XML, 2)
        report = build_report(res.stats, journal)
        titles = [s.title for s in report.sections]
        assert "chunk timeline" not in titles and "matches" not in titles
        assert len(_rows(report, "path lifecycle (per chunk)")) == 2
        assert "profile (Tables 5/6)" in render_terminal(report)
        assert render_html(report) == render_html(report)


class TestDenseProfileTimeline:
    def test_dense_kernel_emits_chunk_spans(self):
        # regression: the profile timeline must not be empty under the
        # dense kernel
        tracer = Tracer()
        _journaled_run(["//title"], FEED_DTD, FEED_XML, 3, tracer=tracer)
        chunks = tracer.chunk_spans()
        assert [s.args["chunk"] for s in chunks] == [0, 1, 2]
        assert {s.name for s in chunks} == {"core.kernel"}
        _, rows = chunk_timeline(tracer.spans)
        assert any(r[0].strip() == "core.kernel #0" for r in rows)
