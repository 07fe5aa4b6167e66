"""Unit tests for the public engine API."""

from __future__ import annotations

import pytest

from repro import (
    EngineError,
    GapEngine,
    PPTransducerEngine,
    SequentialEngine,
    element_at,
    parse_dtd,
    query,
)
from repro.grammar import sample_partial_grammar

from tests.conftest import FEED_DTD, FEED_XML


class TestEngineConstruction:
    def test_requires_queries(self):
        with pytest.raises(EngineError):
            SequentialEngine([])

    def test_nonspec_requires_complete_grammar(self):
        partial = parse_dtd("<!ELEMENT feed (entry+, id)>")
        with pytest.raises(EngineError, match="complete grammar"):
            GapEngine(["//id"], grammar=partial, mode="nonspec")

    def test_auto_mode_resolution(self):
        assert GapEngine(["//id"], grammar=FEED_DTD).mode == "nonspec"
        partial = parse_dtd("<!ELEMENT feed (entry+, id)>")
        assert GapEngine(["//id"], grammar=partial).mode == "spec"
        assert GapEngine(["//id"]).mode == "spec"

    def test_forced_spec_mode(self):
        engine = GapEngine(["//id"], grammar=FEED_DTD, mode="spec")
        assert engine.mode == "spec"
        assert not engine.table.complete

    def test_unknown_mode(self):
        with pytest.raises(EngineError):
            GapEngine(["//id"], mode="quantum")

    def test_unsupported_grammar_object(self):
        with pytest.raises(EngineError):
            GapEngine(["//id"], grammar=42)

    def test_learning_rejected_with_complete_grammar(self):
        engine = GapEngine(["//id"], grammar=FEED_DTD)
        with pytest.raises(EngineError):
            engine.learn(FEED_XML)

    def test_n_subqueries_exposed(self):
        engine = SequentialEngine(["/feed/entry[title]/id", "//id"])
        assert engine.n_subqueries == 4


class TestQueryResult:
    def test_matches_keyed_by_query_string(self):
        res = SequentialEngine(["//id", "//title"]).run(FEED_XML)
        assert set(res.matches) == {"//id", "//title"}
        assert res.count("//id") == 2
        assert res.count(0) == 2
        assert res.total_matches == 4

    def test_no_match_query_present_with_empty_list(self):
        res = SequentialEngine(["//zzz"]).run(FEED_XML)
        assert res.matches == {"//zzz": []}

    def test_stats_available(self):
        res = GapEngine(["//id"], grammar=FEED_DTD).run(FEED_XML, n_chunks=3)
        assert res.stats.n_chunks >= 2
        assert res.stats.counters.total_tokens > 0


class TestTableCaching:
    def test_table_is_cached(self):
        engine = GapEngine(["//id"], grammar=FEED_DTD)
        assert engine.table is engine.table

    def test_learn_invalidates_table(self):
        engine = GapEngine(["//id"])
        t0 = engine.table
        engine.learn(FEED_XML)
        assert engine.table is not t0


class TestConvenience:
    def test_query_one_shot(self):
        res = query(FEED_XML, ["/feed/entry/id"], grammar=FEED_DTD)
        assert len(res["/feed/entry/id"]) == 1

    def test_element_at(self):
        offsets = query(FEED_XML, ["/feed/id"], grammar=FEED_DTD)["/feed/id"]
        tag, text = element_at(FEED_XML, offsets[0])
        assert tag == "id"
        assert text == "feed-id"

    def test_element_at_nested(self):
        offsets = query(FEED_XML, ["/feed/entry"], grammar=FEED_DTD)["/feed/entry"]
        tag, text = element_at(FEED_XML, offsets[0])
        assert tag == "entry"
        assert text == ""  # entry has no direct text

    def test_element_at_bad_offset(self):
        with pytest.raises(ValueError):
            element_at(FEED_XML, 2)

    def test_element_at_non_ascii(self):
        doc = ("<feed><entry><title>Grüße, 東京</title></entry>"
               "<id>é-1</id></feed>")
        res = query(doc, ["/feed/entry/title", "/feed/id"], grammar=FEED_DTD)
        (title,) = res["/feed/entry/title"]
        (ident,) = res["/feed/id"]
        assert element_at(doc, title) == ("title", "Grüße, 東京")
        assert element_at(doc, ident) == ("id", "é-1")

    def test_element_at_lexes_only_near_the_element(self, monkeypatch):
        # decoding one match must not lex the rest of the document, or
        # printing N matches costs N passes over it
        from repro.xmlstream import lexer

        doc = ("<feed><id>x</id>"
               + "<entry><title>t</title></entry>" * 20000 + "</feed>")
        scanned: list[int] = []
        real_scan = lexer._scan

        def spy(text, i, *rest):
            stop = real_scan(text, i, *rest)
            scanned.append(stop - i)
            return stop

        monkeypatch.setattr(lexer, "_scan", spy)
        assert element_at(doc, 6) == ("id", "x")
        assert 0 < sum(scanned) < 1024


class TestSpecSampling:
    def test_sampled_grammar_engines_run(self):
        g = parse_dtd(FEED_DTD)
        for fraction in (0.25, 0.5, 0.75):
            partial = sample_partial_grammar(g, fraction, seed=1)
            engine = GapEngine(["//id"], grammar=partial)
            assert engine.mode == ("nonspec" if partial.is_complete() else "spec")
            res = engine.run(FEED_XML, n_chunks=4)
            assert res.matches["//id"] == SequentialEngine(["//id"]).run(FEED_XML).matches["//id"]


class TestIterMatches:
    def test_yields_decoded_matches(self):
        res = SequentialEngine(["//id", "//title"]).run(FEED_XML)
        rows = list(res.iter_matches(FEED_XML))
        assert len(rows) == res.total_matches
        queries = {q for q, *_ in rows}
        assert queries == {"//id", "//title"}
        id_texts = sorted(c for q, _o, t, c in rows if t == "id")
        assert id_texts == ["entry-id-2", "feed-id"]
