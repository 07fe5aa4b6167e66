"""Tests for the incremental lexer and streaming evaluation.

The batteries compare against ``tests.lexer_oracles.oracle_lex`` — the
original batch lexer kept as an independent implementation — not
against :func:`repro.xmlstream.lex`, which shares the incremental
lexer's scanning loop.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SequentialEngine
from repro.xmlstream import IncrementalLexer, LexError, lex

from tests.conftest import FEED_XML
from tests.lexer_oracles import oracle_lex


def stream_lex(text: str, piece_size: int) -> list:
    lexer = IncrementalLexer()
    out = []
    for i in range(0, len(text), piece_size):
        out.extend(lexer.feed(text[i : i + piece_size]))
    out.extend(lexer.close())
    return out


DOCS = [
    FEED_XML,
    "<a>text with spaces<b/>more</a>",
    '<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>',
    "<a><!-- a comment --><![CDATA[<raw>]]><b x=\"v>v\">t</b></a>",
    "<a><b></b><c>one two</c></a>",
    # non-ASCII: code points and UTF-8 bytes differ from here on
    "<café><naïve>Grüße, 東京</naïve><ñ x='→'/>ε</café>",
    '<ä><b é="a>ü" z=\'>\'>Ωmega</b><!-- ☃ --><![CDATA[<λ>]]>日本</ä>',
]


BAD_DOCS = [
    "<a>x</a",
    "<a><!-- never finished",
    "<a><![CDATA[ open",
    "<a><?pi open",
    '<a x="é>',
    "<a/",
    "<é>text<",
    "<>x</>",
    "<a></ >",
    "<!DOCTYPE a [ <!ELEMENT a ANY> ",
]


class TestEquivalenceWithBatchLexer:
    @pytest.mark.parametrize("doc", DOCS)
    def test_batch_lex_equals_oracle(self, doc):
        assert list(lex(doc)) == list(oracle_lex(doc))

    def test_batch_lex_equals_oracle_generated(self, small_documents):
        for doc in small_documents.values():
            assert list(lex(doc)) == list(oracle_lex(doc))

    @pytest.mark.parametrize("doc", DOCS)
    @pytest.mark.parametrize("piece", [1, 2, 3, 5, 7, 100])
    def test_every_piece_size(self, doc, piece):
        assert stream_lex(doc, piece) == list(oracle_lex(doc))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=len(DOCS) - 1))
    def test_random_piece_sizes(self, piece, doc_idx):
        doc = DOCS[doc_idx]
        assert stream_lex(doc, piece) == list(oracle_lex(doc))


class TestByteSplitFuzz:
    """The byte-split battery: the incremental lexer must be oblivious
    to *where* the byte stream is cut — every possible 2-piece split of
    every corpus document, plus random multi-piece splits over the
    generated seed corpus, produce exactly the batch token stream."""

    @pytest.mark.parametrize("doc", DOCS)
    def test_every_byte_position(self, doc):
        batch = list(oracle_lex(doc))
        for i in range(len(doc) + 1):
            lexer = IncrementalLexer()
            toks = lexer.feed(doc[:i])
            toks.extend(lexer.feed(doc[i:]))
            toks.extend(lexer.close())
            assert toks == batch, f"split at byte {i}"

    def test_every_byte_position_generated(self, small_documents):
        # the smallest generated dataset document, end to end: every
        # cut point crosses real markup (attributes, comments, text)
        doc = min(small_documents.values(), key=len)
        batch = list(oracle_lex(doc))
        for i in range(len(doc) + 1):
            lexer = IncrementalLexer()
            toks = lexer.feed(doc[:i])
            toks.extend(lexer.feed(doc[i:]))
            toks.extend(lexer.close())
            assert toks == batch, f"split at byte {i}"

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_random_multi_piece_splits(self, small_documents, data):
        name = data.draw(st.sampled_from(sorted(small_documents)))
        doc = small_documents[name]
        n_cuts = data.draw(st.integers(min_value=1, max_value=24))
        cuts = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=len(doc) - 1),
            min_size=n_cuts, max_size=n_cuts,
        )))
        edges = [0, *cuts, len(doc)]
        lexer = IncrementalLexer()
        toks = []
        for lo, hi in zip(edges, edges[1:]):
            toks.extend(lexer.feed(doc[lo:hi]))
        toks.extend(lexer.close())
        assert toks == list(oracle_lex(doc))


class TestBufferBehaviour:
    def test_buffer_stays_bounded(self):
        lexer = IncrementalLexer()
        doc = "<a>" + "<b>xx</b>" * 1000 + "</a>"
        high_water = 0
        for i in range(0, len(doc), 3):
            lexer.feed(doc[i : i + 3])
            high_water = max(high_water, lexer.buffered)
        lexer.close()
        # bounded by the largest single token, not the document
        assert high_water <= 16

    def test_text_straddling_many_pieces(self):
        doc = "<a>" + "y" * 50 + "</a>"
        toks = stream_lex(doc, 4)
        assert [t.name for t in toks] == ["a", "y" * 50, "a"]

    def test_offsets_are_global(self):
        doc = FEED_XML
        for t_stream, t_batch in zip(stream_lex(doc, 5), oracle_lex(doc)):
            assert t_stream.offset == t_batch.offset


class TestErrors:
    def test_close_inside_tag(self):
        lexer = IncrementalLexer()
        lexer.feed("<a>x</a")
        with pytest.raises(LexError):
            lexer.close()

    def test_close_inside_comment(self):
        lexer = IncrementalLexer()
        lexer.feed("<a><!-- never finished")
        with pytest.raises(LexError):
            lexer.close()

    def test_feed_after_close(self):
        lexer = IncrementalLexer()
        lexer.feed("<a>x</a>")
        lexer.close()
        with pytest.raises(ValueError):
            lexer.feed("<more/>")

    @pytest.mark.parametrize("doc", BAD_DOCS)
    def test_same_error_every_split(self, doc):
        with pytest.raises(LexError) as batch_exc:
            list(oracle_lex(doc))
        for i in range(len(doc) + 1):
            lexer = IncrementalLexer()
            with pytest.raises(LexError) as stream_exc:
                lexer.feed(doc[:i])
                lexer.feed(doc[i:])
                lexer.close()
            assert str(stream_exc.value) == str(batch_exc.value), \
                f"split at byte {i}"
            assert stream_exc.value.offset == batch_exc.value.offset

    def test_trailing_whitespace_ok(self):
        lexer = IncrementalLexer()
        toks = lexer.feed("<a>x</a>\n  ")
        assert lexer.close() == []
        assert [t.name for t in toks] == ["a", "x", "a"]


class TestStateRoundtrip:
    @pytest.mark.parametrize("doc", DOCS)
    def test_snapshot_between_any_pieces(self, doc):
        batch = list(oracle_lex(doc))
        for i in range(len(doc) + 1):
            lexer = IncrementalLexer()
            out = lexer.feed(doc[:i])
            resumed = IncrementalLexer.restore(lexer.state())
            out.extend(resumed.feed(doc[i:]))
            out.extend(resumed.close())
            assert out == batch, f"snapshot at byte {i}"

    def test_state_is_json_safe(self):
        lexer = IncrementalLexer()
        lexer.feed("<a><b x='é")
        state = lexer.state()
        assert json.loads(json.dumps(state)) == state
        assert sorted(state) == ["base", "buf", "closed"]


class TestRunStream:
    QUERIES = ["/feed/entry/id", "//title", "/feed/entry[id]/title"]

    @pytest.mark.parametrize("piece", [1, 4, 16, 1000])
    def test_matches_batch_run(self, piece):
        engine = SequentialEngine(self.QUERIES)
        batch = engine.run(FEED_XML)
        pieces = [FEED_XML[i : i + piece] for i in range(0, len(FEED_XML), piece)]
        stream = engine.run_stream(pieces)
        assert stream.offsets_by_id == batch.offsets_by_id

    def test_generator_input(self):
        engine = SequentialEngine(["//id"])

        def pieces():
            yield FEED_XML[:10]
            yield FEED_XML[10:]

        assert engine.run_stream(pieces()).total_matches == 2

    def test_counters_track_bytes(self):
        engine = SequentialEngine(["//id"])
        res = engine.run_stream([FEED_XML])
        assert res.stats.counters.bytes_lexed == len(FEED_XML)
