"""Unit tests for the streaming XML lexer."""

from __future__ import annotations

import pickle

import pytest

from repro.xmlstream import (
    LexError,
    Token,
    TokenKind,
    end_tag,
    iter_tag_offsets,
    lex,
    lex_range,
    start_tag,
    text_token,
)


def kinds(tokens):
    return [(t.kind, t.name) for t in tokens]


class TestBasicLexing:
    def test_single_element(self):
        toks = list(lex("<a>hi</a>"))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.TEXT, "hi"),
            (TokenKind.END, "a"),
        ]

    def test_offsets_are_byte_positions(self):
        toks = list(lex("<a>hi</a>"))
        assert [t.offset for t in toks] == [0, 3, 5]

    def test_nested_elements(self):
        toks = list(lex("<a><b><c/></b></a>"))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.START, "b"),
            (TokenKind.START, "c"),
            (TokenKind.END, "c"),
            (TokenKind.END, "b"),
            (TokenKind.END, "a"),
        ]

    def test_empty_element_emits_start_and_end_at_same_offset(self):
        toks = list(lex("<a><b/></a>"))
        b_toks = [t for t in toks if t.name == "b"]
        assert len(b_toks) == 2
        assert b_toks[0].offset == b_toks[1].offset == 3

    def test_whitespace_only_text_is_skipped(self):
        toks = list(lex("<a>\n  <b>x</b>\n</a>"))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.START, "b"),
            (TokenKind.TEXT, "x"),
            (TokenKind.END, "b"),
            (TokenKind.END, "a"),
        ]

    def test_attributes_are_skipped(self):
        toks = list(lex('<a id="1" href="x>y"><b a=\'2\'/></a>'))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.START, "b"),
            (TokenKind.END, "b"),
            (TokenKind.END, "a"),
        ]

    def test_empty_element_with_attributes(self):
        toks = list(lex('<a x="1"/>'))
        assert kinds(toks) == [(TokenKind.START, "a"), (TokenKind.END, "a")]


class TestProlog:
    def test_xml_declaration_and_doctype(self):
        text = '<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>'
        toks = list(lex(text))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.TEXT, "x"),
            (TokenKind.END, "a"),
        ]

    def test_comments_skipped(self):
        toks = list(lex("<a><!-- <b>not real</b> -->x</a>"))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.TEXT, "x"),
            (TokenKind.END, "a"),
        ]

    def test_cdata_skipped(self):
        toks = list(lex("<a><![CDATA[<b>raw</b>]]>y</a>"))
        names = [t.name for t in toks if t.kind == TokenKind.START]
        assert names == ["a"]

    def test_processing_instruction_skipped(self):
        toks = list(lex("<a><?php echo '<b>'; ?>z</a>"))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.TEXT, "z"),
            (TokenKind.END, "a"),
        ]


class TestErrors:
    def test_unterminated_start_tag(self):
        with pytest.raises(LexError):
            list(lex("<a"))

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            list(lex("<a><!-- oops</a>"))

    def test_unterminated_end_tag(self):
        with pytest.raises(LexError):
            list(lex("<a>x</a"))

    def test_empty_tag_name(self):
        with pytest.raises(LexError):
            list(lex("<>x</>"))

    def test_unterminated_attribute(self):
        with pytest.raises(LexError):
            list(lex('<a x="1><b/></a>'))

    def test_error_carries_offset(self):
        with pytest.raises(LexError) as exc:
            list(lex("<a>text<"))
        assert exc.value.offset == 7


class TestLexRange:
    DOC = "<a><b>one</b><c>two</c><d/></a>"

    def test_full_range_equals_lex(self):
        assert list(lex(self.DOC)) == list(lex_range(self.DOC, 0, len(self.DOC)))

    def test_chunked_streams_partition_token_stream(self):
        # every split at a tag boundary must partition the stream exactly
        offsets = list(iter_tag_offsets(self.DOC))
        full = list(lex(self.DOC))
        for boundary in offsets[1:]:
            left = list(lex_range(self.DOC, 0, boundary))
            right = list(lex_range(self.DOC, boundary, len(self.DOC)))
            assert left + right == full, f"split at {boundary}"

    def test_token_beginning_before_end_is_complete(self):
        # chunk boundary in the middle of a tag's span: tag belongs to
        # the chunk where it begins and is lexed in full
        doc = "<aaa>x</aaa>"
        toks = list(lex_range(doc, 0, 2))  # ends inside <aaa>
        assert kinds(toks) == [(TokenKind.START, "aaa")]


class TestIterTagOffsets:
    def test_yields_tag_positions_only(self):
        doc = "<a><!-- < --><b>x</b></a>"
        offsets = list(iter_tag_offsets(doc))
        assert offsets == [0, 13, 17, 21]
        assert all(doc[o] == "<" for o in offsets)

    def test_skips_doctype_and_pi(self):
        doc = "<?xml?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>"
        offsets = list(iter_tag_offsets(doc))
        assert [doc[o : o + 2] for o in offsets] == ["<a", "</"]


class TestTokenHelpers:
    def test_constructors(self):
        assert start_tag("x", 5) == Token(TokenKind.START, "x", 5)
        assert end_tag("x").is_end
        assert text_token("hi").is_text

    def test_predicates_are_exclusive(self):
        t = start_tag("x")
        assert t.is_start and not t.is_end and not t.is_text


class TestTokenContract:
    """A token is the tuple ``(kind, name, offset)`` with field names."""

    def test_fields_are_read_only(self):
        t = start_tag("x", 5)
        for field in ("kind", "name", "offset"):
            with pytest.raises(AttributeError):
                setattr(t, field, None)
        with pytest.raises(AttributeError):
            t.extra = 1

    def test_equality_and_hash_follow_the_fields(self):
        t = Token(TokenKind.END, "x", 5)
        assert t == end_tag("x", 5) == (TokenKind.END, "x", 5)
        assert hash(t) == hash(end_tag("x", 5)) == hash((TokenKind.END, "x", 5))
        assert t != start_tag("x", 5)
        assert t != end_tag("y", 5)
        assert t != end_tag("x", 6)
        assert len({t, end_tag("x", 5), start_tag("x", 5)}) == 2

    def test_pickle_round_trip_is_exact(self):
        tokens = list(lex("<a k='v'><b/>tëxt</a>"))
        back = pickle.loads(pickle.dumps(tokens))
        assert back == tokens
        for got, want in zip(back, tokens):
            assert type(got) is Token
            assert type(got.kind) is TokenKind
            assert (got.kind, got.name, got.offset) == (want.kind, want.name, want.offset)

    def test_predicates_and_str(self):
        s, e, t = start_tag("a", 0), end_tag("a", 9), text_token("hi", 3)
        assert [(x.is_start, x.is_end, x.is_text) for x in (s, e, t)] == [
            (True, False, False), (False, True, False), (False, False, True)]
        assert [str(x) for x in (s, e, t)] == ["<a>@0", "</a>@9", "text('hi')@3"]

    def test_lexer_builds_tokens(self):
        tokens = list(lex("<a>hi</a>"))
        assert all(type(t) is Token for t in tokens)
        assert tokens == [(TokenKind.START, "a", 0), (TokenKind.TEXT, "hi", 3),
                          (TokenKind.END, "a", 5)]
