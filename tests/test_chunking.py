"""Unit tests for the split phase (chunk framing)."""

from __future__ import annotations

import pytest

from repro.datasets import ALL_DATASETS
from repro.xmlstream import LexError, lex, lex_range, split_at_offsets, split_chunks

from tests.conftest import non_ascii
from tests.lexer_oracles import oracle_split_chunks


DOC = "<a><b>one</b><c>two</c><d><e>deep</e></d></a>"


class TestSplitChunks:
    def test_single_chunk_covers_document(self):
        chunks = split_chunks(DOC, 1)
        assert len(chunks) == 1
        assert (chunks[0].begin, chunks[0].end) == (0, len(DOC))

    def test_chunks_are_contiguous_and_cover(self):
        for n in range(1, 10):
            chunks = split_chunks(DOC, n)
            assert chunks[0].begin == 0
            assert chunks[-1].end == len(DOC)
            for left, right in zip(chunks, chunks[1:]):
                assert left.end == right.begin

    def test_indices_are_sequential(self):
        chunks = split_chunks(DOC, 4)
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_boundaries_are_tag_starts(self):
        for n in range(2, 8):
            for c in split_chunks(DOC, n)[1:]:
                assert DOC[c.begin] == "<"

    def test_no_empty_chunks(self):
        for n in range(1, 20):
            for c in split_chunks(DOC, n):
                assert len(c) > 0

    def test_more_chunks_than_tags_collapses(self):
        doc = "<a>x</a>"
        chunks = split_chunks(doc, 50)
        assert 1 <= len(chunks) <= 2
        assert chunks[-1].end == len(doc)

    def test_token_streams_partition(self):
        full = list(lex(DOC))
        for n in range(1, 9):
            parts = []
            for c in split_chunks(DOC, n):
                parts.extend(lex_range(DOC, c.begin, c.end))
            assert parts == full, f"n={n}"

    def test_prolog_stays_in_first_chunk(self):
        doc = '<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>hello world</a>'
        chunks = split_chunks(doc, 3)
        assert chunks[0].begin == 0
        for c in chunks[1:]:
            assert doc[c.begin] == "<"
            assert not doc.startswith("<!", c.begin)
            assert not doc.startswith("<?", c.begin)

    def test_empty_document(self):
        assert split_chunks("", 4) == []

    def test_invalid_n_chunks(self):
        with pytest.raises(ValueError):
            split_chunks(DOC, 0)


class TestSplitAtOffsets:
    def test_explicit_boundaries(self):
        chunks = split_at_offsets(100, [10, 50])
        assert [(c.begin, c.end) for c in chunks] == [(0, 10), (10, 50), (50, 100)]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            split_at_offsets(100, [50, 10])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            split_at_offsets(100, [0])
        with pytest.raises(ValueError):
            split_at_offsets(100, [100])

    def test_no_boundaries(self):
        chunks = split_at_offsets(42, [])
        assert [(c.begin, c.end) for c in chunks] == [(0, 42)]


def outcome(split, text, n_chunks):
    """The chunk list, or the LexError's message and offset."""
    try:
        return split(text, n_chunks)
    except LexError as exc:
        return ("LexError", str(exc), exc.offset)


#: constructs whose inside holds '<' and '>' a split must not cut at
ADVERSARIAL = [
    "<!-- <a> -> </a> -- > -->",
    "<![CDATA[ <a> ]] > </a> ]]>",
    "<?pi <a> ? > </a> ?>",
    "<!DOCTYPE r [ <!ELEMENT r (a)*> <!-- <a> ] > --> <!ATTLIST a k CDATA '<>'> ]>",
    "<a k=\"<b>\" j='</b> />' />",
    "<a k='>'  >x<b/></a>",
    "<a/>",
    "<a\n/>",
]

#: malformed documents, and whether a split of them raises: an
#: unterminated tag or processing instruction just runs to the end
MALFORMED = [
    ("<r><a>x</a><!-- unterminated <b></b></r>", True),
    ("<r><a>x</a><![CDATA[ unterminated <b></b></r>", True),
    ("<r><a>x</a><!DOCTYPE [ unterminated <b></b></r>", True),
    ("<r><a k='unterminated><b></b></r>", True),
    ("<r><a>x</a><b k=\"v></b><c/></r>", True),
    ("<r><!-- a --><!-- <b> -", True),
    ("<r>" + "<a>x</a>" * 20 + "<!-- unterminated", True),
    ("<r>" + "<a>x</a>" * 20 + "<a k='v>" + "<a>x</a>" * 20, True),
    ("<r><a>x</a><? unterminated <b></b></r>", False),
    ("<r><a>x</a></b unterminated", False),
    ("<r><a>x</a><b unterminated", False),
    ("<r><a>x</a><", False),
]

def placements(construct):
    """Documents whose two-chunk cut target falls on each character of
    ``construct`` in turn (and just past it)."""
    docs = {}
    for fill in range(2 * len(construct) + 16):
        for doc in (f"<r>{'x' * fill}{construct}<b/></r>",
                    f"<r>{construct}<b/>{'x' * fill}</r>"):
            at = len(doc) // 2 - doc.index(construct)
            if 0 <= at <= len(construct):
                docs.setdefault(at, doc)
    assert sorted(docs) == list(range(len(construct) + 1))
    return list(docs.values())


class TestSplitOracleBattery:
    """``split_chunks`` ≡ the tag-walking ``oracle_split_chunks``."""

    @pytest.mark.parametrize("name", sorted(ALL_DATASETS))
    def test_every_dataset_every_chunk_count(self, name, small_documents):
        text = small_documents[name]
        if name == "dblp":
            text = non_ascii(text)
            assert len(text.encode("utf-8")) > len(text)
        for n_chunks in range(1, 65):
            assert split_chunks(text, n_chunks) == oracle_split_chunks(
                text, n_chunks), n_chunks

    @pytest.mark.parametrize("construct", ADVERSARIAL)
    def test_cut_target_on_every_character(self, construct):
        for doc in placements(construct):
            assert outcome(split_chunks, doc, 2) == outcome(
                oracle_split_chunks, doc, 2), doc

    @pytest.mark.parametrize("construct", ADVERSARIAL)
    def test_adversarial_every_chunk_count(self, construct):
        doc = f"<r>{construct}<b>t</b>{construct}<c/>{construct}</r>"
        for n_chunks in range(1, len(doc) + 2):
            assert outcome(split_chunks, doc, n_chunks) == outcome(
                oracle_split_chunks, doc, n_chunks), n_chunks

    @pytest.mark.parametrize("doc, raises", MALFORMED)
    def test_malformed_raises_the_same_lex_error(self, doc, raises):
        raised = False
        for n_chunks in range(1, len(doc) + 2):
            got = outcome(split_chunks, doc, n_chunks)
            assert got == outcome(oracle_split_chunks, doc, n_chunks), n_chunks
            raised |= got[0] == "LexError"
        assert raised == raises
