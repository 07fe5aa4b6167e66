"""Token columns: the lexer's storage, its views, and every consumer.

:class:`~repro.xmlstream.tokens.TokenColumns` replaced per-token tuples
as what the lexer, the registry cache, the token-cache codec, the
pipeline's worker context and the stream's seal buffer hold.  These
tests pin that the change is invisible through the views:

* ``lex_range`` at every cut position equals the reference lexer in
  ``tests/lexer_oracles.py``, including cuts inside comments, CDATA
  sections and quoted ``<``, and non-ASCII text;
* the incremental lexer, fed in random pieces, yields the rows of one
  batch scan and holds back exactly the unfinished tail;
* columns survive pickling and the codec;
* the kernel gives the same result on columns and on the equivalent
  Token list: matches, counters and journal;
* JSON is tokenised straight into columns: fed in random pieces it
  yields the columns of one batch scan, and no JSON path (tokenise,
  prepare with or without a store, register, run) converts a token
  list;
* error offsets count code points, as match offsets do.
"""

from __future__ import annotations

import pickle
import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GapEngine, PPTransducerEngine
from repro.core import DenseRunner
from repro import SequentialEngine
from repro.grammar import parse_dtd
from repro.jsonstream import IncrementalJSONTokenizer, JSONError, tokenize_json
from repro.obs.journal import Journal
from repro.datasets import ALL_DATASETS
from repro.service.registry import DocumentRegistry
from repro.store import ArtifactStore, codec, prepare_json
from repro.stream import StreamSession
from repro.xmlstream import (
    IncrementalLexer,
    LexError,
    Token,
    TokenColumns,
    TokenKind,
    as_columns,
    lex,
    lex_range,
    split_chunks,
)

from tests.conftest import FEED_DTD, FEED_XML, non_ascii, sealed_batch
from tests.lexer_oracles import oracle_lex, oracle_lex_range, oracle_tag_offsets
from tests.test_incremental import DOCS
from tests.test_json_incremental import DOCS as JSON_DOCS

#: cuts that land inside comments, CDATA sections, processing
#: instructions and quoted attribute values holding ``<`` and ``>``,
#: plus short elements, whitespace-only text and spaced or mismatched
#: end tags
ADVERSARIAL = [
    '<r><!-- <x> --><a t="<y>">1</a><![CDATA[</r>]]><?p <z>?><b/>text</r>',
    "<r><a>x</a ><b>y</c><c> </c><d> </d><e>é</e><f>1<g/>2</f></r>",
    "<r><a>one</a><a>one</a><b k='</a>'>two</b><a>one</a>tail</r>",
]


def _tag_starts(doc: str) -> list[int]:
    """Where a range may begin: 0 and every top-level tag offset."""
    return sorted({0, *oracle_tag_offsets(doc)})


class TestLexRangeAgainstOracle:
    @pytest.mark.parametrize("doc", DOCS + ADVERSARIAL)
    def test_every_start_and_end(self, doc):
        for start in _tag_starts(doc):
            for end in range(start, len(doc) + 1):
                got = lex_range(doc, start, end)
                assert type(got) is TokenColumns
                assert list(got) == list(oracle_lex_range(doc, start, end)), (start, end)

    @pytest.mark.parametrize("doc", DOCS + ADVERSARIAL)
    def test_every_cut_partitions_the_document(self, doc):
        whole = list(oracle_lex(doc))
        starts = _tag_starts(doc)
        for cut in range(len(doc) + 1):
            # the second range starts at the first tag the cut does not
            # fall inside of, as the split phase snaps cuts
            nxt = next((s for s in starts if s >= cut), len(doc))
            head = lex_range(doc, 0, nxt)
            head.extend(lex_range(doc, nxt, len(doc)))
            assert head == whole, cut

    def test_generated_documents(self, small_documents):
        for doc in small_documents.values():
            doc = non_ascii(doc)
            assert list(lex_range(doc, 0, len(doc))) == list(oracle_lex(doc))
            for c in split_chunks(doc, 7):
                assert list(lex_range(doc, c.begin, c.end)) == list(
                    oracle_lex_range(doc, c.begin, c.end))

    def test_views_are_tokens(self):
        [a, t, e] = lex_range("<a>hi</a>", 0, 9)
        assert (type(a), type(a.kind)) == (Token, TokenKind)
        assert [a, t, e] == [(TokenKind.START, "a", 0), (TokenKind.TEXT, "hi", 3),
                             (TokenKind.END, "a", 5)]

    def test_one_string_table_per_range(self):
        cols = lex_range("<a><b>x</b><b>x</b><b>y</b></a>", 0, 32)
        assert cols.names == ["a", "b", "x", "y"]
        assert list(cols.kinds) == [0, 0, 2, 1, 0, 2, 1, 0, 2, 1, 1]
        assert cols.name_ids.typecode == "i" and cols.offsets.typecode == "q"

    def test_lex_is_lazy(self):
        # lex yields views window by window: the first token arrives
        # before the malformed tail is reached
        doc = "<a>" + "<b>x</b>" * 2000 + "<"
        tokens = lex(doc)
        assert next(tokens) == (TokenKind.START, "a", 0)


def _feed_all(doc: str, cuts: list[int]) -> tuple[TokenColumns, list]:
    """Feed ``doc`` cut at ``cuts``; check hold-back after every piece."""
    batch = list(oracle_lex(doc))
    lexer = IncrementalLexer()
    merged = TokenColumns()
    edges = [0, *cuts, len(doc)]
    for lo, hi in zip(edges, edges[1:]):
        piece = lexer.feed(doc[lo:hi])
        assert type(piece) is TokenColumns
        merged.extend(piece)
        # everything before the held-back tail is out, nothing after it
        held_from = hi - lexer.buffered
        assert list(merged) == [t for t in batch if t.offset < held_from], hi
    merged.extend(lexer.close())
    return merged, batch


class TestIncrementalColumns:
    @pytest.mark.parametrize("doc", DOCS + ADVERSARIAL)
    def test_every_two_piece_split(self, doc):
        for i in range(len(doc) + 1):
            merged, batch = _feed_all(doc, [i] if 0 < i < len(doc) else [])
            assert merged == batch

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_random_pieces_equal_one_batch_scan(self, small_documents, data):
        name = data.draw(st.sampled_from(sorted(small_documents)))
        doc = non_ascii(small_documents[name])
        cuts = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=len(doc) - 1),
            min_size=1, max_size=24)))
        merged, batch = _feed_all(doc, cuts)
        whole = lex_range(doc, 0, len(doc))
        assert merged == whole == batch
        assert merged.kinds == whole.kinds and merged.offsets == whole.offsets

    def test_hold_back_at_unfinished_constructs(self):
        for doc, held in [("<a><!-- open", "<!-- open"), ("<a><b x='<", "<b x='<"),
                          ("<a>text", "text"), ("<a></a", "</a"),
                          ("<a><![CDATA[ x", "<![CDATA[ x")]:
            lexer = IncrementalLexer()
            out = lexer.feed(doc)
            assert list(out) == [(TokenKind.START, "a", 0)]
            assert lexer.buffered == len(held), doc


class TestColumnsTransport:
    DOC = non_ascii(FEED_XML)

    def _chunks(self):
        return tuple(lex_range(self.DOC, c.begin, c.end)
                     for c in split_chunks(self.DOC, 3))

    def test_pickle_round_trip(self):
        for cols in self._chunks():
            back = pickle.loads(pickle.dumps(cols))
            assert type(back) is TokenColumns
            assert back == cols and list(back) == list(cols)
            assert (back.kinds, back.name_ids, back.offsets, back.names) == (
                cols.kinds, cols.name_ids, cols.offsets, cols.names)

    def test_codec_round_trip(self):
        chunk_tokens = self._chunks()
        back = codec.decode_chunk_tokens(codec.encode_chunk_tokens(chunk_tokens))
        assert back == chunk_tokens
        for got, want in zip(back, chunk_tokens):
            assert type(got) is TokenColumns
            assert list(got) == list(want)
            assert got.name_ids.typecode == "i" and got.offsets.typecode == "q"
        flat = as_columns(lex(self.DOC))
        assert codec.decode_tokens(codec.encode_tokens(flat)) == flat

    def test_codec_rejects_out_of_range_rows(self):
        cols = lex_range("<a>x</a>", 0, 8)
        bad = TokenColumns(cols.kinds, array("i", [0, 1, 9]), cols.offsets,
                           cols.names)
        with pytest.raises(codec.CodecError):
            codec.decode_chunk_tokens(codec.encode_chunk_tokens([bad]))

    def test_thread_backend_runs_pre_lexed_columns(self):
        chunks = split_chunks(self.DOC, 3)
        chunk_tokens = self._chunks()
        grammar = parse_dtd(FEED_DTD)
        want = GapEngine(["//title", "//entry/id"], grammar=grammar).run(
            self.DOC, chunks=chunks)
        with GapEngine(["//title", "//entry/id"], grammar=grammar,
                       backend="thread") as engine:
            got = engine.run(self.DOC, chunks=chunks, chunk_tokens=chunk_tokens)
        assert got.matches == want.matches
        assert got.stats.counters.as_dict() == want.stats.counters.as_dict()

    def test_codec_rejects_a_repeated_string(self):
        """The kernel's symbol map reads the table's index, one id per
        string: a table that repeats a tag would hide every row that
        uses the other id."""
        cols = lex_range("<a>x</a>", 0, 8)
        bad = TokenColumns(cols.kinds, array("i", [0, 1, 2]), cols.offsets,
                           ["a", "x", "a"])
        with pytest.raises(codec.CodecError, match="repeats"):
            codec.decode_chunk_tokens(codec.encode_chunk_tokens([bad]))


class TestKernelOnColumnsAndLists:
    CASES = [
        (FEED_DTD, FEED_XML, ["//title", "/feed/entry/id", "//entry[id]"]),
        (FEED_DTD, non_ascii(FEED_XML), ["//title", "//*[title]"]),
    ]

    @pytest.mark.parametrize("dtd,xml,qs", CASES)
    @pytest.mark.parametrize("engine", ["gap", "pp", "speculative"])
    def test_same_result_journal_and_counters(self, dtd, xml, qs, engine):
        grammar = parse_dtd(dtd)
        if engine == "pp":
            eng = PPTransducerEngine(qs)
        elif engine == "speculative":
            eng = GapEngine(qs)
            eng.learner.observe_prefix(xml, 0.3)
        else:
            eng = GapEngine(qs, grammar=grammar)
        # PP keeps one pipeline; GAP builds one per run
        pipe = eng._pipeline if engine == "pp" else eng._pipeline()
        for n in (1, 2, 5):
            for c in split_chunks(xml, n):
                start = frozenset((eng.automaton.initial,)) if c.index == 0 else None
                cols = lex_range(xml, c.begin, c.end)
                results = []
                for tokens in (cols, list(cols)):
                    runner = pipe.chunk_runner()
                    assert type(runner) is DenseRunner
                    journal = Journal()
                    r = runner.run_chunk(tokens, c.index, c.begin, c.end,
                                         start_states=start, journal=journal)
                    results.append((r, [e.to_dict(timestamps=False)
                                        for e in journal.events]))
                (a, ja), (b, jb) = results
                assert a.counters.as_dict() == b.counters.as_dict()
                assert a.cohorts == b.cohorts
                assert ja == jb

    def test_slice_of_a_longer_table(self):
        # a chunk cut from document-wide columns (token mode, the
        # stream's seal buffer) shares a table far longer than itself
        xml = non_ascii(FEED_XML)
        eng = GapEngine(["//title", "//entry[id]"], grammar=parse_dtd(FEED_DTD))
        pipe = eng._pipeline()
        whole = lex_range(xml, 0, len(xml))
        for c in split_chunks(xml, 5):
            start = frozenset((eng.automaton.initial,)) if c.index == 0 else None
            own = lex_range(xml, c.begin, c.end)
            lo = whole.offsets.index(own.offsets[0])
            shared = whole[lo:lo + len(own)]
            assert shared.names is whole.names and len(shared.names) > len(own)
            a, b = (pipe.chunk_runner().run_chunk(t, c.index, c.begin, c.end,
                                                  start_states=start)
                    for t in (own, shared))
            assert a.counters.as_dict() == b.counters.as_dict()
            assert a.cohorts == b.cohorts


    @pytest.mark.parametrize("qs", [["//title", "/feed/entry/id"], ["//*"],
                                    ["/feed/nosuch"]])
    def test_symbol_map_covers_only_the_alphabet(self, qs):
        """The per-run symbol map equals mapping every string of the
        table, text runs included, on lexed, decoded and sliced columns."""
        xml = non_ascii(FEED_XML)
        eng = GapEngine(qs, grammar=parse_dtd(FEED_DTD))
        runner = eng._pipeline().chunk_runner()
        T = runner.tables

        def every_string(cols):
            return {k: T.sym_ids.get(cols.names[k], T.other_sym)
                    for k in set(cols.name_ids)}

        whole = lex_range(xml, 0, len(xml))
        texts = {whole.names[k] for k, kind in zip(whole.name_ids, whole.kinds)
                 if kind == TokenKind.TEXT}
        assert texts and len(whole.names) > len(T.sym_ids)
        decoded = codec.decode_chunk_tokens(codec.encode_chunk_tokens([whole]))[0]
        assert decoded._ids is None  # the index is built on first use
        half = len(whole) // 2
        for cols in (whole, decoded, whole[:half], whole[half:],
                     lex_range(xml, 0, xml.index("</entry>"))):
            symmap = runner._symbols(cols)
            assert {k: symmap[k] for k in set(cols.name_ids)} == every_string(cols)
            if len(cols.names) > len(cols):
                # a slice: only the ids it uses, not the whole table
                assert set(symmap) == set(cols.name_ids)
            else:
                assert len(symmap) == len(cols.names)
                assert symmap == [T.sym_ids.get(n, T.other_sym) for n in cols.names]


class TestRegisteredColumnsIndexTagsOnly:
    """A registered document's columns live as long as the document, so
    the index they keep holds its tag names, not its text runs."""

    XML = ("<feed><id>title</id><entry><title>id</title><id>7</id></entry>"
           "<entry><title>t\u00e9</title></entry><id>x y</id></feed>")
    QUERIES = [["//title", "/feed/entry/id"], ["//*"], ["//id"]]

    @staticmethod
    def tag_names(cols):
        return {cols.names[k] for k, kind in zip(cols.name_ids, cols.kinds)
                if kind != TokenKind.TEXT}

    @pytest.mark.parametrize("store", [False, True], ids=["lexed", "decoded"])
    def test_index_holds_start_end_names_and_symbols_are_unchanged(
            self, tmp_path, store):
        if store:  # a warm registration decodes the stored columns
            DocumentRegistry(store=ArtifactStore(str(tmp_path))).register(
                self.XML, n_chunks=3)
        registry = DocumentRegistry(
            store=ArtifactStore(str(tmp_path)) if store else None)
        record = registry.register(self.XML, n_chunks=3)
        assert len(record.chunk_tokens) == 3
        texts = set()
        for cols in record.chunk_tokens:
            texts |= {cols.names[k] for k, kind in zip(cols.name_ids, cols.kinds)
                      if kind == TokenKind.TEXT}
        assert {"title", "id", "7", "x y"} <= texts  # text runs, some tag-named
        for qs in self.QUERIES:
            runner = GapEngine(qs)._pipeline(exact=True).chunk_runner()
            for c, cols in zip(record.chunks, record.chunk_tokens):
                fresh = lex_range(self.XML, c.begin, c.end)
                symmap, want = runner._symbols(cols), runner._symbols(fresh)
                for k, kind in zip(cols.name_ids, cols.kinds):
                    if kind != TokenKind.TEXT:
                        assert symmap[k] == want[k]
                assert cols._ids is None
                assert set(cols.tag_ids()) == self.tag_names(cols)

    def test_service_requests_leave_only_the_tag_index(self):
        from repro.service import QueryService, ServiceConfig

        config = ServiceConfig(n_chunks=3, workers=1, collector=False)
        with QueryService(config) as svc:
            doc = svc.register(self.XML)
            for qs in self.QUERIES:
                response = svc.query(doc.doc_id, qs)
                for q in qs:
                    assert response["matches"][q] == \
                        SequentialEngine([q]).run(self.XML).matches[q]
            for cols in svc.registry.get(doc.doc_id).chunk_tokens:
                assert cols._ids is None
                assert set(cols.tag_ids()) == self.tag_names(cols)

    def test_building_columns_keep_the_full_index(self):
        cols = lex_range(self.XML, 0, len(self.XML))
        assert cols.tag_ids() is cols.ids()
        assert "x y" in cols.tag_ids()
        cols.index_tags_only()
        assert set(cols.tag_ids()) == self.tag_names(cols)
        # appending rows rebuilds the full index first
        cols.append(Token(TokenKind.TEXT, "x y", len(self.XML)))
        assert cols.names.count("x y") == 1
        assert cols.tag_ids() is cols.ids() and "x y" in cols.tag_ids()


class TestStreamSealBuffer:
    def test_one_large_piece_many_small_chunks(self):
        # one piece seals many chunks; the buffer's string table is
        # compacted once afterwards and stays near the buffered rows
        data = ALL_DATASETS["dblp"]
        doc = non_ascii(data.generate(scale=0.2, seed=7))
        queries = list(data.queries.values())[:2]
        session = StreamSession(queries, grammar=data.dtd, chunk_bytes=64)
        session.sealed_log = []
        session.feed(doc[: len(doc) - 10])
        assert session.chunks_sealed > 10
        buf = session._tokens
        assert len(buf.names) <= 2 * len(buf)
        session.feed(doc[len(doc) - 10 :])
        session.finalize()
        batch = sealed_batch(GapEngine(queries, grammar=data.dtd), doc, session)
        for q in queries:
            assert session.matches[q] == list(batch.matches[q])
        assert session.totals.as_dict() == batch.stats.counters.as_dict()


class TestJSONColumns:
    QUERIES = ["//entry/id", "/json/feed/entry[title = 'x']/id", "//東京"]
    DOC = ('{"feed": {"entry": [{"id": 1, "title": "x"}, {"id": 2, "title": "y"}],'
           ' "東京": ["é", "ü"]}}')

    @pytest.mark.parametrize("doc", JSON_DOCS)
    def test_random_pieces_equal_one_batch_scan(self, doc):
        batch = tokenize_json(doc)
        assert type(batch) is TokenColumns
        rng = random.Random(doc)
        for _ in range(8):
            cuts = sorted(rng.sample(range(1, len(doc)), min(len(doc) - 1, 5)))
            tok = IncrementalJSONTokenizer()
            merged = TokenColumns()
            for lo, hi in zip([0, *cuts], [*cuts, len(doc)]):
                piece = tok.feed(doc[lo:hi])
                assert type(piece) is TokenColumns
                merged.extend(piece)
            merged.extend(tok.close())
            assert merged == batch, cuts
            assert merged.kinds == batch.kinds and merged.offsets == batch.offsets

    def test_json_paths_never_convert_a_token_list(self, monkeypatch, tmp_path):
        def refuse(cls, tokens):
            raise AssertionError("a JSON path converted a token list")

        monkeypatch.setattr(TokenColumns, "from_tokens", classmethod(refuse))
        tokens = tokenize_json(self.DOC)
        assert type(tokens) is TokenColumns
        store = ArtifactStore(str(tmp_path / "store"))
        for prepared in (prepare_json(None, self.DOC),
                         prepare_json(store, self.DOC),   # cold: tokenise, put
                         prepare_json(store, self.DOC)):  # warm: decode
            assert prepared == tokens
        for registry in (DocumentRegistry(), DocumentRegistry(store=store)):
            rec = registry.register(self.DOC)
            assert [t for cols in rec.chunk_tokens for t in cols] == tokens
        gap = GapEngine(self.QUERIES).run_tokens(tokens, n_chunks=3)
        seq = SequentialEngine(self.QUERIES).run_tokens(tokens)
        assert gap.matches == seq.matches
        assert seq.count(self.QUERIES[1]) == 1 and seq.count("//東京") == 2

    def test_run_tokens_takes_columns(self):
        with pytest.raises(TypeError, match="TokenColumns"):
            SequentialEngine(["//a"]).run_tokens(list(tokenize_json('{"a": 1}')))


class TestOffsetsAreCodePoints:
    def test_lexer_and_json_errors_report_code_point_offsets(self):
        xml = "<été>東京 𝔛</été><!-- open"
        at = xml.index("<!--")
        assert len(xml[:at].encode("utf-8")) != at
        with pytest.raises(LexError, match=f"at offset {at}\\)") as exc:
            lex_range(xml, 0, len(xml))
        assert exc.value.offset == at
        doc = '{"été": "東京 𝔛", "a" 1}'
        at = doc.index("1")
        assert len(doc[:at].encode("utf-8")) != at
        with pytest.raises(JSONError, match=f"at offset {at}\\)") as exc:
            tokenize_json(doc)
        assert exc.value.offset == at
