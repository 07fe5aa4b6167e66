"""Additional coverage: incremental decoder helpers and result plumbing."""

from __future__ import annotations

import pytest

from repro import PPTransducerEngine, SequentialEngine
from repro.core.engine import _EngineBase
from repro.jsonstream import tokenize_json
from repro.xmlstream import lex_range


class TestTokenDecoder:
    def test_decodes_direct_text_only(self):
        doc = "<a>outer<b>inner</b>more</a>"
        tokens = lex_range(doc, 0, len(doc))
        decode = _EngineBase._token_decoder(tokens)
        assert decode(0) == "outermore"  # <a>: direct text, not <b>'s

    def test_decodes_json_member(self):
        doc = '{"k": {"v": "x", "w": 5}}'
        tokens = tokenize_json(doc)
        decode = _EngineBase._token_decoder(tokens)
        v_start = next(t for t in tokens if t.is_start and t.name == "v")
        assert decode(v_start.offset) == "x"

    def test_unknown_offset_raises(self):
        tokens = lex_range("<a>x</a>", 0, 8)
        decode = _EngineBase._token_decoder(tokens)
        with pytest.raises(ValueError):
            decode(999)


class TestEngineReuse:
    def test_one_engine_many_documents(self):
        engine = SequentialEngine(["//id"])
        docs = [f"<r><id>{i}</id></r>" for i in range(5)]
        counts = [engine.run(d).total_matches for d in docs]
        assert counts == [1] * 5

    def test_parallel_engine_reuse_with_varying_chunks(self):
        engine = PPTransducerEngine(["//id"])
        doc = "<r>" + "<id>x</id>" * 20 + "</r>"
        expected = SequentialEngine(["//id"]).run(doc).offsets_by_id
        for n in (1, 3, 9):
            assert engine.run(doc, n_chunks=n).offsets_by_id == expected
