"""The incremental JSON tokenizer: batch equivalence under byte splits.

Mirrors the XML incremental-lexer battery: however the byte stream is
cut — every 2-piece split, random multi-piece splits, hypothesis-built
documents — ``IncrementalJSONTokenizer.feed()/close()`` must produce
exactly the token stream of ``tests.lexer_oracles.oracle_tokenize_json``
(the original recursive batch scanner, kept as an independent
implementation), with the same global offsets and the same error
messages at the same positions.  ``tokenize_json`` itself is the
incremental tokenizer fed once, so it is checked against the oracle
too.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.jsonstream import IncrementalJSONTokenizer, JSONError, tokenize_json

from tests.lexer_oracles import oracle_tokenize_json

DOCS = [
    '{"a": 1}',
    '{"feed": {"entry": [{"id": 1, "title": "x"}, {"title": "y"}]}}',
    '[1, 2.5, -3e2, true, false, null, "s"]',
    '{"esc": "a\\"b\\\\c\\u00e9\\n", "empty": {}, "list": []}',
    '  {  "ws" :\n\t[ 1 ,  2 ]  }  ',
    '{"deep": {"deep": {"deep": {"deep": [0]}}}}',
    '"just a scalar"',
    '-12.5e-3',
    'true',
    '{"num_edge": [0.5, 1e10, -0, 123456789012345678901234567890]}',
    # non-ASCII: raw characters beside \u escapes of the same text
    '{"name": "Zoë Ñandú", "city": "東京", "esc": "Zo\\u00eb \\u6771\\u4eac"}',
    '["π ≈ 3.14", "\\u03c0 raw π", {"k": "☃\\u2603☃"}, "é\\"é"]',
]

BAD_DOCS = [
    '{"a": }',
    '{"a" 1}',
    '[1, 2,]',
    '{"unterminated": "str',
    '[1 2]',
    '{"a": 1} trailing',
    'truex',
    '{"a": nul}',
    '-',
    '[',
    '{"é": 1}',
    '["naïve \\u00',
    '{"k": "ü\\',
    '"\\q"',
]


def stream_tokens(doc: str, edges: list[int]) -> list:
    tok = IncrementalJSONTokenizer()
    out = []
    for lo, hi in zip(edges, edges[1:]):
        out.extend(tok.feed(doc[lo:hi]))
    out.extend(tok.close())
    return out


class TestBatchEquivalence:
    @pytest.mark.parametrize("doc", DOCS)
    def test_every_byte_position(self, doc):
        batch = oracle_tokenize_json(doc)
        assert tokenize_json(doc) == batch
        for i in range(len(doc) + 1):
            assert stream_tokens(doc, [0, i, len(doc)]) == batch, \
                f"split at byte {i}"

    @pytest.mark.parametrize("doc", DOCS)
    @pytest.mark.parametrize("piece", [1, 2, 3, 7])
    def test_fixed_piece_sizes(self, doc, piece):
        edges = list(range(0, len(doc), piece)) + [len(doc)]
        assert stream_tokens(doc, edges) == oracle_tokenize_json(doc)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_random_multi_piece_splits(self, data):
        doc = data.draw(st.sampled_from(DOCS))
        if len(doc) > 2:
            cuts = sorted(data.draw(st.sets(
                st.integers(min_value=1, max_value=len(doc) - 1),
                min_size=1, max_size=min(10, len(doc) - 1))))
        else:
            cuts = []
        assert stream_tokens(doc, [0, *cuts, len(doc)]) == \
            oracle_tokenize_json(doc)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_hypothesis_documents(self, data):
        value = data.draw(st.recursive(
            st.none() | st.booleans()
            | st.integers(min_value=-10**6, max_value=10**6)
            | st.floats(allow_nan=False, allow_infinity=False, width=32)
            | st.text(
                st.characters(codec="utf-8", exclude_categories=("Cs",)),
                max_size=8),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(
                st.text(st.characters(min_codepoint=97, max_codepoint=122),
                        min_size=1, max_size=6),
                children, max_size=4),
            max_leaves=12,
        ))
        doc = json.dumps(value)
        piece = data.draw(st.integers(min_value=1, max_value=9))
        edges = list(range(0, len(doc), piece)) + [len(doc)]
        assert stream_tokens(doc, edges) == oracle_tokenize_json(doc)


class TestErrorParity:
    """Malformed input fails with the batch scanner's message + offset,
    no matter where the split fell."""

    @pytest.mark.parametrize("doc", BAD_DOCS)
    def test_same_error_every_split(self, doc):
        with pytest.raises(JSONError) as batch_exc:
            oracle_tokenize_json(doc)
        with pytest.raises(JSONError) as single_exc:
            tokenize_json(doc)
        assert str(single_exc.value) == str(batch_exc.value)
        for i in range(len(doc) + 1):
            with pytest.raises(JSONError) as stream_exc:
                stream_tokens(doc, [0, i, len(doc)])
            assert str(stream_exc.value) == str(batch_exc.value), \
                f"split at byte {i}"

    def test_feed_after_close(self):
        tok = IncrementalJSONTokenizer()
        tok.feed("{}")
        tok.close()
        with pytest.raises(ValueError):
            tok.feed("[]")


class TestBoundedBuffer:
    def test_buffer_bounded_by_largest_token(self):
        doc = json.dumps({"items": [{"k": "v" * 10} for _ in range(200)]})
        tok = IncrementalJSONTokenizer()
        high_water = 0
        for i in range(0, len(doc), 3):
            tok.feed(doc[i:i + 3])
            high_water = max(high_water, tok.buffered)
        tok.close()
        # holds at most one suspended scalar/key, never the document
        assert high_water <= 32

    def test_offsets_are_global(self):
        doc = DOCS[1]
        for ts, tb in zip(stream_tokens(doc, [0, 5, 9, len(doc)]),
                          oracle_tokenize_json(doc)):
            assert ts.offset == tb.offset


class TestStateRoundtrip:
    @pytest.mark.parametrize("doc", DOCS)
    def test_snapshot_between_any_pieces(self, doc):
        batch = oracle_tokenize_json(doc)
        for i in range(0, len(doc) + 1, 3):
            tok = IncrementalJSONTokenizer()
            out = tok.feed(doc[:i])
            resumed = IncrementalJSONTokenizer.restore(tok.state())
            out += resumed.feed(doc[i:])
            out += resumed.close()
            assert out == batch, f"snapshot at byte {i}"

    def test_state_is_json_safe(self):
        tok = IncrementalJSONTokenizer()
        tok.feed('{"a": [1, "par')
        state = tok.state()
        assert json.loads(json.dumps(state)) == state
