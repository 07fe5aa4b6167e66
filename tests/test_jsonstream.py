"""Tests for the JSON substrate: tokenizer, schema lowering, querying."""

from __future__ import annotations

import json

import pytest

from repro import GapEngine, PPTransducerEngine, SequentialEngine
from repro.jsonstream import (
    JSONError,
    JSONSchemaError,
    json_schema_to_grammar,
    json_value_at,
    query_json,
    tokenize_json,
)
from repro.xmlstream import TokenKind, check_well_formed


DOC = (
    '{"feed": {"entry": [{"id": 1, "title": "a"}, {"title": "b"},'
    ' {"id": 3, "tags": ["x", "y"]}], "id": 99}}'
)

SCHEMA = {
    "type": "object",
    "properties": {
        "feed": {
            "type": "object",
            "properties": {
                "entry": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "id": {"type": "integer"},
                            "title": {"type": "string"},
                            "tags": {"type": "array", "items": {"type": "string"}},
                        },
                    },
                },
                "id": {"type": "integer"},
            },
        }
    },
}


class TestTokenizer:
    def test_structure_is_well_formed(self):
        tokens = tokenize_json(DOC)
        assert check_well_formed(tokens) > 0

    def test_virtual_root(self):
        tokens = tokenize_json('{"a": 1}', root_name="doc")
        assert tokens[0].kind == TokenKind.START and tokens[0].name == "doc"
        assert tokens[-1].kind == TokenKind.END and tokens[-1].name == "doc"

    def test_array_flattening(self):
        tokens = tokenize_json('{"k": [1, 2, 3]}')
        starts = [t for t in tokens if t.is_start and t.name == "k"]
        assert len(starts) == 3

    def test_empty_array_emits_nothing(self):
        tokens = tokenize_json('{"k": []}')
        assert [t.name for t in tokens] == ["json", "json"]

    def test_nested_arrays_flatten_under_same_name(self):
        # nested arrays flatten completely: only the leaf values wrap
        tokens = tokenize_json('{"k": [[1, 2], [3]]}')
        starts = [t for t in tokens if t.is_start and t.name == "k"]
        assert len(starts) == 3

    def test_scalars_become_text(self):
        tokens = tokenize_json('{"a": "str", "b": 1.5e2, "c": true, "d": false, "e": null}')
        texts = [t.name for t in tokens if t.is_text]
        assert texts == ["str", "1.5e2", "true", "false"]  # null has no text

    def test_string_escapes(self):
        tokens = tokenize_json('{"a": "x\\n\\"y\\" \\u00e9"}')
        (text,) = [t for t in tokens if t.is_text]
        assert text.name == 'x\n"y" é'

    def test_offsets_strictly_increasing(self):
        tokens = tokenize_json(DOC)
        offsets = [t.offset for t in tokens]
        assert all(b > a for a, b in zip(offsets, offsets[1:]))

    def test_member_offset_is_key_quote(self):
        doc = '{"alpha": 5}'
        tokens = tokenize_json(doc)
        start = next(t for t in tokens if t.is_start and t.name == "alpha")
        assert doc[start.offset] == '"'

    def test_scalar_root(self):
        tokens = tokenize_json("42")
        assert [t.name for t in tokens] == ["json", "42", "json"]

    def test_array_root(self):
        tokens = tokenize_json('[{"a": 1}, {"a": 2}]')
        # items wrap under the root name
        assert sum(1 for t in tokens if t.is_start and t.name == "json") == 3

    @pytest.mark.parametrize(
        "bad",
        [
            '{"a": }',
            '{"a" 1}',
            '{"a": 1,}',
            '[1, 2',
            '{"a": "unterminated}',
            '{"a": 1} trailing',
            '{"bad key!": 1}',
            '{"a": nul}',
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(JSONError):
            tokenize_json(bad)


class TestJsonValueAt:
    def test_member_values(self):
        res = query_json(DOC, ["/json/feed/entry/id"], schema=SCHEMA)
        values = [json_value_at(DOC, o) for o in res["/json/feed/entry/id"]]
        assert values == ["1", "3"]

    def test_object_value(self):
        res = query_json(DOC, ["/json/feed"], schema=SCHEMA)
        (off,) = res["/json/feed"]
        assert json_value_at(DOC, off).startswith('{"entry"')

    def test_array_item_value(self):
        res = query_json(DOC, ["//tags"], schema=SCHEMA)
        values = [json_value_at(DOC, o) for o in res["//tags"]]
        assert values == ['"x"', '"y"']

    def test_non_ascii_values(self):
        doc = '{"feed": {"entry": [{"id": "é\\u00e9", "title": "東京 ✓"}]}}'
        res = query_json(doc, ["//id", "//title"])
        assert [json_value_at(doc, o) for o in res["//id"]] == ['"é\\u00e9"']
        assert [json_value_at(doc, o) for o in res["//title"]] == ['"東京 ✓"']


class TestSchemaLowering:
    def test_structure(self):
        g = json_schema_to_grammar(SCHEMA)
        assert g.root == "json"
        assert g.children_of("json") == frozenset({"feed"})
        assert g.children_of("feed") == frozenset({"entry", "id"})
        assert g.children_of("entry") == frozenset({"id", "title", "tags"})
        assert g.allows_pcdata("id")
        assert g.is_complete()

    def test_schema_text_input(self):
        g = json_schema_to_grammar(json.dumps(SCHEMA))
        assert g.children_of("feed") == frozenset({"entry", "id"})

    def test_refs_and_defs(self):
        schema = {
            "$defs": {"Person": {"type": "object", "properties": {"name": {"type": "string"}}}},
            "type": "object",
            "properties": {"owner": {"$ref": "#/$defs/Person"}},
        }
        g = json_schema_to_grammar(schema)
        assert g.children_of("owner") == frozenset({"name"})

    def test_recursive_schema(self):
        schema = {
            "$defs": {
                "Node": {
                    "type": "object",
                    "properties": {
                        "label": {"type": "string"},
                        "kids": {"type": "array", "items": {"$ref": "#/$defs/Node"}},
                    },
                }
            },
            "type": "object",
            "properties": {"tree": {"$ref": "#/$defs/Node"}},
        }
        g = json_schema_to_grammar(schema)
        assert "kids" in g.children_of("kids") or "kids" in g.children_of("tree")
        from repro.grammar import build_syntax_tree

        tree = build_syntax_tree(g)  # cycles handled
        assert tree.n_cycles() >= 1

    def test_oneof_merges(self):
        schema = {
            "oneOf": [
                {"type": "object", "properties": {"a": {"type": "string"}}},
                {"type": "object", "properties": {"b": {"type": "string"}}},
            ]
        }
        g = json_schema_to_grammar(schema)
        assert g.children_of("json") == frozenset({"a", "b"})

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "object", "properties": {"a": {}}, "additionalProperties": True},
            {"type": "object", "patternProperties": {"^x": {}}},
            {"$ref": "http://example.com/remote"},
            {"$ref": "#/$defs/missing"},
            {"type": "object", "properties": {"bad key": {}}},
        ],
    )
    def test_unsupported(self, schema):
        with pytest.raises(JSONSchemaError):
            json_schema_to_grammar(schema)


class TestJsonQuerying:
    QUERIES = [
        "/json/feed/entry/id",
        "/json/feed/id",
        "//id",
        "/json/feed/entry[title]/id",
        "/json/feed/entry[not(id)]/title",
    ]

    def test_engines_agree(self):
        tokens = tokenize_json(DOC)
        seq = SequentialEngine(self.QUERIES).run_tokens(tokens)
        pp = PPTransducerEngine(self.QUERIES).run_tokens(tokens, n_chunks=4)
        grammar = json_schema_to_grammar(SCHEMA)
        gap = GapEngine(self.QUERIES, grammar=grammar).run_tokens(tokens, n_chunks=4)
        assert seq.offsets_by_id == pp.offsets_by_id == gap.offsets_by_id
        assert seq.count("//id") == 3

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 5, 9])
    def test_chunk_counts(self, n_chunks):
        tokens = tokenize_json(DOC)
        grammar = json_schema_to_grammar(SCHEMA)
        seq = SequentialEngine(self.QUERIES).run_tokens(tokens)
        gap = GapEngine(self.QUERIES, grammar=grammar).run_tokens(tokens, n_chunks=n_chunks)
        assert gap.offsets_by_id == seq.offsets_by_id

    def test_speculative_learning_from_json(self):
        prior = '{"feed": {"entry": [{"id": 7, "title": "t"}], "id": 1}}'
        engine = GapEngine(["/json/feed/entry/id"])
        engine.learn_tokens(tokenize_json(prior))
        tokens = tokenize_json(DOC)
        res = engine.run_tokens(tokens, n_chunks=4)
        seq = SequentialEngine(["/json/feed/entry/id"]).run_tokens(tokens)
        assert res.offsets_by_id == seq.offsets_by_id

    def test_gap_reduces_paths_on_json(self):
        big = json.dumps(
            {"feed": {"entry": [{"id": i, "title": f"t{i}"} for i in range(300)], "id": 0}}
        )
        tokens = tokenize_json(big)
        grammar = json_schema_to_grammar(SCHEMA)
        gap = GapEngine(self.QUERIES, grammar=grammar).run_tokens(tokens, n_chunks=8)
        pp = PPTransducerEngine(self.QUERIES).run_tokens(tokens, n_chunks=8)
        assert gap.offsets_by_id == pp.offsets_by_id
        assert gap.stats.avg_starting_paths < pp.stats.avg_starting_paths / 2

    def test_rejects_decreasing_tokens(self):
        from repro.xmlstream import end_tag, start_tag

        bad = [start_tag("a", 5), start_tag("b", 3), end_tag("b", 7), end_tag("a", 9)]
        with pytest.raises(ValueError, match="non-decreasing"):
            PPTransducerEngine(["//b"]).run_tokens(bad, n_chunks=2)

    def test_scalar_array_items_chunk_correctly(self):
        # scalar items tie START/TEXT offsets; chunk boundaries must
        # not split such pairs
        doc = json.dumps({"k": list(range(50))})
        tokens = tokenize_json(doc)
        seq = SequentialEngine(["//k"]).run_tokens(tokens)
        for n_chunks in (2, 3, 7, 13):
            pp = PPTransducerEngine(["//k"]).run_tokens(tokens, n_chunks=n_chunks)
            assert pp.offsets_by_id == seq.offsets_by_id, n_chunks
        assert seq.count("//k") == 50
