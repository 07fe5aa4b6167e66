"""Tests for value predicates: ``[a = 'x']`` / ``[a != 'x']``."""

from __future__ import annotations

import json

import pytest

from repro import GapEngine, PPTransducerEngine, SequentialEngine
from repro.jsonstream import query_json, tokenize_json
from repro.xmlstream import lex
from repro.xpath import (
    XPathError,
    build_document,
    compile_query,
    evaluate_offsets,
    parse_xpath,
)
from repro.xpath.ast import PredCompare
from repro.xpath.rewrite import Term


XML = (
    "<dp>"
    "<ar><au>Smith</au><jn>CACM</jn></ar>"
    "<ar><au>Jones</au><jn>TODS</jn></ar>"
    "<ar><au>Smith</au><jn>TODS</jn></ar>"
    "<ar><au>Lee</au></ar>"
    "</dp>"
)
DTD = (
    "<!DOCTYPE dp [<!ELEMENT dp (ar*)> <!ELEMENT ar (au, jn?)>"
    " <!ELEMENT au (#PCDATA)> <!ELEMENT jn (#PCDATA)>]>"
)


class TestParsing:
    def test_equality(self):
        path = parse_xpath("/dp/ar[au='Smith']/jn")
        (pred,) = path.steps[1].predicates
        assert isinstance(pred, PredCompare)
        assert (pred.op, pred.literal) == ("=", "Smith")

    def test_inequality_and_double_quotes(self):
        path = parse_xpath('/dp/ar[jn != "CACM"]/au')
        (pred,) = path.steps[1].predicates
        assert (pred.op, pred.literal) == ("!=", "CACM")

    def test_round_trip(self):
        q = "/dp/ar[au = 'Smith']/jn"
        assert str(parse_xpath(q)) == q

    @pytest.mark.parametrize("bad", [
        "/a[b=]",             # missing literal
        "/a[b='x]",           # unterminated
        "/a[b=5]",            # unquoted
        "/a[.='x']/b",        # self comparison unsupported
        "/a[parent::b='x']",  # reverse axis on the left
    ])
    def test_rejected(self, bad):
        with pytest.raises(XPathError):
            compile_query(bad)


class TestRewriting:
    def test_term_carries_literal(self):
        cq = compile_query("/dp/ar[au='Smith']/jn")
        (alt,) = cq.alternatives
        term = alt.anchors[0].expr
        assert isinstance(term, Term)
        assert term.literal == "Smith" and not term.negate

    def test_negated_term(self):
        cq = compile_query("/dp/ar[au!='Smith']/jn")
        (alt,) = cq.alternatives
        assert alt.anchors[0].expr.negate


class TestEvaluation:
    QUERIES = [
        "/dp/ar[au='Smith']/jn",
        "/dp/ar[jn!='CACM']/au",
        "/dp/ar[au='Smith' and jn='TODS']/jn",
        "/dp/ar[not(au='Smith')]/au",
        "//ar[au='Lee']",
        "/dp/ar[au='Nobody']/jn",
    ]

    def test_oracle_agreement_all_engines(self):
        doc = build_document(lex(XML))
        for q in self.QUERIES:
            oracle = evaluate_offsets(doc, q)
            seq = SequentialEngine([q]).run(XML).matches[q]
            pp = PPTransducerEngine([q]).run(XML, n_chunks=4).matches[q]
            gap = GapEngine([q], grammar=DTD).run(XML, n_chunks=4).matches[q]
            assert oracle == seq == pp == gap, q

    def test_existential_inequality_semantics(self):
        # an ar with BOTH a matching and a non-matching au: != is existential
        xml = "<dp><ar><au>Smith</au><au>Jones</au><jn>X</jn></ar></dp>"
        q = "/dp/ar[au!='Smith']/jn"
        doc = build_document(lex(xml))
        seq = SequentialEngine([q]).run(xml)
        assert seq.matches[q] == evaluate_offsets(doc, q)
        assert len(seq.matches[q]) == 1  # Jones != Smith satisfies it

    def test_missing_child_never_matches(self):
        q = "/dp/ar[jn='TODS']/au"
        seq = SequentialEngine([q]).run(XML)
        # ar[Lee] has no jn at all: neither = nor != can hold for it
        assert len(seq.matches[q]) == 2

    def test_nested_same_name_depth_binding(self):
        # value predicate binds to the right instance under nesting
        xml = "<r><x><v>a</v><x><v>b</v><y>hit</y></x></x></r>"
        q = "//x[v='b']/y"
        doc = build_document(lex(xml))
        for engine in (SequentialEngine([q]), PPTransducerEngine([q])):
            res = engine.run(xml) if isinstance(engine, SequentialEngine) else engine.run(xml, n_chunks=3)
            assert res.matches[q] == evaluate_offsets(doc, q)

    def test_streaming_mode(self):
        q = "/dp/ar[au='Smith']/jn"
        engine = SequentialEngine([q])
        batch = engine.run(XML)
        pieces = [XML[i : i + 9] for i in range(0, len(XML), 9)]
        assert engine.run_stream(pieces).matches == batch.matches


class TestJsonValuePredicates:
    def test_query_json(self):
        data = json.dumps(
            {"ar": [
                {"au": "Smith", "jn": "CACM"},
                {"au": "Jones", "jn": "TODS"},
                {"au": "Smith", "jn": "TODS"},
            ]}
        )
        res = query_json(data, ["/json/ar[au='Smith']/jn", "/json/ar[jn!='CACM']/au"])
        assert len(res["/json/ar[au='Smith']/jn"]) == 2
        assert len(res["/json/ar[jn!='CACM']/au"]) == 2

    def test_numbers_compare_as_source_text(self):
        data = json.dumps({"it": [{"n": 5, "v": "a"}, {"n": 7, "v": "b"}]})
        res = query_json(data, ["/json/it[n='5']/v"])
        assert len(res["/json/it[n='5']/v"]) == 1

    def test_parallel_chunks(self):
        data = json.dumps({"ar": [{"au": f"a{i % 3}", "jn": str(i)} for i in range(60)]})
        tokens = tokenize_json(data)
        q = "/json/ar[au='a1']/jn"
        seq = SequentialEngine([q]).run_tokens(tokens)
        for n in (2, 5, 9):
            pp = PPTransducerEngine([q]).run_tokens(tokens, n_chunks=n)
            assert pp.offsets_by_id == seq.offsets_by_id
        assert seq.count(q) == 20



LONG = "x" * 250
LONG_XML = (f"<r><a><t>{LONG}</t></a><a><t>y</t></a></r>", f"/r/a[t = '{LONG}']")
LONG_JSON = (json.dumps({"a": [{"t": LONG}, {"t": "y"}]}), f"/json/a[t = '{LONG}']")


def _served(text: str, query: str) -> list[int]:
    from repro.service import QueryService, ServiceConfig

    with QueryService(ServiceConfig(backend="serial", n_chunks=2, workers=1,
                                    collector=False)) as svc:
        doc = svc.register(text)
        return svc.query(doc.doc_id, [query])["matches"][query]


class TestLongText:
    """``=`` compares an element's whole text, however long: decoding
    stops at the element's end, not at a display bound."""

    PATHS = {
        "sequential": (LONG_XML, lambda t, q: SequentialEngine([q]).run(t).matches[q]),
        "pp": (LONG_XML, lambda t, q: PPTransducerEngine([q]).run(t, n_chunks=2).matches[q]),
        "gap": (LONG_XML, lambda t, q: GapEngine([q]).run(t, n_chunks=2).matches[q]),
        "stream": (LONG_XML, lambda t, q: SequentialEngine([q]).run_stream(
            t[i:i + 16] for i in range(0, len(t), 16)).matches[q]),
        "registered-xml": (LONG_XML, _served),
        "registered-json": (LONG_JSON, _served),
    }

    @pytest.mark.parametrize("path", list(PATHS))
    def test_value_predicate_reads_whole_text(self, path):
        (text, query), run = self.PATHS[path]
        tokens = tokenize_json(text) if path.endswith("json") else lex(text)
        expected = evaluate_offsets(build_document(tokens), query)
        assert len(expected) == 1
        assert run(text, query) == expected
