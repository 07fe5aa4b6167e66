"""Registered JSON documents run the exact-entry path.

A JSON document registered with the query service is tokenised once,
its columns cut into chunks (:func:`repro.xmlstream.chunking.split_tokens`,
the cut ``run_tokens`` makes) and each chunk's open-element path
recorded (:func:`repro.store.docprep.chunk_paths`), as for an XML
document.  Every request then runs ``GapEngine.run`` from those exact
entry configurations, and value predicates read element text from the
chunk columns.  These tests hold that path to the one-shot token path
(``GapEngine.run_tokens``) and to the DOM oracle:

* **answers** — over the JSON batteries (``test_jsonstream.py``,
  ``test_json_properties.py`` and the JSON value-predicate cases), at
  1, 2, 7 and 8 chunks, with a JSON Schema and without a grammar;
* **faults** — under a retry policy with ``chunk:1:raise`` injected;
* **the path taken** — one starting path per chunk, and neither the
  feasible-path inference nor the token pipeline runs.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given

import repro.core.engine as engine_module
from repro import GapEngine
from repro.jsonstream import json_schema_to_grammar, tokenize_json
from repro.parallel import RetryPolicy
from repro.service import QueryService, ServiceConfig
from repro.transducer.pipeline import ParallelPipeline
from repro.xpath import build_document, evaluate_offsets

import tests.test_jsonstream as jsonstream_battery
from tests.test_json_properties import _JSON, FAST

CHUNK_COUNTS = (1, 2, 7, 8)

SCHEMA = json.dumps(jsonstream_battery.SCHEMA)

#: (id, document, schema text or None, queries)
BATTERY = [
    ("feed", jsonstream_battery.DOC, SCHEMA,
     jsonstream_battery.TestJsonQuerying.QUERIES),
    ("feed-300", json.dumps(
        {"feed": {"entry": [{"id": i, "title": f"t{i}"} for i in range(300)],
                  "id": 0}}),
     SCHEMA, jsonstream_battery.TestJsonQuerying.QUERIES),
    ("scalar-items", json.dumps({"k": list(range(50))}), None, ["//k"]),
    # the JSON cases of test_value_predicates.py
    ("authors", json.dumps({"ar": [
        {"au": "Smith", "jn": "CACM"},
        {"au": "Jones", "jn": "TODS"},
        {"au": "Smith", "jn": "TODS"},
    ]}), None, ["/json/ar[au='Smith']/jn", "/json/ar[jn!='CACM']/au"]),
    ("numbers", json.dumps({"it": [{"n": 5, "v": "a"}, {"n": 7, "v": "b"}]}),
     None, ["/json/it[n='5']/v"]),
    ("authors-60", json.dumps(
        {"ar": [{"au": f"a{i % 3}", "jn": str(i)} for i in range(60)]}),
     None, ["/json/ar[au='a1']/jn", "//jn"]),
]

#: every battery document without a grammar, and under its schema if any
CASES = [(text, grammar, queries)
         for _, text, schema, queries in BATTERY
         for grammar in ((schema, None) if schema else (None,))]
CASE_IDS = [f"{name}-{'schema' if grammar else 'no-grammar'}"
            for name, _, schema, _ in BATTERY
            for grammar in ((schema, None) if schema else (None,))]

PROPERTY_QUERIES = ["//alpha", "/json/alpha/beta", "/json/*[gamma]/alpha",
                    "//beta//gamma", "//alpha[beta='x']"]


def oracle(text: str, queries) -> dict[str, list[int]]:
    doc = build_document(tokenize_json(text))
    return {q: evaluate_offsets(doc, q) for q in queries}


def one_shot(text: str, queries, grammar, n_chunks: int, **engine_kw):
    schema = json_schema_to_grammar(grammar) if grammar is not None else None
    with GapEngine(list(queries), grammar=schema, n_chunks=n_chunks,
                   **engine_kw) as engine:
        return engine.run_tokens(tokenize_json(text)).matches


def served(service: QueryService, text: str, queries, grammar, n_chunks: int):
    rec = service.register(text, grammar=grammar, n_chunks=n_chunks)
    try:
        return rec, service.query(rec.doc_id, list(queries))
    finally:
        service.registry.remove(rec.doc_id)


@pytest.fixture(scope="module")
def service():
    with QueryService(ServiceConfig(backend="serial", workers=1,
                                    collector=False)) as svc:
        yield svc


class TestAnswers:
    @pytest.mark.parametrize("n_chunks", CHUNK_COUNTS)
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_registered_equals_one_shot_and_oracle(self, service, case, n_chunks):
        text, grammar, queries = case
        expected = oracle(text, queries)
        assert one_shot(text, queries, grammar, n_chunks) == expected
        rec, response = served(service, text, queries, grammar, n_chunks)
        assert response["matches"] == expected
        assert response["stats"]["chunks"] == len(rec.chunks)

    @FAST
    @given(_JSON)
    def test_property_documents(self, service, value):
        text = json.dumps(value)
        expected = oracle(text, PROPERTY_QUERIES)
        for n_chunks in CHUNK_COUNTS:
            assert one_shot(text, PROPERTY_QUERIES, None, n_chunks) == expected
            _, response = served(service, text, PROPERTY_QUERIES, None, n_chunks)
            assert response["matches"] == expected, n_chunks

    def test_value_spanning_chunks(self, service):
        # an element whose rows run on into later chunks decodes whole
        text = json.dumps({"a": [{"b": {"c": i, "d": f"v{i}"}} for i in range(8)]})
        queries = ["/json/a[b/c='5']/b", "//b[d='v7']/c"]
        expected = oracle(text, queries)
        for n_chunks in CHUNK_COUNTS:
            _, response = served(service, text, queries, None, n_chunks)
            assert response["matches"] == expected, n_chunks


class TestFaults:
    @pytest.mark.parametrize("n_chunks", [2, 7, 8])
    @pytest.mark.parametrize("with_schema", [True, False],
                             ids=["schema", "no-grammar"])
    def test_injected_raise_is_retried(self, monkeypatch, with_schema, n_chunks):
        _, text, schema, queries = BATTERY[1]
        grammar = schema if with_schema else None
        expected = oracle(text, queries)
        monkeypatch.setenv("REPRO_FAULTS", "chunk:1:raise")
        assert one_shot(text, queries, grammar, n_chunks,
                        resilience=RetryPolicy()) == expected
        with QueryService(ServiceConfig(backend="serial", workers=1,
                                        collector=False, max_retries=2)) as svc:
            _, response = served(svc, text, queries, grammar, n_chunks)
        assert response["matches"] == expected
        assert response["stats"]["retries"] >= 1


class TestExactPath:
    @pytest.mark.parametrize("with_schema", [True, False],
                             ids=["schema", "no-grammar"])
    def test_one_starting_path_per_chunk(self, service, monkeypatch, with_schema):
        calls = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine_module, "infer_feasible_paths",
                            spy("infer", engine_module.infer_feasible_paths))
        monkeypatch.setattr(ParallelPipeline, "run_tokens",
                            spy("run_tokens", ParallelPipeline.run_tokens))
        _, text, schema, queries = BATTERY[1]
        grammar = schema if with_schema else None
        rec, response = served(service, text, queries, grammar, 8)
        assert len(rec.chunks) == 8 and len(rec.chunk_paths) == 8
        stats = response["stats"]
        assert stats["chunks"] == 8
        assert stats["avg_starting_paths"] == 1.0
        assert stats["switches"] == 0
        assert calls == []
        assert response["matches"] == oracle(text, queries)
