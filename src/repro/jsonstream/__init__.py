"""JSON substrate: querying JSON with the same pushdown transducers.

The paper frames its contribution around *semi-structured data* — XML
and JSON alike, with JSON Schema as JSON's grammar mechanism.  This
package maps JSON onto the engine stack:

* :mod:`~repro.jsonstream.tokenizer` — JSON text → the transducers'
  token stream (objects nest like elements, arrays flatten into
  repeated members, scalars become text);
* :mod:`~repro.jsonstream.schema` — JSON Schema → the same
  :class:`~repro.grammar.model.Grammar` DTDs and XSDs lower to, so
  feasible-path inference and both GAP modes apply unchanged.

Convenience entry point::

    from repro.jsonstream import query_json

    matches = query_json(text, ["/json/entry/id"], schema=schema_text)
"""

from ..core.engine import GapEngine
from .incremental import IncrementalJSONTokenizer
from .schema import JSONSchemaError, json_schema_to_grammar
from .tokenizer import DEFAULT_ROOT, JSONError, json_value_at, tokenize_json

__all__ = [
    "DEFAULT_ROOT",
    "IncrementalJSONTokenizer",
    "JSONError",
    "JSONSchemaError",
    "json_schema_to_grammar",
    "json_value_at",
    "query_json",
    "tokenize_json",
]


def query_json(
    text: str,
    queries: list[str],
    schema: dict | str | None = None,
    n_chunks: int = 4,
    root_name: str = DEFAULT_ROOT,
) -> dict[str, list[int]]:
    """One-shot JSON querying; queries address members under ``/<root_name>/…``.

    With a JSON Schema, GAP runs non-speculatively; without one it runs
    speculatively (learn priors via ``GapEngine.learn_tokens`` for the
    full workflow).  Returns query → offsets (decode values with
    :func:`json_value_at`).
    """
    grammar = json_schema_to_grammar(schema, root_name) if schema is not None else None
    engine = GapEngine(queries, grammar=grammar, n_chunks=n_chunks)
    tokens = tokenize_json(text, root_name)
    return engine.run_tokens(tokens).matches
