"""JSON → token stream: querying JSON with the same transducers.

The paper's scope is *semi-structured data*: "Semi-structured data,
like XML and JSON, is widely used ..." (Section 1), with JSON Schema
called out as the grammar mechanism (reference [15]).  This module
maps JSON documents onto the exact token vocabulary the pushdown
transducers consume, so every engine — sequential, PP-Transducer,
GAP, speculative GAP with learned grammars — queries JSON unchanged:

* an object member ``"k": value`` becomes ``START(k) … END(k)``;
* an array member ``"k": [v1, v2]`` flattens to one ``START(k)/END(k)``
  pair *per item* (the standard JSON↔XML correspondence: repetition is
  expressed by the member repeating, matching DTD ``k*``).  Nested
  arrays flatten under the same name;
* scalars become TEXT; the whole document is wrapped in a virtual root
  element (default name ``json``), since JSON has no document element.

Offsets are code-point positions into the JSON text: a member's START
sits on its key's opening quote, an array item's START on the item's
first character — unique among STARTs and document-ordered, so match
identity and the filter phase's interval logic carry over.  END tokens
use the position *one past* the value.  Offsets are non-decreasing;
the only ties are a wrapper START with its own scalar TEXT (bare
scalar array items / roots), which the token-mode pipeline's boundary
placement accounts for.

So that XPath queries can name members, keys must be query-compatible
names (:func:`repro.xpath.parser.is_name`: a letter of any script or
``_``, then letters, digits, combining marks, ``_``, ``.``, ``-`` or
``·``); a document with other keys raises
:class:`JSONError` (mapping arbitrary keys is an escaping policy, out
of scope).
"""

from __future__ import annotations

import json
import re

from ..xmlstream.tokens import TokenColumns
from .incremental import DEFAULT_ROOT, IncrementalJSONTokenizer, JSONError

__all__ = ["JSONError", "tokenize_json", "json_value_at", "DEFAULT_ROOT"]

_WS_RE = re.compile(r"[ \t\r\n]*")
_DECODER = json.JSONDecoder()


def tokenize_json(text: str, root_name: str = DEFAULT_ROOT) -> TokenColumns:
    """Tokenise a JSON document (see module docstring for the mapping).

    The incremental tokenizer fed the whole text in one piece; the
    result is the columns every engine reads.
    """
    tokenizer = IncrementalJSONTokenizer(root_name)
    tokens = tokenizer.feed(text)
    tokens.extend(tokenizer.close())
    return tokens


def json_value_at(text: str, offset: int, max_len: int = 200) -> str:
    """Decode the raw JSON value at a match offset.

    ``offset`` is a match position as reported by the engines: either a
    member's key quote or an array item's first character.  Returns the
    value's source text (truncated to ``max_len``).
    """
    i = _WS_RE.match(text, offset).end()
    _, end = _DECODER.raw_decode(text, i)
    if text[i] == '"':
        # a key (followed by ':') or a string item
        colon = _WS_RE.match(text, end).end()
        if text.startswith(":", colon):
            i = _WS_RE.match(text, colon + 1).end()
            _, end = _DECODER.raw_decode(text, i)
    return text[i:end][:max_len]
