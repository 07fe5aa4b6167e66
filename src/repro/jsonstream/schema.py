"""JSON Schema → Grammar: the grammar side of JSON querying.

The paper points at JSON Schema (its reference [15]) as JSON's
counterpart to DTD/XSD.  This module lowers the structural subset of
JSON Schema onto :class:`repro.grammar.model.Grammar`, consistent with
the token mapping of :mod:`repro.jsonstream.tokenizer`:

* object properties become child elements; since JSON member order is
  not significant, the content model is the loose
  ``(p1 | p2 | …)*`` star-of-choice (exactly what feasible-path
  inference needs: the child *sets*);
* ``array`` schemas flatten: the member's children come from the
  ``items`` schema (one element per item in the token stream);
* scalar types (string/number/integer/boolean/null) become ``#PCDATA``;
* local ``$ref`` into ``$defs``/``definitions`` is resolved, including
  recursive schemas (which lower to recursive grammars — the static
  syntax tree's cycle machinery handles them);
* ``oneOf``/``anyOf``/``allOf`` merge their alternatives' structure
  (a sound over-approximation for feasibility);
* ``additionalProperties``/``patternProperties`` and remote ``$ref``
  are rejected — they would make the child sets open-ended, silently
  breaking non-speculative soundness.

Same-named properties in different object contexts merge, like the DTD
model's global element declarations; the static syntax tree still
distinguishes contexts (one node per ancestor chain), so inference
keeps its precision where the structure differs.
"""

from __future__ import annotations

import json

from ..grammar.model import (
    Choice,
    ContentModel,
    ElementDecl,
    Grammar,
    GrammarError,
    Name,
    PCData,
    Repeat,
    UNBOUNDED,
)
from ..xpath.parser import is_name
from .incremental import DEFAULT_ROOT

__all__ = ["JSONSchemaError", "json_schema_to_grammar"]

_SCALARS = frozenset({"string", "number", "integer", "boolean", "null"})


class JSONSchemaError(GrammarError):
    """Raised for unsupported or inconsistent JSON Schemas."""


def json_schema_to_grammar(schema: dict | str, root_name: str = DEFAULT_ROOT) -> Grammar:
    """Lower a JSON Schema (dict or JSON text) onto a :class:`Grammar`."""
    if isinstance(schema, str):
        schema = json.loads(schema)
    if not isinstance(schema, dict):
        raise JSONSchemaError("a JSON Schema must be an object")
    lowering = _Lowering(schema)
    lowering.collect(schema, root_name)

    decls: dict[str, ElementDecl] = {root_name: lowering.declaration(root_name)}
    for name in lowering.order:
        decls.setdefault(name, lowering.declaration(name))
    return Grammar(root=root_name, elements=decls)


class _Lowering:
    def __init__(self, root_schema: dict) -> None:
        self.defs: dict[str, dict] = {}
        for key in ("$defs", "definitions"):
            section = root_schema.get(key)
            if isinstance(section, dict):
                self.defs.update(section)
        #: element name → merged child-name set across all its contexts
        self.children: dict[str, set[str]] = {}
        self.pcdata: dict[str, bool] = {}
        self.order: list[str] = []
        #: (schema identity, element) pairs already collected — makes
        #: recursive $refs terminate (the merge is idempotent)
        self._visited: set[tuple[int, str]] = set()

    # ------------------------------------------------------------------

    def collect(self, schema: dict, element: str) -> None:
        """Merge ``schema``'s structure into ``element``'s entry."""
        schema = self._deref(schema)
        key = (id(schema), element)
        if key in self._visited:
            return
        self._visited.add(key)

        if element not in self.children:
            self.children[element] = set()
            self.pcdata[element] = False
            self.order.append(element)
        bucket = self.children[element]

        for combinator in ("oneOf", "anyOf", "allOf"):
            for alt in schema.get(combinator, ()):
                if isinstance(alt, dict):
                    self.collect(alt, element)

        stype = schema.get("type")
        types = set(stype) if isinstance(stype, list) else ({stype} if stype else set())

        if types & _SCALARS or "enum" in schema or "const" in schema:
            self.pcdata[element] = True

        if "array" in types or "items" in schema:
            items = schema.get("items")
            if isinstance(items, list):
                for sub in items:
                    self.collect(sub, element)
            elif isinstance(items, dict):
                self.collect(items, element)
            else:
                self.pcdata[element] = True  # untyped items: scalars assumed

        if "object" in types or "properties" in schema:
            if schema.get("additionalProperties") not in (None, False):
                raise JSONSchemaError(
                    f"additionalProperties on {element!r} makes its children open-ended"
                )
            if "patternProperties" in schema:
                raise JSONSchemaError("patternProperties is unsupported")
            for prop, sub in schema.get("properties", {}).items():
                if not is_name(prop):
                    raise JSONSchemaError(
                        f"property {prop!r} is not usable as an element name"
                    )
                bucket.add(prop)
                if isinstance(sub, dict):
                    self.collect(sub, prop)
                else:
                    self.collect({}, prop)

        if not types and not any(
            k in schema
            for k in ("properties", "items", "oneOf", "anyOf", "allOf", "enum", "const")
        ):
            # untyped schema: structurally opaque — treat as text
            self.pcdata[element] = True

    def declaration(self, name: str) -> ElementDecl:
        parts: list[ContentModel] = [Name(c) for c in sorted(self.children.get(name, ()))]
        if self.pcdata.get(name, False) or not parts:
            parts.append(PCData())
        inner: ContentModel = parts[0] if len(parts) == 1 else Choice(tuple(parts))
        model: ContentModel = inner if isinstance(inner, PCData) else Repeat(inner, 0, UNBOUNDED)
        return ElementDecl(name, model)

    def _deref(self, schema: dict) -> dict:
        seen: set[str] = set()
        while True:
            ref = schema.get("$ref")
            if ref is None:
                return schema
            for prefix in ("#/$defs/", "#/definitions/"):
                if ref.startswith(prefix):
                    target = ref[len(prefix):]
                    if target not in self.defs:
                        raise JSONSchemaError(f"unresolved $ref {ref!r}")
                    if target in seen:
                        raise JSONSchemaError(f"$ref cycle through {ref!r}")
                    seen.add(target)
                    schema = self.defs[target]
                    break
            else:
                raise JSONSchemaError(
                    f"only local $refs into $defs/definitions are supported, got {ref!r}"
                )
