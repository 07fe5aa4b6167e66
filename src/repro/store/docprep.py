"""Cache-aside document preparation over the artifact store.

The expensive per-document work the service registry (and the CLI
one-shots) repeat on every cold start is splitting and lexing:
tag-aligned chunking is a linear scan, pre-lexing tokenises the
whole document, and one more pass over the tokens records each
chunk's open-element path (its exact entry context).  These helpers
look them up in an
:class:`~repro.store.artifacts.ArtifactStore` by **document content
hash** before computing, and publish what they compute — the classic
cache-aside pattern.

Decoded artifacts are sanity-checked against the document they claim
to describe (chunk coverage, token-run count, one entry path per
chunk with chunk 0's empty); any mismatch — however
it got there — invalidates the artifact and recomputes, so a stale or
foreign artifact can never poison a result.

Tracer contract: the ``split``/``lex`` phase spans are opened **only
when the work actually runs**.  A fully warm preparation emits no such
spans — which is exactly what the warm-start differential test asserts
to prove the work was skipped rather than merely fast.

Before any of that, :func:`looks_like_json` tells the document's kind
and :func:`parse_grammar` reads the grammar text it is queried under,
for the CLI and the service registry alike.
"""

from __future__ import annotations

from hashlib import sha256

from ..grammar.dtd_parser import parse_dtd
from ..grammar.model import Grammar
from ..grammar.xsd_parser import is_xsd, parse_xsd
from ..obs.tracer import NULL_TRACER
from ..transducer.mapping import StackUnderflow
from ..xmlstream.chunking import Chunk, split_chunks
from ..xmlstream.lexer import lex_range
from ..xmlstream.tokens import TokenColumns, TokenKind
from . import codec
from .artifacts import ArtifactStore

__all__ = ["chunk_paths", "content_key", "looks_like_json", "parse_grammar",
           "prepare_xml", "prepare_json"]

_START = int(TokenKind.START)
_END = int(TokenKind.END)


#: first non-blank characters that open a JSON value other than a literal
_JSON_OPENERS = frozenset('{["-0123456789')


def looks_like_json(text: str) -> bool:
    """A document is JSON when its first non-blank character opens an
    object, an array, a string or a number, or when it is one of the
    literals ``true``, ``false`` and ``null``; anything else is XML."""
    head = text.lstrip()[:1]
    if head in _JSON_OPENERS:
        return True
    return head in ("t", "f", "n") and text.strip() in ("true", "false", "null")


def parse_grammar(text: str) -> Grammar:
    """A grammar from its text: a JSON Schema, an XML Schema or a DTD."""
    if text.lstrip()[:1] == "{":
        from ..jsonstream import json_schema_to_grammar

        return json_schema_to_grammar(text)
    return parse_xsd(text) if is_xsd(text) else parse_dtd(text)


def content_key(text: str, n_chunks: int = 0) -> str:
    """The store key for one document's derived artifacts.

    Split and token artifacts depend on the chunk width, so it is part
    of the key; pass ``n_chunks=0`` for width-independent artifacts
    (the flat JSON token list).
    """
    h = sha256()
    h.update(f"{n_chunks}\x00".encode())
    h.update(text.encode("utf-8"))
    return h.hexdigest()


def _stored_split(
    store: ArtifactStore, key: str, text: str
) -> tuple[list[Chunk], tuple] | None:
    payload = store.get("split", key)
    if payload is None:
        return None
    try:
        chunks, paths = codec.decode_chunks(payload)
    except codec.CodecError as exc:
        store.invalidate("split", key, f"decode:{exc}")
        return None
    # the artifact must actually cover this document
    if chunks and (chunks[0].begin != 0 or chunks[-1].end != len(text)):
        store.invalidate("split", key, "coverage-mismatch")
        return None
    return chunks, paths


def _stored_chunk_tokens(
    store: ArtifactStore, key: str, n_chunks: int
) -> tuple | None:
    payload = store.get("tokens", key)
    if payload is None:
        return None
    try:
        chunk_tokens = codec.decode_chunk_tokens(payload)
    except codec.CodecError as exc:
        store.invalidate("tokens", key, f"decode:{exc}")
        return None
    if len(chunk_tokens) != n_chunks:
        store.invalidate("tokens", key, "chunk-count-mismatch")
        return None
    return chunk_tokens


def chunk_paths(chunk_tokens) -> tuple[tuple[str, ...], ...]:
    """Each chunk's open-element path: the tag names open at its start.

    One pass over the chunk columns in document order; a path is at
    most the document's depth long, and chunk 0's is empty.  An end
    tag that closes more elements than are open raises
    :class:`~repro.transducer.mapping.StackUnderflow` at its offset,
    the error a sequential run of the document raises; elements left
    open at the end are allowed, as they are by every engine.
    """
    stack: list[str] = []
    paths = []
    for cols in chunk_tokens:
        paths.append(tuple(stack))
        names, name_ids = cols.names, cols.name_ids
        for i, kind in enumerate(cols.kinds):
            if kind == _START:
                stack.append(names[name_ids[i]])
            elif kind == _END:
                if not stack:
                    raise StackUnderflow(cols.offsets[i])
                stack.pop()
    return tuple(paths)


def prepare_xml(
    store: ArtifactStore | None,
    text: str,
    n_chunks: int,
    tracer=NULL_TRACER,
) -> tuple[list[Chunk], tuple, tuple]:
    """Chunk list, per-chunk token columns and per-chunk entry paths.

    Identical results to ``split_chunks``, per-chunk ``lex_range`` and
    :func:`chunk_paths`; with a warm ``store`` all three are read back
    (and no ``xmlstream.split``/``xmlstream.lex`` spans are recorded).
    The paths are stored with the split, and are computed before
    anything is published, so a malformed document raises
    :class:`~repro.transducer.mapping.StackUnderflow` and leaves the
    store as it was.  ``store=None`` degrades to the plain computation.
    """
    key = content_key(text, n_chunks) if store is not None else ""
    split = _stored_split(store, key, text) if store is not None else None
    if split is None:
        with tracer.span("xmlstream.split", cat="phase") as sp:
            chunks = split_chunks(text, n_chunks)
            sp.args["n_chunks"] = len(chunks)
        paths = None
    else:
        chunks, paths = split
    chunk_tokens = (
        _stored_chunk_tokens(store, key, len(chunks))
        if store is not None else None
    )
    lexed = chunk_tokens is None
    if lexed:
        with tracer.span("xmlstream.lex", cat="phase") as sp:
            chunk_tokens = tuple(lex_range(text, c.begin, c.end) for c in chunks)
            sp.args["tokens"] = sum(len(t) for t in chunk_tokens)
    if paths is None:
        with tracer.span("xmlstream.split", cat="phase", paths=True):
            paths = chunk_paths(chunk_tokens)
    if store is not None:
        if lexed:
            store.put("tokens", key, codec.encode_chunk_tokens(chunk_tokens))
        if split is None:
            store.put("split", key, codec.encode_chunks(chunks, paths))
    return chunks, chunk_tokens, paths


def prepare_json(store: ArtifactStore | None, text: str) -> TokenColumns:
    """The flat token columns of a JSON document (width-independent)."""
    from ..jsonstream import tokenize_json

    if store is None:
        return tokenize_json(text)
    key = content_key(text, 0)
    payload = store.get("tokens", key)
    if payload is not None:
        try:
            return codec.decode_tokens(payload)
        except codec.CodecError as exc:
            store.invalidate("tokens", key, f"decode:{exc}")
    tokens = tokenize_json(text)
    store.put("tokens", key, codec.encode_tokens(tokens))
    return tokens
