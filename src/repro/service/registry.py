"""Document registry — ingest once, query unboundedly.

Every one-shot entry point (``repro query`` and friends) re-reads the
document, re-splits it, re-lexes every chunk and re-parses the grammar
on each invocation.  The registry is the serving-layer counterpart: a
document is *ingested* once and the per-document preparation is cached
for the lifetime of the service:

* **kind sniffing** — XML vs JSON, by content
  (:func:`~repro.store.docprep.looks_like_json`, as the CLI does);
* **grammar** — an explicit DTD/XSD/JSON-Schema text, or the
  document's inline DOCTYPE.  Each distinct grammar is parsed once and
  its :class:`~repro.grammar.model.Grammar` shared by every document
  that names it, under one ``grammar_key``.  Absent grammar leaves
  engines in speculative mode;
* **split and lex** — the chunk list for the service's configured
  width and one pre-lexed :class:`~repro.xmlstream.tokens.TokenColumns`
  per chunk, so no request ever tokenises the document again.  XML is
  split at tags (:func:`~repro.xmlstream.chunking.split_chunks`) and
  lexed per chunk; JSON is tokenised whole and its columns cut by
  :func:`~repro.xmlstream.chunking.split_tokens`;
* **entry paths** — each chunk's open-element path at its start, from
  which every query set steps its exact entry configuration, so no
  request infers a chunk's context, whatever the document's kind.  The
  same pass rejects a document whose end tags close more elements than
  are open (:class:`~repro.transducer.mapping.StackUnderflow`).

Both kinds then run one request path: ``GapEngine.run`` over the
record's chunks, columns and paths.  A JSON record also carries the
decoder its value predicates read element text with, since the text
of a JSON member is in its columns, not in XML markup.

Split, lex and paths go through :mod:`repro.store.docprep`, with or
without an artifact store.

Engines are cached one level up, per ``(grammar, chunk width, merged
query set)``, by the service (:mod:`repro.service.service`): an
engine holds nothing per document.  The structural compile cache in
:mod:`repro.xpath.compile_tables` dedupes the dense arrays below that.

Documents are identified by a content hash (sha256 of text + grammar +
chunk width), so re-registering identical content is idempotent and
returns the existing id.  The registry is bounded: past
``max_documents`` ingestion is refused with :class:`RegistryFull` —
admission control for memory, mirroring the request queue's admission
control for CPU.  All methods are thread-safe.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from hashlib import sha256

from ..core.engine import GapEngine
from ..grammar.dtd_parser import parse_dtd
from ..grammar.model import Grammar
from ..store.docprep import (chunk_paths, looks_like_json, parse_grammar,
                             prepare_json, prepare_xml)
from ..xmlstream.chunking import Chunk, split_tokens

__all__ = [
    "DocumentRecord",
    "DocumentRegistry",
    "RegistryFull",
    "UnknownDocument",
]


class RegistryFull(RuntimeError):
    """Ingestion refused: the registry is at its document bound.

    Carries the configured ``capacity`` and the rejected document's
    content hash (``doc_id``) so operators can see *which* ingestion
    was refused and against what bound — the HTTP layer surfaces both
    in the 429 body.
    """

    def __init__(self, capacity: int, doc_id: str) -> None:
        super().__init__(
            f"registry full ({capacity}/{capacity} documents); "
            f"rejected document {doc_id}"
        )
        self.capacity = capacity
        self.doc_id = doc_id


class UnknownDocument(KeyError):
    """A request named a document id the registry does not hold."""

    def __init__(self, doc_id: str) -> None:
        super().__init__(doc_id)
        self.doc_id = doc_id

    def __str__(self) -> str:
        return f"unknown document {self.doc_id!r}"


def _digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(slots=True)
class DocumentRecord:
    """One ingested document and its cached preparation."""

    doc_id: str
    name: str
    kind: str  # "xml" | "json"
    text: str
    grammar: Grammar | None
    n_chunks: int
    #: the split: chunk ranges in document order
    chunks: list[Chunk] = field(default_factory=list)
    #: one pre-lexed TokenColumns per chunk
    chunk_tokens: tuple | None = None
    #: each chunk's open-element path at its start
    chunk_paths: tuple | None = None
    #: offset → element text for value predicates (JSON: over the
    #: chunk columns); ``None`` decodes the XML text
    decoder: Callable[[int], str] | None = None
    #: identifies ``grammar`` among the registry's shared grammars
    #: ("" without one); documents with equal keys share the object
    grammar_key: str = ""

    @property
    def n_bytes(self) -> int:
        return len(self.text)

    def describe(self) -> dict:
        """JSON-ready summary (the ``GET /documents`` row)."""
        return {
            "doc_id": self.doc_id,
            "name": self.name,
            "kind": self.kind,
            "bytes": self.n_bytes,
            "chunks": len(self.chunks),
            "grammar": self.grammar is not None,
        }


class DocumentRegistry:
    """Bounded, thread-safe store of ingested documents."""

    def __init__(
        self,
        max_documents: int = 64,
        store=None,
    ) -> None:
        if max_documents < 1:
            raise ValueError(f"max_documents must be >= 1, got {max_documents}")
        self.max_documents = max_documents
        #: optional :class:`repro.store.ArtifactStore` — cache-aside
        #: tier for splits and token caches, so a restarted service
        #: skips re-lexing documents it has seen before
        self.store = store
        self._docs: dict[str, DocumentRecord] = {}
        #: grammar key → the parsed grammar its documents share
        self._grammars: dict[str, Grammar] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._docs)

    def register(
        self,
        text: str,
        name: str = "",
        grammar: str | Grammar | None = None,
        n_chunks: int = 8,
    ) -> DocumentRecord:
        """Ingest ``text``; idempotent on identical (text, grammar, width).

        Raises :class:`RegistryFull` when the bound is reached and the
        content is not already registered, and
        :class:`~repro.transducer.mapping.StackUnderflow` for an XML
        document with an end tag that closes more elements than are
        open (no query could run over it).
        """
        if not text:
            raise ValueError("cannot register an empty document")
        grammar_text = grammar if isinstance(grammar, str) else None
        doc_id = self._content_id(text, grammar_text, n_chunks)
        with self._lock:
            existing = self._docs.get(doc_id)
            if existing is not None:
                return existing
            if len(self._docs) >= self.max_documents:
                raise RegistryFull(self.max_documents, doc_id)
        record = self._prepare(doc_id, text, name, grammar, n_chunks)
        with self._lock:
            # a racing register of the same content wins harmlessly
            # (equal records); re-check the bound for distinct content
            existing = self._docs.get(doc_id)
            if existing is not None:
                return existing
            if len(self._docs) >= self.max_documents:
                raise RegistryFull(self.max_documents, doc_id)
            if record.grammar_key:
                record.grammar = self._grammars.setdefault(
                    record.grammar_key, record.grammar)
            self._docs[doc_id] = record
        return record

    def get(self, doc_id: str) -> DocumentRecord:
        with self._lock:
            record = self._docs.get(doc_id)
        if record is None:
            raise UnknownDocument(doc_id)
        return record

    def remove(self, doc_id: str) -> None:
        with self._lock:
            record = self._docs.pop(doc_id, None)
            if record is None:
                raise UnknownDocument(doc_id)
            key = record.grammar_key
            if key and all(r.grammar_key != key for r in self._docs.values()):
                self._grammars.pop(key, None)

    def list(self) -> list[dict]:
        with self._lock:
            records = list(self._docs.values())
        return [r.describe() for r in records]

    # -- preparation ---------------------------------------------------

    @staticmethod
    def _content_id(text: str, grammar_text: str | None, n_chunks: int) -> str:
        h = sha256()
        h.update(text.encode("utf-8"))
        h.update(b"\x00")
        h.update((grammar_text or "").encode("utf-8"))
        h.update(f"\x00{n_chunks}".encode())
        return h.hexdigest()[:16]

    def _shared_grammar(
        self, grammar: str | Grammar | None, text: str,
    ) -> tuple[Grammar | None, str]:
        """The registry's shared grammar for a registration, and its key.

        A grammar text is keyed by its hash and parsed only while no
        registered document shares it.  An inline DOCTYPE or a
        :class:`Grammar` object is keyed by the hash of its DTD
        rendering, so equal grammars share one object too.  The grammar
        is adopted as shared when its document is committed.
        """
        if isinstance(grammar, str):
            key = "text:" + _digest(grammar)
            with self._lock:
                shared = self._grammars.get(key)
            if shared is None:
                shared = parse_grammar(grammar)
        else:
            if grammar is None:
                if looks_like_json(text) or "<!DOCTYPE" not in text[:65536]:
                    return None, ""
                grammar = parse_dtd(text)
            key = "dtd:" + _digest(grammar.to_dtd())
            with self._lock:
                shared = self._grammars.get(key, grammar)
        return shared, key

    def _prepare(
        self,
        doc_id: str,
        text: str,
        name: str,
        grammar: str | Grammar | None,
        n_chunks: int,
    ) -> DocumentRecord:
        grammar, grammar_key = self._shared_grammar(grammar, text)
        kind = "json" if looks_like_json(text) else "xml"
        decoder = None
        if kind == "json":
            tokens = prepare_json(self.store, text)
            tokens.index_tags_only()  # kept for good: its slices share it
            chunks, chunk_tokens = split_tokens(tokens, n_chunks)
            paths = chunk_paths(chunk_tokens)
            decoder = GapEngine._token_decoder(chunk_tokens)
        else:
            chunks, chunk_tokens, paths = prepare_xml(self.store, text, n_chunks)
            for cols in chunk_tokens:
                cols.index_tags_only()  # kept for good: no text-run index
        return DocumentRecord(
            doc_id=doc_id, name=name or doc_id, kind=kind, text=text,
            grammar=grammar, n_chunks=n_chunks, chunks=chunks,
            chunk_tokens=chunk_tokens, chunk_paths=paths, decoder=decoder,
            grammar_key=grammar_key,
        )
