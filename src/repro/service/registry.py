"""Document registry — ingest once, query unboundedly.

Every one-shot entry point (``repro query`` and friends) re-reads the
document, re-splits it, re-lexes every chunk and re-parses the grammar
on each invocation.  The registry is the serving-layer counterpart: a
document is *ingested* once and the per-document preparation is cached
for the lifetime of the service:

* **kind sniffing** — XML vs JSON, by content (same rule as the CLI);
* **grammar** — an explicit DTD/XSD/JSON-Schema text, or the
  document's inline DOCTYPE; parsed once.  Absent grammar leaves
  engines in speculative mode;
* **split** — the tag-aligned chunk list
  (:func:`~repro.xmlstream.chunking.split_chunks`) for the service's
  configured width;
* **lex** — one pre-lexed :class:`~repro.xmlstream.tokens.TokenColumns`
  per chunk (XML) or one for the whole document (JSON), so no request
  ever tokenises the document again.  Split and lex go through
  :mod:`repro.store.docprep`, with or without an artifact store.

Feasible-table and dense-table preparation is cached one level up:
engines are cached per ``(document, merged query set)`` by the service
(:mod:`repro.service.service`), and the structural compile cache in
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
from dataclasses import dataclass, field
from hashlib import sha256

from ..grammar.dtd_parser import parse_dtd
from ..grammar.model import Grammar
from ..grammar.xsd_parser import is_xsd, parse_xsd
from ..store.docprep import prepare_json, prepare_xml
from ..xmlstream.chunking import Chunk
from ..xmlstream.tokens import TokenColumns

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


def _looks_like_json(text: str) -> bool:
    return text.lstrip()[:1] in ("{", "[")


def _parse_grammar(text: str) -> Grammar:
    if text.lstrip()[:1] == "{":
        from ..jsonstream import json_schema_to_grammar

        return json_schema_to_grammar(text)
    return parse_xsd(text) if is_xsd(text) else parse_dtd(text)


@dataclass(slots=True)
class DocumentRecord:
    """One ingested document and its cached preparation."""

    doc_id: str
    name: str
    kind: str  # "xml" | "json"
    text: str
    grammar: Grammar | None
    n_chunks: int
    #: tag-aligned split (XML only; empty for JSON)
    chunks: list[Chunk] = field(default_factory=list)
    #: one pre-lexed TokenColumns per chunk (XML, when pre-lexing is on)
    chunk_tokens: tuple | None = None
    #: the whole document's TokenColumns (JSON only)
    tokens: TokenColumns | None = None

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
            "chunks": len(self.chunks) if self.kind == "xml" else 1,
            "grammar": self.grammar is not None,
        }


class DocumentRegistry:
    """Bounded, thread-safe store of ingested documents."""

    def __init__(
        self,
        max_documents: int = 64,
        pre_lex: bool = True,
        store=None,
    ) -> None:
        if max_documents < 1:
            raise ValueError(f"max_documents must be >= 1, got {max_documents}")
        self.max_documents = max_documents
        self.pre_lex = pre_lex
        #: optional :class:`repro.store.ArtifactStore` — cache-aside
        #: tier for splits and token caches, so a restarted service
        #: skips re-lexing documents it has seen before
        self.store = store
        self._docs: dict[str, DocumentRecord] = {}
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
        content is not already registered.
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
            if self._docs.pop(doc_id, None) is None:
                raise UnknownDocument(doc_id)

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

    def _prepare(
        self,
        doc_id: str,
        text: str,
        name: str,
        grammar: str | Grammar | None,
        n_chunks: int,
    ) -> DocumentRecord:
        if isinstance(grammar, str):
            grammar = _parse_grammar(grammar)
        if _looks_like_json(text):
            tokens = prepare_json(self.store, text)
            return DocumentRecord(
                doc_id=doc_id, name=name or doc_id, kind="json", text=text,
                grammar=grammar, n_chunks=n_chunks, tokens=tokens,
            )
        if grammar is None and "<!DOCTYPE" in text[:65536]:
            grammar = parse_dtd(text)
        chunks, chunk_tokens = prepare_xml(
            self.store, text, n_chunks, pre_lex=self.pre_lex
        )
        return DocumentRecord(
            doc_id=doc_id, name=name or doc_id, kind="xml", text=text,
            grammar=grammar, n_chunks=n_chunks, chunks=chunks,
            chunk_tokens=chunk_tokens,
        )
