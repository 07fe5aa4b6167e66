"""Dataset descriptors shared by the benchmark corpora."""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from ..grammar.dtd_parser import parse_dtd
from ..grammar.model import Grammar
from .generators import DocumentGenerator, document_stats

__all__ = ["Dataset"]


@dataclass(slots=True)
class Dataset:
    """One synthetic benchmark dataset: DTD, generator knobs, queries.

    ``scale`` in :meth:`generate` multiplies the top-level record
    count, mirroring the paper's replication "scaling factor" (Section
    6, Benchmarks).  Documents are deterministic in ``(scale, seed)``.
    """

    name: str
    dtd: str
    #: Table-4 style named queries: id → XPath string
    queries: dict[str, str] = field(default_factory=dict)
    #: expected Table-3 d_max for sanity tests
    expected_dmax: int = 0
    #: expected Table-3 d_avg (approximate)
    expected_davg: float = 0.0
    #: child element controlling the record count, and records per scale unit
    record_element: str = ""
    records_per_scale: int = 200
    #: generator configuration
    max_depth: int = 12
    repeat_range: tuple[int, int] = (1, 3)
    repeat_overrides: dict[str, tuple[int, int]] = field(default_factory=dict)
    geometric: frozenset[str] = frozenset()
    geometric_p: float = 0.5
    text_factory: Callable[[str, random.Random], str] | None = None

    @property
    def grammar(self) -> Grammar:
        return parse_dtd(self.dtd)

    def generate(self, scale: float = 1.0, seed: int = 0, include_prolog: bool = True) -> str:
        """Generate a document with ``scale`` × the base record count."""
        records = max(1, round(self.records_per_scale * scale))
        overrides = dict(self.repeat_overrides)
        if self.record_element:
            overrides[self.record_element] = (records, records)
        gen = DocumentGenerator(
            self.grammar,
            seed=seed,
            max_depth=self.max_depth,
            repeat_range=self.repeat_range,
            repeat_overrides=overrides,
            geometric=self.geometric,
            geometric_p=self.geometric_p,
            text_factory=self.text_factory,
        )
        return gen.generate(include_prolog=include_prolog)

    def stats(self, xml: str) -> tuple[int, int, float]:
        """``(#tags, d_max, d_avg)`` of a generated document (Table 3).

        Reads :class:`Token` views: computed once per corpus, off every
        query path.
        """
        from ..xmlstream.lexer import lex

        return document_stats(lex(xml))

    def query(self, qid: str) -> str:
        try:
            return self.queries[qid]
        except KeyError:
            raise KeyError(f"dataset {self.name} has no query {qid!r}") from None
