"""Split phase — cut an XML document into independently lexable chunks.

The parallel pushdown transducers (both the PP-Transducer baseline and
GAP) share the same three-phase structure: *split*, *parallel*, *join*.
This module implements the split phase.

A chunk is a half-open byte range ``[begin, end)`` of the document.
Boundaries are aligned to *tag boundaries*: every boundary except the
first is the offset of a top-level ``<`` character (as reported by
:func:`repro.xmlstream.lexer.iter_tag_offsets`), so every worker can
call :func:`~repro.xmlstream.lexer.lex_range` on its own range and the
concatenation of the per-chunk token streams equals the sequential
token stream.

The paper cuts into *equal-sized* chunks; we do the same (by bytes) and
then snap each cut point forward to the next tag boundary.  Degenerate
cases (more chunks than tags, boundaries colliding) collapse chunks
rather than producing empty ones.

The split never walks the document tag by tag in Python.  Each cut
point is found by :func:`~repro.xmlstream.lexer.tag_offset_at_or_after`
from the previous boundary: it skips whole constructs (character data,
tags with quoted attribute values, comments, CDATA sections, processing
instructions) with one compiled-regex match that stops at the cut
point, steps past the rare construct the pattern leaves to Python (a
DOCTYPE, or a malformed construct, which raises the same
:class:`~repro.xmlstream.lexer.LexError` a tag walk does), and walks
only the construct that straddles the cut point.  The chunk lists equal
those of a walk over every :func:`~repro.xmlstream.lexer.iter_tag_offsets`
offset (``tests/lexer_oracles.py`` keeps that walk as the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexer import tag_offset_at_or_after
from .tokens import TokenColumns

__all__ = ["Chunk", "split_chunks", "split_at_offsets", "split_tokens"]

@dataclass(frozen=True, slots=True)
class Chunk:
    """One byte range of the document, assigned to one worker.

    ``index`` is the chunk's position in document order; chunk 0 is the
    only one that starts from the known initial state/stack.
    """

    index: int
    begin: int
    end: int

    def __len__(self) -> int:
        return self.end - self.begin


def split_chunks(text: str, n_chunks: int) -> list[Chunk]:
    """Split ``text`` into at most ``n_chunks`` tag-aligned chunks.

    The first chunk starts at byte 0 (covering any XML declaration and
    DOCTYPE prolog).  Cut points are placed at ``len(text) * k / n`` and
    snapped forward to the next top-level tag boundary; each cut point
    takes a tag after the previous one's, so cut points never repeat.
    Fewer than ``n_chunks`` chunks are returned when the document is
    too small for distinct boundaries; at least one chunk is always
    returned for a non-empty document.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    n = len(text)
    if n == 0:
        return []
    if n_chunks == 1:
        return [Chunk(0, 0, n)]

    boundaries: list[int] = []
    prev = -1  # the tag offset the previous cut point took
    for k in range(1, n_chunks):
        off = tag_offset_at_or_after(text, max(prev, 0),
                                     max(n * k // n_chunks, prev + 1))
        if off is None:
            break
        if off > 0:
            boundaries.append(off)
        prev = off
    else:
        # scan on to the tag after the last cut point, as a full walk
        # of the tag offsets would: a malformed construct there raises
        tag_offset_at_or_after(text, prev, prev + 1)

    return split_at_offsets(n, boundaries)


def split_at_offsets(total_len: int, boundaries: list[int]) -> list[Chunk]:
    """Build the chunk list for explicit, sorted interior boundaries.

    Exposed separately so tests (and the speculative reprocessing logic,
    which re-splits a failed chunk) can construct precise layouts.
    """
    for a, b in zip(boundaries, boundaries[1:]):
        if b <= a:
            raise ValueError("boundaries must be strictly increasing")
    if boundaries and (boundaries[0] <= 0 or boundaries[-1] >= total_len):
        raise ValueError("boundaries must lie strictly inside the document")
    edges = [0, *boundaries, total_len]
    return [Chunk(i, edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def split_tokens(
    tokens: TokenColumns, n_chunks: int
) -> tuple[list[Chunk], tuple[TokenColumns, ...]]:
    """Cut pre-tokenised input (a JSON document's columns) into at most
    ``n_chunks`` contiguous chunks: the chunk list and one column slice
    per chunk.

    Cut points sit at ``len(tokens) * k / n`` rows, each moved forward
    past rows that share the previous row's offset (a wrapper START and
    its scalar TEXT may), so no offset ties across a chunk edge and a
    chunk's range cut by offset is exactly its rows.  A chunk spans
    from its first row's offset to the next chunk's; the last ends one
    past the last offset.  Offsets must be non-decreasing (the JSON
    tokenizer guarantees this); no tokens give no chunks.
    """
    if not tokens:
        return [], ()
    offsets = tokens.offsets
    if any(b < a for a, b in zip(offsets, offsets[1:])):
        raise ValueError("token-mode execution requires non-decreasing offsets")
    cuts = set()
    for k in range(1, n_chunks):
        cut = len(tokens) * k // n_chunks
        while 0 < cut < len(tokens) and offsets[cut] == offsets[cut - 1]:
            cut += 1
        if 0 < cut < len(tokens):
            cuts.add(cut)
    edges = [0, *sorted(cuts), len(tokens)]
    ends = [*(offsets[i] for i in edges[1:-1]), offsets[-1] + 1]
    chunks = [Chunk(ci, offsets[i0], end)
              for ci, (i0, end) in enumerate(zip(edges, ends))]
    columns = tuple(tokens[i0:i1] for i0, i1 in zip(edges, edges[1:]))
    return chunks, columns
