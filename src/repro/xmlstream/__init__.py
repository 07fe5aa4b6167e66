"""XML substrate: streaming lexer, chunk framing, validation.

This package contains everything the transducers need to consume XML
without building a DOM: token types (:mod:`~repro.xmlstream.tokens`),
a restartable streaming lexer (:mod:`~repro.xmlstream.lexer`), the
split-phase chunker (:mod:`~repro.xmlstream.chunking`) and a streaming
DTD validator (:mod:`~repro.xmlstream.validate`).
"""

from .chunking import Chunk, split_at_offsets, split_chunks
from .incremental import IncrementalLexer
from .lexer import LexError, iter_tag_offsets, lex, lex_range
from .tokens import (
    Token,
    TokenColumns,
    TokenKind,
    as_columns,
    end_tag,
    start_tag,
    text_token,
)
from .tree import TreeNode, parse_tree
from .validate import ValidationError, Validator, check_well_formed, compile_content_model

__all__ = [
    "Chunk",
    "IncrementalLexer",
    "LexError",
    "Token",
    "TokenColumns",
    "TokenKind",
    "TreeNode",
    "ValidationError",
    "Validator",
    "as_columns",
    "check_well_formed",
    "compile_content_model",
    "end_tag",
    "iter_tag_offsets",
    "lex",
    "lex_range",
    "parse_tree",
    "split_at_offsets",
    "split_chunks",
    "start_tag",
    "text_token",
]
