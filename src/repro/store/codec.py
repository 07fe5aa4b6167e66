"""Compact binary serialization for persisted artifacts.

Everything the pipeline precomputes and the artifact store persists is
encoded here, by hand, into a small deterministic binary form:

* :class:`~repro.xpath.compile_tables.KernelTables` — the dense query
  automaton + feasibility rows (the structural compile cache's value);
* :class:`~repro.core.inference.FeasibleTable` — the grammar-inferred
  feasible-path table in its object form;
* chunk splits (:class:`~repro.xmlstream.chunking.Chunk` lists) and
  pre-lexed token caches (one :class:`~repro.xmlstream.tokens.TokenColumns`
  per chunk for XML, one for a whole JSON document), stored as the
  columns and string table they are and loaded back as arrays.

Why not pickle: artifacts are read back by *future* processes running
*future* code, so the format must fail loudly and cheaply on shape
drift — every decoder bound-checks every read and raises
:class:`CodecError` on anything unexpected, which the store layer
translates into a clean cache miss.  The encoding is also far more
compact than a pickled object graph: token names are interned through
a per-chunk string table (XML markup is overwhelmingly repetitive), numeric
columns are stored as flat ``array`` buffers, and derivable fields
(``accept_flags``, ``start_sets``, ``all_states``) are rebuilt on
decode instead of stored.

Native byte order and itemsize are stamped into every ``array`` column;
an artifact written by an incompatible interpreter build decodes as a
:class:`CodecError` (→ miss), never as garbage.

Bump the per-kind schema versions in :data:`SCHEMAS` whenever an
encoding here changes shape — the store stamps the version into every
artifact header and treats a mismatch as invalid, which is the upgrade
path: stale artifacts are dropped and rewritten, never misread.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from collections.abc import Iterable
from itertools import accumulate

from ..core.inference import FeasibleTable
from ..xmlstream.chunking import Chunk
from ..xmlstream.tokens import TokenColumns
from ..xpath.compile_tables import KernelTables

__all__ = [
    "CodecError",
    "SCHEMAS",
    "encode_kernel_tables",
    "decode_kernel_tables",
    "encode_feasible_table",
    "decode_feasible_table",
    "encode_chunks",
    "decode_chunks",
    "encode_chunk_tokens",
    "decode_chunk_tokens",
    "encode_tokens",
    "decode_tokens",
    "encode_memo_table",
    "decode_memo_table",
    "encode_checkpoint",
    "decode_checkpoint",
]


class CodecError(ValueError):
    """An artifact payload does not decode under the current schema."""


#: per-kind schema versions, stamped into artifact headers; bump a
#: kind's version when its encoding changes shape and every stale
#: artifact of that kind becomes a clean miss on the next read
SCHEMAS = {
    "tables": 1,     # KernelTables (compile-cache write-through)
    "feasible": 1,   # FeasibleTable (object form)
    "split": 1,      # chunk lists (document registry)
    "tokens": 2,     # pre-lexed token columns (document registry)
    "subseq": 1,     # interned-subsequence memo snapshots (dense kernel)
    "checkpoint": 1, # stream checkpoints (restart/resume state)
}

_BYTEORDER = 0 if sys.byteorder == "little" else 1

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")


class _Writer:
    """Append-only little-endian buffer."""

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, v: int) -> None:
        self.buf += _U8.pack(v)

    def u32(self, v: int) -> None:
        self.buf += _U32.pack(v)

    def u64(self, v: int) -> None:
        self.buf += _U64.pack(v)

    def i64(self, v: int) -> None:
        self.buf += _I64.pack(v)

    def blob(self, data: bytes) -> None:
        self.buf += _U32.pack(len(data))
        self.buf += data

    def string(self, s: str) -> None:
        self.blob(s.encode("utf-8"))

    def ints(self, values) -> None:
        """A u32-count-prefixed run of i64 values (state ids, offsets)."""
        seq = list(values)
        self.u32(len(seq))
        for v in seq:
            self.buf += _I64.pack(v)

    def int_array(self, arr: array) -> None:
        """A native ``array`` column, stamped with typecode/itemsize/order."""
        self.u8(ord(arr.typecode))
        self.u8(arr.itemsize)
        self.u8(_BYTEORDER)
        self.blob(arr.tobytes())

    def done(self) -> bytes:
        return bytes(self.buf)


class _Reader:
    """Bounds-checked reader; every violation raises :class:`CodecError`."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise CodecError(
                f"truncated payload (wanted {n} bytes at {self.pos}, "
                f"have {len(self.data)})"
            )
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def blob(self) -> bytes:
        return self._take(self.u32())

    def string(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"malformed utf-8 string: {exc}") from None

    def ints(self) -> tuple[int, ...]:
        n = self.u32()
        if n > len(self.data):  # cheap sanity bound before allocating
            raise CodecError(f"implausible sequence length {n}")
        raw = self._take(8 * n)
        return tuple(array("q", raw)) if _BYTEORDER == 0 else tuple(
            int.from_bytes(raw[i:i + 8], "little", signed=True)
            for i in range(0, len(raw), 8)
        )

    def int_array(self) -> array:
        typecode = chr(self.u8())
        itemsize = self.u8()
        order = self.u8()
        raw = self.blob()
        try:
            arr = array(typecode)
        except ValueError:
            raise CodecError(f"unknown array typecode {typecode!r}") from None
        if arr.itemsize != itemsize or order != _BYTEORDER:
            raise CodecError(
                f"array layout mismatch (typecode {typecode!r}: stored "
                f"itemsize {itemsize}/order {order}, local "
                f"{arr.itemsize}/{_BYTEORDER})"
            )
        if len(raw) % itemsize:
            raise CodecError("array byte length not a multiple of itemsize")
        arr.frombytes(raw)
        return arr

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise CodecError(
                f"{len(self.data) - self.pos} trailing byte(s) after payload"
            )


def _opt_blob(w: _Writer, data: bytes | None) -> None:
    if data is None:
        w.u8(0)
    else:
        w.u8(1)
        w.blob(data)


def _read_opt_blob(r: _Reader) -> bytes | None:
    flag = r.u8()
    if flag == 0:
        return None
    if flag != 1:
        raise CodecError(f"bad optional flag {flag}")
    return r.blob()


# ---------------------------------------------------------------------------
# KernelTables
# ---------------------------------------------------------------------------


def _sets_from_rows(rows: tuple[bytes | None, ...]):
    """Rebuild the pre-sorted state tuples from the membership bitmaps.

    The compiler derives both from the same frozenset (the tuple is the
    bitmap's set bits in ascending order), so only the bitmap is
    stored.
    """
    return tuple(
        None if row is None
        else tuple(i for i, bit in enumerate(row) if bit)
        for row in rows
    )


def encode_kernel_tables(t: KernelTables) -> bytes:
    w = _Writer()
    w.u32(t.n_states)
    w.u32(t.n_symbols)
    w.u32(t.initial)
    w.u32(t.other_sym)
    # sym_ids is {tag: id} over ids 0..n_symbols-2; store tags id-ordered
    by_id = sorted(t.sym_ids.items(), key=lambda kv: kv[1])
    w.u32(len(by_id))
    for tag, _sid in by_id:
        w.string(tag)
    w.int_array(t.trans)
    w.u32(len(t.accepts))
    for acc in t.accepts:
        w.ints(acc)
    w.u32(len(t.close_accepts))
    for acc in t.close_accepts:
        w.ints(acc)
    w.u32(len(t.start_rows))
    for row in t.start_rows:
        _opt_blob(w, row)
    w.u32(len(t.end_rows))
    for row in t.end_rows:
        _opt_blob(w, row)
    if t.text_set is None:
        w.u8(0)
    else:
        w.u8(1)
        w.ints(t.text_set)
    w.u8(1 if t.has_table else 0)
    w.u8(1 if t.complete else 0)
    return w.done()


def decode_kernel_tables(payload: bytes) -> KernelTables:
    r = _Reader(payload)
    n_states = r.u32()
    n_symbols = r.u32()
    initial = r.u32()
    other_sym = r.u32()
    n_tags = r.u32()
    if n_tags != n_symbols - 1 or other_sym != n_tags:
        raise CodecError(
            f"symbol table inconsistent ({n_tags} tags, {n_symbols} symbols, "
            f"other at {other_sym})"
        )
    sym_ids = {r.string(): i for i in range(n_tags)}
    if len(sym_ids) != n_tags:
        raise CodecError("duplicate tag in symbol table")
    trans = r.int_array()
    if len(trans) != n_states * n_symbols:
        raise CodecError(
            f"transition table has {len(trans)} entries, expected "
            f"{n_states * n_symbols}"
        )
    accepts = tuple(r.ints() for _ in range(r.u32()))
    close_accepts = tuple(r.ints() for _ in range(r.u32()))
    if len(accepts) != n_states or len(close_accepts) != n_states:
        raise CodecError("accept rows do not cover every state")
    start_rows = tuple(_read_opt_blob(r) for _ in range(r.u32()))
    end_rows = tuple(_read_opt_blob(r) for _ in range(r.u32()))
    if len(start_rows) != n_symbols or len(end_rows) != n_symbols:
        raise CodecError("feasibility rows do not cover every symbol")
    for row in (*start_rows, *end_rows):
        if row is not None and len(row) != n_states:
            raise CodecError("feasibility bitmap width != n_states")
    text_set = tuple(r.ints()) if r.u8() else None
    has_table = bool(r.u8())
    complete = bool(r.u8())
    r.expect_end()
    return KernelTables(
        n_states=n_states,
        n_symbols=n_symbols,
        initial=initial,
        sym_ids=sym_ids,
        other_sym=other_sym,
        trans=trans,
        accepts=accepts,
        accept_flags=bytes(1 if a else 0 for a in accepts),
        close_accepts=close_accepts,
        close_flags=bytes(1 if a else 0 for a in close_accepts),
        start_rows=start_rows,
        start_sets=_sets_from_rows(start_rows),
        end_rows=end_rows,
        end_sets=_sets_from_rows(end_rows),
        text_set=text_set,
        all_states=tuple(range(n_states)),
        has_table=has_table,
        complete=complete,
    )


# ---------------------------------------------------------------------------
# FeasibleTable
# ---------------------------------------------------------------------------


def _encode_feas_map(w: _Writer, mapping: dict[str, frozenset[int]]) -> None:
    w.u32(len(mapping))
    for tag in sorted(mapping):
        w.string(tag)
        w.ints(sorted(mapping[tag]))


def _decode_feas_map(r: _Reader) -> dict[str, frozenset[int]]:
    return {r.string(): frozenset(r.ints()) for _ in range(r.u32())}


def encode_feasible_table(t: FeasibleTable) -> bytes:
    w = _Writer()
    w.u8(1 if t.complete else 0)
    _encode_feas_map(w, t.before_start)
    _encode_feas_map(w, t.before_end)
    w.ints(sorted(t.text_states))
    return w.done()


def decode_feasible_table(payload: bytes) -> FeasibleTable:
    r = _Reader(payload)
    complete = bool(r.u8())
    before_start = _decode_feas_map(r)
    before_end = _decode_feas_map(r)
    text_states = frozenset(r.ints())
    r.expect_end()
    return FeasibleTable(
        before_start=before_start,
        before_end=before_end,
        text_states=text_states,
        complete=complete,
    )


# ---------------------------------------------------------------------------
# chunk splits
# ---------------------------------------------------------------------------


def encode_chunks(chunks: list[Chunk]) -> bytes:
    w = _Writer()
    w.u32(len(chunks))
    for c in chunks:
        w.u32(c.index)
        w.u64(c.begin)
        w.u64(c.end)
    return w.done()


def decode_chunks(payload: bytes) -> list[Chunk]:
    r = _Reader(payload)
    chunks = [Chunk(r.u32(), r.u64(), r.u64()) for _ in range(r.u32())]
    r.expect_end()
    for i, c in enumerate(chunks):
        if c.index != i or c.end < c.begin:
            raise CodecError(f"malformed chunk row {i}: {c}")
    return chunks


# ---------------------------------------------------------------------------
# token caches
# ---------------------------------------------------------------------------

#: token-cache payload modes
_MODE_CHUNKED = 0  # XML: one TokenColumns per chunk
_MODE_FLAT = 1     # JSON: a single TokenColumns


def _encode_token_run(w: _Writer, cols: TokenColumns) -> None:
    """One token sequence: its string table, then its three columns.

    The table is written as one UTF-8 blob plus an array of the
    strings' lengths in code points, and each column as the array it
    already is, so neither direction touches a row in Python.
    """
    w.int_array(array("q", map(len, cols.names)))
    w.string("".join(cols.names))
    w.u32(len(cols))
    w.blob(bytes(cols.kinds))
    w.int_array(cols.name_ids)
    w.int_array(cols.offsets)


def _column(r: _Reader, typecode: str) -> array:
    arr = r.int_array()
    if arr.typecode != typecode:
        raise CodecError(f"column typecode {arr.typecode!r}, expected {typecode!r}")
    return arr


def _decode_token_run(r: _Reader) -> TokenColumns:
    lengths = _column(r, "q")
    joined = r.string()
    if sum(lengths) != len(joined) or (lengths and min(lengths) < 0):
        raise CodecError("string table lengths disagree with its text")
    ends = list(accumulate(lengths))
    names = [joined[e - n:e] for n, e in zip(lengths, ends)]
    n = r.u32()
    kinds = bytearray(r.blob())
    name_ids = _column(r, "i")
    offsets = _column(r, "q")
    if not (len(kinds) == len(offsets) == len(name_ids) == n):
        raise CodecError("token columns disagree on length")
    if n and (max(kinds) > 2 or min(name_ids) < 0
              or max(name_ids) >= len(names)):
        raise CodecError("token kind or string reference out of range")
    return TokenColumns(kinds, name_ids, offsets, names)


def _encode_token_payload(mode: int, runs) -> bytes:
    w = _Writer()
    w.u8(mode)
    w.u32(len(runs))
    for run in runs:
        _encode_token_run(w, run)
    return w.done()


def _decode_token_payload(payload: bytes, mode: int) -> list[TokenColumns]:
    r = _Reader(payload)
    got = r.u8()
    if got != mode:
        raise CodecError(f"token payload mode {got}, expected {mode}")
    n_runs = r.u32()
    if n_runs > len(payload):
        raise CodecError(f"implausible run count {n_runs}")
    runs = [_decode_token_run(r) for _ in range(n_runs)]
    r.expect_end()
    return runs


# ---------------------------------------------------------------------------
# interned-subsequence memo snapshots
# ---------------------------------------------------------------------------


def encode_memo_table(seqs, entries) -> bytes:
    """A :class:`~repro.xpath.subseq.MemoTable` snapshot.

    ``seqs`` is the interned-sequence dictionary (each sequence an
    exact-key tuple of structural ``(kind, name)`` pairs, name blanked
    for TEXT tokens); ``entries`` maps ``(entry_state, seq_id)`` to
    ``(exit_state, events)`` with events as ``(evkind, sid, tok_idx,
    rel_depth)`` tuples.  Names go through a shared string table —
    memoized spans are repetitive structure by definition, so the same
    few tags dominate.
    """
    strings: list[str] = []
    table: dict[str, int] = {}
    body = _Writer()
    body.u32(len(seqs))
    for key in seqs:
        body.u32(len(key))
        for kind, name in key:
            body.u8(int(kind))
            ref = table.get(name)
            if ref is None:
                ref = table[name] = len(strings)
                strings.append(name)
            body.u32(ref)
    items = sorted(entries.items())
    body.u32(len(items))
    for (state, seq_id), (exit_state, events) in items:
        body.i64(state)
        body.u32(seq_id)
        body.i64(exit_state)
        body.u32(len(events))
        for evkind, sid, tok_idx, rel_depth in events:
            body.u8(evkind)
            body.u32(sid)
            body.u32(tok_idx)
            body.i64(rel_depth)
    w = _Writer()
    w.u32(len(strings))
    for s in strings:
        w.string(s)
    w.buf += body.buf
    return w.done()


def decode_memo_table(payload: bytes) -> tuple[list[tuple], dict]:
    r = _Reader(payload)
    n_strings = r.u32()
    if n_strings > len(payload):
        raise CodecError(f"implausible string table size {n_strings}")
    strings = [r.string() for _ in range(n_strings)]
    n_seqs = r.u32()
    if n_seqs > len(payload):
        raise CodecError(f"implausible sequence count {n_seqs}")
    seqs: list[tuple] = []
    for _ in range(n_seqs):
        n_toks = r.u32()
        key = []
        for _ in range(n_toks):
            kind = r.u8()
            if kind > 2:
                raise CodecError(f"bad token kind {kind} in memo sequence")
            ref = r.u32()
            if ref >= n_strings:
                raise CodecError("memo string reference out of range")
            key.append((kind, strings[ref]))
        seqs.append(tuple(key))
    entries: dict = {}
    n_entries = r.u32()
    if n_entries > len(payload):
        raise CodecError(f"implausible entry count {n_entries}")
    for _ in range(n_entries):
        state = r.i64()
        seq_id = r.u32()
        if seq_id >= n_seqs:
            raise CodecError("memo entry references unknown sequence")
        exit_state = r.i64()
        events = []
        for _ in range(r.u32()):
            evkind = r.u8()
            if evkind > 1:
                raise CodecError(f"bad memo event kind {evkind}")
            events.append((evkind, r.u32(), r.u32(), r.i64()))
        if (state, seq_id) in entries:
            raise CodecError("duplicate memo entry key")
        entries[(state, seq_id)] = (exit_state, tuple(events))
    r.expect_end()
    return seqs, entries


# ---------------------------------------------------------------------------
# token cache entry points
# ---------------------------------------------------------------------------


def encode_chunk_tokens(chunk_tokens: Iterable[TokenColumns]) -> bytes:
    """Per-chunk pre-lexed token columns (the XML registry cache)."""
    return _encode_token_payload(_MODE_CHUNKED, list(chunk_tokens))


def decode_chunk_tokens(payload: bytes) -> tuple[TokenColumns, ...]:
    return tuple(_decode_token_payload(payload, _MODE_CHUNKED))


def encode_tokens(tokens: TokenColumns) -> bytes:
    """A flat token sequence (the JSON registry cache)."""
    return _encode_token_payload(_MODE_FLAT, [tokens])


def decode_tokens(payload: bytes) -> TokenColumns:
    runs = _decode_token_payload(payload, _MODE_FLAT)
    if len(runs) != 1:
        raise CodecError(f"flat token payload holds {len(runs)} runs")
    return runs[0]


def encode_checkpoint(record: dict) -> bytes:
    """A stream checkpoint (:mod:`repro.stream.checkpoint`).

    Unlike the other artifact kinds — regular columnar structures — a
    checkpoint is an irregular, deeply nested snapshot (lexer tail,
    frame stack, pending events, a delta outbox), so the payload is a
    canonical JSON document inside the usual length-prefixed binary
    framing: the framing and schema stamp give the same fail-loud
    bounds checking, ``json.loads`` validates the interior, and the
    store's checksums cover corruption as for every other kind.
    """
    w = _Writer()
    w.u32(SCHEMAS["checkpoint"])
    w.string(json.dumps(record, separators=(",", ":"), sort_keys=True))
    return w.done()


def decode_checkpoint(payload: bytes) -> dict:
    r = _Reader(payload)
    version = r.u32()
    if version != SCHEMAS["checkpoint"]:
        raise CodecError(f"checkpoint schema v{version}, expected "
                         f"v{SCHEMAS['checkpoint']}")
    try:
        record = json.loads(r.string())
    except ValueError as exc:
        raise CodecError(f"checkpoint interior is not valid JSON: {exc}") from None
    r.expect_end()
    if not isinstance(record, dict):
        raise CodecError("checkpoint interior is not an object")
    return record
