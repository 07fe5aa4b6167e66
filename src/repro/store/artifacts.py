"""Disk-backed artifact store — warm starts for restarted workers.

The expensive per-document preparation (chunk splits with their entry
paths, pre-lexed token caches) normally lives in per-process memory,
so a restarted or freshly sharded worker re-splits and re-lexes
everything.  The store persists those artifacts under content-hash
keys so the *next* process skips the work:

* **cache-aside** under the service :class:`DocumentRegistry` (and
  ``--artifact-store`` one-shots): chunk splits and token caches are
  looked up by document content hash before lexing, and published
  after — at registration, never on a query;
* stream checkpoints (:mod:`repro.stream`) and the opt-in structural
  memo's snapshots (:mod:`repro.xpath.subseq`).

Compiled kernel tables are not stored: compiling a merged query set
takes less time than reading it back, and far less than an fsynced
write (docs/PERFORMANCE.md, "Artifact store").

Layout on disk::

    <root>/
      tmp/                          in-flight writes (unique names)
      <kind>/<key[:2]>/<key>.art    published artifacts

Every artifact is a fixed header followed by the payload::

    magic "RPAS" | format u16 | schema u16 | length u64 | sha256(payload)

Publication is **atomic**: payloads are written to ``tmp/`` under a
unique name, fsynced, then :func:`os.replace`'d into place — readers
racing a writer see either the complete old file, the complete new
file, or nothing; never a partial write.  Reads verify magic, format
and schema versions, payload length and checksum; any violation —
truncation, bit-flip, zero-fill, a version bump — is a **clean miss**
(counted as *invalid*, journalled) and never an exception or a
poisoned result.  Concurrent stores in many processes sharing one
directory need no coordination beyond the filesystem's atomic rename.

The store never raises into a query path: I/O errors on read degrade
to a miss, on write to a dropped publication (logged at WARNING).
"""

from __future__ import annotations

import logging
import os
import re
import struct
import threading
import time
from dataclasses import dataclass
from hashlib import sha256

from ..obs.journal import NULL_JOURNAL
from .codec import SCHEMAS

__all__ = ["ArtifactStore", "ArtifactInfo", "KINDS"]

log = logging.getLogger(__name__)

#: header: magic, container format version, per-kind schema version,
#: payload length, payload sha256
_HEADER = struct.Struct("<4sHHQ32s")
_MAGIC = b"RPAS"
#: container format version — the header layout itself
FORMAT_VERSION = 1

#: the artifact kinds this store understands (each with a schema
#: version in :data:`repro.store.codec.SCHEMAS`)
KINDS = tuple(sorted(SCHEMAS))

#: keys are hex content hashes; bound the charset/length so a key can
#: never traverse outside the store root
_KEY_RE = re.compile(r"^[0-9a-f]{8,128}$")

_SUFFIX = ".art"


@dataclass(slots=True, frozen=True)
class ArtifactInfo:
    """One on-disk artifact, as seen by :meth:`ArtifactStore.scan`."""

    kind: str
    key: str
    path: str
    n_bytes: int
    valid: bool
    reason: str  # "" when valid


class ArtifactStore:
    """Content-hash-keyed persistent artifact store over one directory.

    Thread- and process-safe for concurrent readers and writers: all
    cross-process coordination is atomic-rename publication; the
    in-process hit/miss/write/invalid counters are guarded by a lock.

    ``metrics``/``journal``/``obs_lock`` are optional observability
    hooks: when the query service owns the store it passes its
    :class:`MetricsRegistry`, its journal and the ``_obs_lock`` that
    serialises both; standalone users (CLI one-shots, benchmarks) can
    omit all three.
    """

    def __init__(
        self,
        root: str,
        metrics=None,
        journal=NULL_JOURNAL,
        obs_lock: threading.Lock | None = None,
    ) -> None:
        self.root = os.path.abspath(root)
        self._tmp = os.path.join(self.root, "tmp")
        os.makedirs(self._tmp, exist_ok=True)
        self._journal = journal
        self._obs_lock = obs_lock or threading.Lock()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._invalid = 0
        self._seq = 0
        if metrics is not None:
            self._m_hits = metrics.counter(
                "repro_store_hits_total", "Artifact store read hits")
            self._m_misses = metrics.counter(
                "repro_store_misses_total", "Artifact store read misses")
            self._m_writes = metrics.counter(
                "repro_store_writes_total", "Artifacts published to the store")
            self._m_invalid = metrics.counter(
                "repro_store_invalid_total",
                "Artifacts rejected as corrupt, truncated or stale")
        else:
            self._m_hits = self._m_misses = None
            self._m_writes = self._m_invalid = None

    # -- paths ---------------------------------------------------------

    def _path(self, kind: str, key: str) -> str:
        if kind not in SCHEMAS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        if not _KEY_RE.match(key):
            raise ValueError(f"malformed artifact key {key!r}")
        return os.path.join(self.root, kind, key[:2], key + _SUFFIX)

    # -- observability -------------------------------------------------

    def _count(self, field: str, counter, event: str, **args) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + 1)
        if counter is not None or self._journal.enabled:
            with self._obs_lock:
                if counter is not None:
                    counter.inc()
                if self._journal.enabled:
                    self._journal.record(event, **args)

    def counters(self) -> dict[str, int]:
        """Lifetime ``{"hits", "misses", "writes", "invalid"}`` counts."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "writes": self._writes,
                "invalid": self._invalid,
            }

    # -- read ----------------------------------------------------------

    def get(self, kind: str, key: str) -> bytes | None:
        """The payload published under ``(kind, key)``, or ``None``.

        Outcomes are disjoint: a verified payload is a **hit**; an
        absent file is a **miss**; anything unreadable or failing
        verification is **invalid** (counted separately, journalled
        with the reason) and also returns ``None``.  Never raises for
        on-disk state.
        """
        path = self._path(kind, key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            self._count("_misses", self._m_misses, "store_miss", artifact=kind)
            return None
        except OSError as exc:
            self._count("_invalid", self._m_invalid, "store_invalid",
                        artifact=kind, reason=f"io:{exc.errno}")
            return None
        payload, reason = self._verify(kind, data)
        if payload is None:
            self._count("_invalid", self._m_invalid, "store_invalid",
                        artifact=kind, reason=reason)
            return None
        self._count("_hits", self._m_hits, "store_hit",
                    artifact=kind, bytes=len(payload))
        return payload

    @staticmethod
    def _verify(kind: str, data: bytes) -> tuple[bytes | None, str]:
        """Check ``data`` against the header contract: (payload, reason)."""
        if len(data) < _HEADER.size:
            return None, "truncated-header"
        magic, fmt, schema, length, digest = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            return None, "bad-magic"
        if fmt != FORMAT_VERSION:
            return None, f"format-version:{fmt}"
        if schema != SCHEMAS[kind]:
            return None, f"schema-version:{schema}"
        payload = data[_HEADER.size:]
        if len(payload) != length:
            return None, "length-mismatch"
        if sha256(payload).digest() != digest:
            return None, "checksum-mismatch"
        return payload, ""

    # -- write ---------------------------------------------------------

    def put(self, kind: str, key: str, payload: bytes) -> bool:
        """Atomically publish ``payload`` under ``(kind, key)``.

        Safe to race with other writers of the same key (last rename
        wins; contents are equal by construction since keys are content
        hashes) and with readers (who only ever see complete files).
        Returns False — never raises — when the filesystem refuses.
        """
        path = self._path(kind, key)
        header = _HEADER.pack(
            _MAGIC, FORMAT_VERSION, SCHEMAS[kind],
            len(payload), sha256(payload).digest(),
        )
        with self._lock:
            self._seq += 1
            seq = self._seq
        tmp_path = os.path.join(
            self._tmp, f"{kind}-{key[:16]}-{os.getpid()}-{seq}.tmp")
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp_path, "wb") as fh:
                fh.write(header)
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, path)
        except OSError as exc:
            log.warning("artifact store: dropped %s/%s: %s", kind, key, exc)
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        self._count("_writes", self._m_writes, "store_write",
                    artifact=kind, bytes=len(payload))
        return True

    def invalidate(self, kind: str, key: str, reason: str) -> None:
        """Record a caller-side rejection (e.g. decode failure) and
        best-effort remove the artifact so it is not re-read."""
        self._count("_invalid", self._m_invalid, "store_invalid",
                    artifact=kind, reason=reason)
        try:
            os.unlink(self._path(kind, key))
        except OSError:
            pass

    # -- maintenance ---------------------------------------------------

    def scan(self) -> list[ArtifactInfo]:
        """Every published artifact, verified (for ``verify``/``gc``)."""
        out: list[ArtifactInfo] = []
        for kind in KINDS:
            kind_dir = os.path.join(self.root, kind)
            if not os.path.isdir(kind_dir):
                continue
            for shard in sorted(os.listdir(kind_dir)):
                shard_dir = os.path.join(kind_dir, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for fname in sorted(os.listdir(shard_dir)):
                    if not fname.endswith(_SUFFIX):
                        continue
                    path = os.path.join(shard_dir, fname)
                    key = fname[:-len(_SUFFIX)]
                    try:
                        with open(path, "rb") as fh:
                            data = fh.read()
                    except OSError as exc:
                        out.append(ArtifactInfo(
                            kind, key, path, 0, False, f"io:{exc.errno}"))
                        continue
                    payload, reason = self._verify(kind, data)
                    out.append(ArtifactInfo(
                        kind, key, path, len(data), payload is not None, reason))
        return out

    def gc(self, max_age: float | None = None) -> dict[str, int]:
        """Remove invalid artifacts and stale temp files.

        ``max_age`` (seconds) additionally prunes valid artifacts whose
        mtime is older — bounded disk for long-lived fleet stores.
        Returns ``{"removed", "kept", "tmp_removed"}``.
        """
        removed = kept = 0
        now = time.time()
        for info in self.scan():
            drop = not info.valid
            if not drop and max_age is not None:
                try:
                    drop = now - os.path.getmtime(info.path) > max_age
                except OSError:
                    drop = True
            if drop:
                try:
                    os.unlink(info.path)
                    removed += 1
                except OSError:
                    kept += 1
            else:
                kept += 1
        tmp_removed = 0
        try:
            stale = os.listdir(self._tmp)
        except OSError:
            stale = []
        for fname in stale:
            path = os.path.join(self._tmp, fname)
            try:
                # a live writer's temp file is at most seconds old
                if now - os.path.getmtime(path) > 300:
                    os.unlink(path)
                    tmp_removed += 1
            except OSError:
                pass
        return {"removed": removed, "kept": kept, "tmp_removed": tmp_removed}
