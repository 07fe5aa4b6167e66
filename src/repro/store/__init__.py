"""Persistent artifact store — warm starts for restarted workers.

See :mod:`repro.store.artifacts` for the on-disk contract (atomic
publication, checksum-verified reads, version-stamped invalidation),
:mod:`repro.store.codec` for the compact binary artifact encodings,
and :mod:`repro.store.docprep` for cache-aside document preparation.
Only the opt-in structural memo reaches the store through the
process-global hook in :mod:`repro.xpath.compile_tables`
(``set_artifact_store``); compiled tables are not stored.
"""

from .artifacts import ArtifactInfo, ArtifactStore, KINDS
from .codec import CodecError, SCHEMAS
from .docprep import content_key, prepare_json, prepare_xml

__all__ = [
    "ArtifactInfo",
    "ArtifactStore",
    "CodecError",
    "KINDS",
    "SCHEMAS",
    "content_key",
    "prepare_json",
    "prepare_xml",
]
