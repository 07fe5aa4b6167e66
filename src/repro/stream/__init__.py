"""Streaming subsystem: unbounded ingest and continuous queries.

Everything else in the library queries *finite* documents; this
package opens the workload family the ROADMAP calls "unbounded streams
and continuous queries" — logs, feeds, telemetry — by running the
query automaton *incrementally*:

* bytes arrive in arbitrary pieces and go through the incremental
  lexers (:class:`repro.xmlstream.incremental.IncrementalLexer`,
  :class:`repro.jsonstream.incremental.IncrementalJSONTokenizer`);
* tag-aligned chunks are **sealed** as soon as enough bytes accumulate
  and evaluated immediately, each from the exact ``(state, stack)`` the
  previous seal ended in — chunks are sealed in order, so a stream
  never needs the grammar's feasible-path table, a join search or
  misspeculation recovery (the grammar only identifies the stream);
* completed matches are emitted as **deltas** after each seal (the
  filter phase runs per anchor-balanced segment, so no unbounded event
  retention), pushed to subscribers via
  :class:`~repro.stream.hub.DeltaHub` (bounded ring, drop-oldest with
  a counted gap marker) and persisted as restart **checkpoints**
  (:mod:`repro.stream.checkpoint`) through the artifact store.

A finalized XML stream equals the exact-entry batch run of the
concatenated document over the same sealed partition, on matches and
work counters; a JSON stream's matches equal the batch run's.  The
differential battery pins both across backends.

Entry points: :class:`~repro.stream.session.StreamSession` (library,
in-process tailing), :class:`~repro.stream.manager.StreamManager`
(the service's stream registry, wired into ``repro serve``).
"""

from .hub import DeltaHub
from .manager import StreamConflict, StreamManager, StreamState, UnknownStream
from .session import StreamDelta, StreamError, StreamSession

__all__ = ["DeltaHub", "StreamConflict", "StreamDelta", "StreamError",
           "StreamManager", "StreamSession", "StreamState", "UnknownStream"]
