"""The replication wire format: WAL frames over JSON, CRC-checked twice.

There is deliberately no new framing here.  The primary streams the raw
bytes of its write-ahead log — the same length-prefixed, CRC32-checksummed
records recovery scans — base64-armored inside a JSON body.  The follower
decodes them with the *same* validation scan the crash-recovery path uses
(:func:`repro.storage.wal.scan_frames`), so a batch damaged in flight, a
torn tail served mid-append, or an injected cut all degrade identically:
the clean prefix applies, the damaged suffix is discarded and refetched.

Fault sites on the streaming path (see :mod:`repro.faults`):

==============================  ==========================================
``replication.stream.serve``    primary side, before answering a
                                snapshot/tail request (disconnects, 503s)
``replication.stream.torn``     primary side, after reading the tail —
                                the batch is cut mid-frame before serving
``replication.stream.apply``    follower side, before applying one record
                                (a stalled follower: delay, then proceed)
==============================  ==========================================

The failover coordinator (:mod:`repro.replication.failover`) adds three
more sites on the control path: ``replication.failover.health`` (a
topology probe fails), ``replication.failover.promote`` (the promotion
RPC fails), and ``replication.failover.demote`` (a demote/repoint
policing RPC fails).  Tail responses also carry the primary's fencing
``era``/``era_lsn`` and full ``era_history`` so followers can reject a
stale stream and a rejoiner can detect a divergent suffix.
"""

from __future__ import annotations

import base64

# The scan is the recovery validator; replication reuses it on purpose —
# the wire format *is* the log format, torn data included.
from repro.storage.wal import LogRecord, scan_frames

SITE_STREAM_SERVE = "replication.stream.serve"
SITE_STREAM_TORN = "replication.stream.torn"
SITE_STREAM_APPLY = "replication.stream.apply"


def decode_frames(frames: bytes, from_lsn: int) -> tuple[list[LogRecord], bool]:
    """Validate a received batch of raw WAL frames.

    ``from_lsn`` is the follower's applied LSN: the first frame must
    carry ``from_lsn + 1`` (dense LSNs, like the log itself).  Returns
    ``(records, clean)`` where ``records`` is the valid prefix and
    ``clean`` is False when trailing bytes failed validation — the
    follower applies the prefix and refetches the rest.
    """
    records, offsets = scan_frames(frames, 0, from_lsn + 1)
    return records, offsets[-1] == len(frames)


def frames_to_wire(frames: bytes) -> str:
    """Base64-armor raw frames for a JSON response body."""
    return base64.b64encode(frames).decode("ascii")


def frames_from_wire(text: str) -> bytes:
    """Decode the base64 frame blob of a tail response (strict)."""
    return base64.b64decode(text.encode("ascii"), validate=True)
