"""Snapshot stores: where the cluster keeps each session's checkpoint
and the requests it has run since.

The cluster's durability model is a *checkpoint plus a request log*.
The machine is deterministic given its policy and seed, so a session's
state is its last snapshot blob (the checkpoint) plus the requests it
has completed since, re-run in order.  The front appends one record per
acknowledged request to the session's log, and answers only after the
append; a new checkpoint replaces the blob and empties the log.  A
store therefore always holds, for every session, enough to rehydrate it
on any shard — the replay point when a shard dies.  Records are opaque
bytes here (the shard writes and reads them, :mod:`repro.cluster.shard`)
and never contain a newline.

Two implementations:

* :class:`MemoryStore` — dicts in the front process.  Fast, survives
  shard deaths (the state lives in the front, not the shards), gone
  when the front exits.
* :class:`DirectoryStore` — one ``<session-id>.session`` file per
  session: the checkpoint, then the log.  A checkpoint rewrites the file
  via temp-file + :func:`os.replace`, so readers never observe a torn
  blob; a log record is appended with its checksum, so a record torn by
  a crash mid-append is skipped on read.  Survives the front itself; a
  new cluster pointed at the same directory picks up every session,
  including the bare ``.rsnp`` blobs a store before 6.0 wrote.
"""

from __future__ import annotations

import os
import tempfile
import zlib

__all__ = ["DirectoryStore", "MemoryStore", "SnapshotStore"]


class SnapshotStore:
    """Interface: per session id, its latest checkpoint blob and the log
    of records appended since."""

    def put(self, session_id: str, blob: bytes) -> None:
        """Store a checkpoint; it replaces the session's log with an
        empty one."""
        raise NotImplementedError

    def get(self, session_id: str) -> bytes | None:
        """The session's checkpoint, or None if it has none."""
        raise NotImplementedError

    def append(self, session_id: str, record: bytes) -> None:
        """Add one record to the session's log (a session with no
        checkpoint has a log from its creation)."""
        raise NotImplementedError

    def log(self, session_id: str) -> list[bytes]:
        """The records appended since the last checkpoint, in order."""
        raise NotImplementedError

    def load(self, session_id: str) -> tuple[bytes | None, list[bytes]]:
        """The checkpoint and the log together, what a rebuild reads.
        A store that keeps both in one place overrides this to read it
        once."""
        return self.get(session_id), self.log(session_id)

    def delete(self, session_id: str) -> None:
        """Drop the session's checkpoint and log."""
        raise NotImplementedError

    def ids(self) -> list[str]:
        """Every session with a checkpoint or a log."""
        raise NotImplementedError


class MemoryStore(SnapshotStore):
    """Checkpoints and logs held in the front process's memory."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._logs: dict[str, list[bytes]] = {}

    def put(self, session_id: str, blob: bytes) -> None:
        self._blobs[session_id] = blob
        self._logs[session_id] = []

    def get(self, session_id: str) -> bytes | None:
        return self._blobs.get(session_id)

    def append(self, session_id: str, record: bytes) -> None:
        self._logs.setdefault(session_id, []).append(record)

    def log(self, session_id: str) -> list[bytes]:
        return list(self._logs.get(session_id, ()))

    def delete(self, session_id: str) -> None:
        self._blobs.pop(session_id, None)
        self._logs.pop(session_id, None)

    def ids(self) -> list[str]:
        return sorted(self._logs.keys() | self._blobs.keys())

    def __len__(self) -> int:
        return len(self.ids())

    def __repr__(self) -> str:
        total = sum(len(b) for b in self._blobs.values())
        records = sum(len(log) for log in self._logs.values())
        return f"#<memory-store {len(self._blobs)} snapshots {total} bytes {records} logged>"


class DirectoryStore(SnapshotStore):
    """Sessions as files under a directory, one per session.

    A file is ``<blob length>\\n<blob>`` followed by one
    ``\\n<crc32 hex> <record>`` frame per log record; length 0 means no
    checkpoint.  Checkpoint and log share the file, so a checkpoint
    replaces both in one atomic :func:`os.replace` and no crash can pair
    a blob with another blob's log.

    A directory written before 6.0 holds one bare blob per session,
    ``<session-id>.rsnp``; opening it turns each into a ``.session``
    file holding that blob as the checkpoint, with an empty log.
    """

    #: File suffix.
    SUFFIX = ".session"
    #: File suffix of a bare blob written before 6.0.
    LEGACY_SUFFIX = ".rsnp"

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        for entry in os.listdir(path):
            if entry.endswith(self.LEGACY_SUFFIX):
                legacy = os.path.join(path, entry)
                target = legacy[: -len(self.LEGACY_SUFFIX)] + self.SUFFIX
                if not os.path.exists(target):  # else converted before a crash
                    with open(legacy, "rb") as fh:
                        blob = fh.read()
                    self._replace(target, b"%d\n" % len(blob) + blob)
                os.unlink(legacy)

    def _file(self, session_id: str) -> str:
        # Session ids may contain path-hostile characters; escape to a
        # flat, reversible filename.
        escaped = session_id.replace("%", "%25").replace("/", "%2F").replace(os.sep, "%5C")
        return os.path.join(self.path, escaped + self.SUFFIX)

    def _replace(self, target: str, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _read(self, session_id: str) -> tuple[bytes | None, list[bytes]]:
        try:
            with open(self._file(session_id), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None, []
        head, _, rest = data.partition(b"\n")
        size = int(head)
        records = []
        for frame in rest[size:].split(b"\n")[1:]:
            crc, _, record = frame.partition(b" ")
            if crc == b"%08x" % zlib.crc32(record):
                records.append(record)
        return (rest[:size] if size else None), records

    def put(self, session_id: str, blob: bytes) -> None:
        self._replace(self._file(session_id), b"%d\n" % len(blob) + blob)

    def get(self, session_id: str) -> bytes | None:
        return self._read(session_id)[0]

    def append(self, session_id: str, record: bytes) -> None:
        path = self._file(session_id)
        if not os.path.exists(path):
            self._replace(path, b"0\n")
        with open(path, "ab") as fh:
            fh.write(b"\n%08x %s" % (zlib.crc32(record), record))

    def log(self, session_id: str) -> list[bytes]:
        return self._read(session_id)[1]

    def load(self, session_id: str) -> tuple[bytes | None, list[bytes]]:
        return self._read(session_id)

    def delete(self, session_id: str) -> None:
        try:
            os.unlink(self._file(session_id))
        except FileNotFoundError:
            pass

    def ids(self) -> list[str]:
        out = []
        for entry in os.listdir(self.path):
            if entry.endswith(self.SUFFIX):
                name = entry[: -len(self.SUFFIX)]
                out.append(
                    name.replace("%5C", os.sep).replace("%2F", "/").replace("%25", "%")
                )
        return sorted(out)

    def __repr__(self) -> str:
        return f"#<directory-store {self.path!r}>"
