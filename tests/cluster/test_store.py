"""Snapshot stores: checkpoint and log semantics, atomicity plumbing,
torn log records, filename escaping."""

from __future__ import annotations

import os
import zlib

from repro import Session
from repro.cluster import Cluster, DirectoryStore, MemoryStore


def exercise(store):
    assert store.get("a") is None
    store.put("a", b"blob-a")
    store.put("b", b"blob-b")
    assert store.get("a") == b"blob-a"
    assert store.ids() == ["a", "b"]
    store.put("a", b"blob-a2")  # overwrite
    assert store.get("a") == b"blob-a2"
    store.delete("a")
    assert store.get("a") is None
    store.delete("a")  # idempotent
    assert store.ids() == ["b"]
    # A session with no checkpoint has a log from its creation.
    store.append("c", b"r1")
    store.append("c", b"r2")
    assert (store.get("c"), store.log("c")) == (None, [b"r1", b"r2"])
    assert store.ids() == ["b", "c"]
    # A checkpoint empties the log; later records follow it.
    store.put("c", b"blob-c")
    assert store.log("c") == []
    store.append("c", b"r3")
    assert (store.get("c"), store.log("c")) == (b"blob-c", [b"r3"])
    assert store.load("c") == (b"blob-c", [b"r3"])
    store.delete("c")
    assert (store.get("c"), store.log("c"), store.ids()) == (None, [], ["b"])


def test_memory_store():
    exercise(MemoryStore())


def test_directory_store(tmp_path):
    exercise(DirectoryStore(str(tmp_path / "snaps")))


def test_directory_store_persists_across_instances(tmp_path):
    path = str(tmp_path / "snaps")
    DirectoryStore(path).put("sess", b"payload")
    again = DirectoryStore(path)
    assert again.get("sess") == b"payload"
    assert again.ids() == ["sess"]


def test_directory_store_escapes_hostile_ids(tmp_path):
    store = DirectoryStore(str(tmp_path / "snaps"))
    hostile = "../../etc/passwd%sneaky"
    store.put(hostile, b"x")
    # Nothing escaped the store directory...
    assert not (tmp_path / "etc").exists()
    files = os.listdir(str(tmp_path / "snaps"))
    assert len(files) == 1
    # ...and the id round-trips exactly.
    assert store.ids() == [hostile]
    assert store.get(hostile) == b"x"


def test_directory_store_no_tmp_litter(tmp_path):
    path = str(tmp_path / "snaps")
    store = DirectoryStore(path)
    for i in range(5):
        store.put("s", b"v" * (i + 1))
    assert [f for f in os.listdir(path) if f.endswith(".tmp")] == []


def test_directory_store_skips_a_torn_record(tmp_path):
    """A record torn by a crash mid-append was never acknowledged: the
    log skips it, and the next append still reads back."""
    store = DirectoryStore(str(tmp_path))
    store.put("s", b"blob")
    store.append("s", b"first")
    frame = b"\n%08x second" % zlib.crc32(b"second")
    with open(tmp_path / ("s" + DirectoryStore.SUFFIX), "ab") as fh:
        fh.write(frame[:12])
    assert store.log("s") == [b"first"]
    store.append("s", b"third")
    assert (store.get("s"), store.log("s")) == (b"blob", [b"first", b"third"])


def test_directory_store_resumes_a_store_written_before_6_0(tmp_path):
    """A 5.x store kept one bare blob per session, ``<id>.rsnp``: each
    becomes the session's checkpoint, with an empty log."""
    session = Session(prelude=False)
    session.eval("(define n 41)")
    (tmp_path / "a%2Fb.rsnp").write_bytes(session.snapshot())
    store = DirectoryStore(str(tmp_path))
    assert os.listdir(tmp_path) == ["a%2Fb" + DirectoryStore.SUFFIX]
    assert store.ids() == ["a/b"] and store.log("a/b") == []
    with Cluster(workers=0, store=store) as c:
        assert c.submit("a/b", "(+ n 1)").value == "42"
