"""Golden corpus: the Scheme text the repository ships reads to pinned data.

The digest covers the printed form of every datum in the prelude, the
derived libraries, the paper's examples and ``examples/selftest.ss``.
A reader change that alters any datum changes the digest.
"""

import hashlib
from pathlib import Path

from repro.datum import scheme_repr
from repro.lib import LIBRARIES, PRELUDE, paper_examples
from repro.reader import read_all

SELFTEST = Path(__file__).parent.parent.parent / "examples" / "selftest.ss"

DIGEST = "bf90de19a0125c899779962f5bfc41856f71c31069b0ecfed2f5f43b7544f489"


def corpus():
    yield PRELUDE
    yield from LIBRARIES.values()
    for source, _ in paper_examples.ALL.values():
        yield source
    yield SELFTEST.read_text(encoding="utf-8")


def test_corpus_reads_to_pinned_data():
    digest = hashlib.sha256()
    for source in corpus():
        for datum in read_all(source):
            digest.update(scheme_repr(datum).encode("utf-8") + b"\n")
    assert digest.hexdigest() == DIGEST
