"""Locate the repository's ``src/`` from this directory and import from it."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for traces and span files, ignored by git.
OUT_DIR = os.path.join(ROOT, ".bench_build", "bench")


class MissingSource(RuntimeError):
    pass


def use_repo_src() -> None:
    """Put ``src/`` first on ``sys.path`` and check that ``repro`` is
    imported from it, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingSource(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise MissingSource(f"repro imported from {repro.__file__}, not {SRC}")
