"""Shared benchmark helpers.

Every benchmark prints the rows it reproduces (`-s` to see them live);
EXPERIMENTS.md records a captured run.  Benchmarks use modest sizes so
`pytest benchmarks/ --benchmark-only` completes in minutes on a laptop:
the claims are about *shape* (scaling, crossovers, who wins), not
absolute 1990 numbers.
"""

from __future__ import annotations

import gc

import pytest

from repro import Interpreter


@pytest.fixture(autouse=True)
def quiet_collector():
    """Move what earlier benchmarks left on the heap out of the
    collector's reach: a full collection would otherwise re-scan all of
    it, and one such pause inside a timed loop dwarfs the μs-scale cost
    a shape check compares."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture
def interp() -> Interpreter:
    return Interpreter()


@pytest.fixture
def paper_interp() -> Interpreter:
    i = Interpreter()
    for name in (
        "product0",
        "product-callcc",
        "product-callcc-leaf",
        "product-of-products-callcc",
        "spawn/exit",
        "sum-of-products",
        "product-of-products-spawn",
        "first-true",
        "parallel-or",
        "parallel-search",
        "search-all",
    ):
        i.load_paper_example(name)
    return i


def scheme_list(values) -> str:
    return "(" + " ".join(str(v) for v in values) + ")"
