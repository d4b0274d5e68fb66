"""Declared metrics: one record type for the counters of every tier.

Each tier — the resolver, compiler and code generator, then session,
host, cluster front and gateway — declares its metrics once, as a
namespace plus an ordered list of ``(name, kind, help)``::

    RESOLVER_METRICS = declare("resolver", [
        ("locals", COUNTER, "references and assignments given a slot address"),
        ...
    ])

:func:`declare` makes a :class:`Metrics` subclass with one slot per
metric, so a count on a hot path stays a plain attribute add
(``stats.locals += 1``) and a histogram is a
:class:`~repro.obs.histogram.Histogram` that observes on its own.
Everything else is written once, here, and follows the declaration
order:

* :meth:`Metrics.as_dict` — the counters as ``{"<namespace>.<name>":
  int}``: what ``stats`` exports;
* :meth:`Metrics.histograms` — each histogram's JSON summary, keyed the
  same way;
* :meth:`Metrics.rollup` — one record combining many (``Host.stats``
  over its sessions);
* :meth:`Metrics.snapshot` / :meth:`Metrics.restore` — the tuple a
  session snapshot carries.  Declaration order is wire order, so a
  declaration may gain metrics only at the end of its list, behind a
  snapshot format bump.

The three kinds differ only in how a rollup combines them:

``counter``
    a count that only grows; rollups add.
``high-water``
    the largest value seen, such as a queue's peak depth; rollups take
    the maximum.
``histogram``
    a distribution; rollups merge the buckets.  Histograms stay out of
    ``as_dict``, so ``stats`` holds only ints.
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterable

from repro.obs.histogram import Histogram

__all__ = ["COUNTER", "HIGH_WATER", "HISTOGRAM", "Metrics", "declare"]

COUNTER = "counter"
HIGH_WATER = "high-water"
HISTOGRAM = "histogram"
_KINDS = (COUNTER, HIGH_WATER, HISTOGRAM)


class Metrics:
    """A record of declared metrics; :func:`declare` makes the
    subclasses.  A fresh record holds zeros and empty histograms."""

    __slots__ = ()

    #: Every key is ``"<namespace>.<name>"``.
    namespace: ClassVar[str] = ""
    #: The declaration: ``(name, kind, help)`` in order.
    declared: ClassVar[tuple[tuple[str, str, str], ...]] = ()
    #: Counter and high-water names, in declaration order.
    scalars: ClassVar[tuple[str, ...]] = ()
    #: Histogram names, in declaration order.
    distributions: ClassVar[tuple[str, ...]] = ()

    def __init__(self) -> None:
        for name in self.scalars:
            setattr(self, name, 0)
        for name in self.distributions:
            setattr(self, name, Histogram())

    def as_dict(self, namespace: str | None = None) -> dict[str, int]:
        """The counters and high-water marks under ``namespace``
        (default: the declared one)."""
        ns = self.namespace if namespace is None else namespace
        return {f"{ns}.{name}": getattr(self, name) for name in self.scalars}

    def histograms(self, namespace: str | None = None) -> dict[str, Any]:
        """Each histogram's summary, JSON-ready, under ``namespace``
        (default: the declared one)."""
        ns = self.namespace if namespace is None else namespace
        return {f"{ns}.{name}": getattr(self, name).as_dict() for name in self.distributions}

    @classmethod
    def rollup(cls, records: Iterable["Metrics"]) -> "Metrics":
        """A fresh record combining ``records`` of this declaration:
        counters add, high-water marks take the maximum, histograms
        merge."""
        total = cls()
        for record in records:
            for name, kind, _ in cls.declared:
                mine, theirs = getattr(total, name), getattr(record, name)
                if kind == COUNTER:
                    setattr(total, name, mine + theirs)
                elif kind == HIGH_WATER:
                    setattr(total, name, max(mine, theirs))
                else:
                    mine.merge(theirs)
        return total

    def snapshot(self) -> tuple:
        """The record as a session snapshot carries it: the scalars as
        one tuple, followed — for a record with histograms — by each
        histogram's :meth:`~repro.obs.histogram.Histogram.state`."""
        scalars = tuple(getattr(self, name) for name in self.scalars)
        if not self.distributions:
            return scalars
        return (scalars, *(getattr(self, name).state() for name in self.distributions))

    def restore(self, data: tuple) -> None:
        """Load what :meth:`snapshot` returned."""
        scalars, states = (data[0], data[1:]) if self.distributions else (data, ())
        for name, value in zip(self.scalars, scalars, strict=True):
            setattr(self, name, value)
        for name, state in zip(self.distributions, states, strict=True):
            setattr(self, name, Histogram.from_state(state))

    def __repr__(self) -> str:
        counts = " ".join(f"{name}={getattr(self, name)}" for name in self.scalars)
        return f"#<metrics {self.namespace} {counts}>"


def declare(namespace: str, fields: list[tuple[str, str, str]]) -> type[Metrics]:
    """The record class for one declaration: ``fields`` is an ordered
    list of ``(name, kind, help)``, each name an identifier unique in
    the list and each kind one of ``counter``, ``high-water`` or
    ``histogram``."""
    names = [name for name, _, _ in fields]
    for name, kind, _ in fields:
        if kind not in _KINDS:
            raise ValueError(f"{namespace}.{name}: unknown metric kind {kind!r}")
        if not name.isidentifier() or hasattr(Metrics, name):
            raise ValueError(f"{namespace}.{name}: not usable as a metric name")
    if len(set(names)) != len(names):
        raise ValueError(f"{namespace}: a metric is declared twice")
    return type(
        f"Metrics[{namespace}]",
        (Metrics,),
        {
            "__slots__": tuple(names),
            "namespace": namespace,
            "declared": tuple(fields),
            "scalars": tuple(name for name, kind, _ in fields if kind != HISTOGRAM),
            "distributions": tuple(name for name, kind, _ in fields if kind == HISTOGRAM),
        },
    )
