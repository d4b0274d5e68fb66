"""``repro.obs`` — the unified observability layer.

One :class:`Recorder` threads through machine → session → host, so a
single host request reconstructs as a span tree (host.tick →
session.pump → quantum → control events), and every tier's counters
and histograms are records of one declared type (:mod:`repro.obs.metrics`).
See ``docs/OBSERVABILITY.md`` for the model and overhead numbers.
"""

from repro.obs.export import render_timeline, to_chrome_trace, validate_chrome_trace
from repro.obs.histogram import Histogram
from repro.obs.metrics import COUNTER, HIGH_WATER, HISTOGRAM, Metrics, declare
from repro.obs.recorder import ObsEvent, Recorder, as_recorder

__all__ = [
    "COUNTER",
    "HIGH_WATER",
    "HISTOGRAM",
    "Histogram",
    "Metrics",
    "ObsEvent",
    "Recorder",
    "as_recorder",
    "declare",
    "render_timeline",
    "to_chrome_trace",
    "validate_chrome_trace",
]
