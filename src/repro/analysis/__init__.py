"""Static analysis over the core IR.

Section 8 of the paper argues that ``spawn`` improves *analyzability*:

    "Programs written with spawn are more easily analyzed, because the
    effects of a process controller created by spawn are limited to
    the dynamic context of the call to spawn and because access to the
    controller can be restricted."

This package makes that claim executable, in two tiers:

* :func:`repro.analysis.escape.analyze_spawns` finds every ``spawn``
  site in a program (both IR dialects — pre-resolution and resolved)
  and classifies its controller: **confined** (used only in ways that
  cannot outlive the process) or **escaping** (stored in a mutable
  cell, returned as part of the value, passed to unknown code).  A
  confined controller's effects provably stay inside the spawn's
  dynamic extent — the property the paper highlights.
  :func:`repro.analysis.escape.spawn_report` renders the analysis for
  humans (and the REPL's ``,analyze``).
* :mod:`repro.analysis.effects` generalizes this into a compiler phase:
  :func:`~repro.analysis.effects.annotate_program` stamps every lambda
  with an interned :class:`~repro.analysis.effects.EffectInfo`
  (capture-free / spawn-free / controller-confined / known-total), and
  :func:`~repro.analysis.effects.analyze` surfaces a
  :class:`~repro.analysis.effects.ProgramReport` so sessions and hosts
  can tag requests pure / capture-heavy / spawning and budget them
  differently.  The run loops exploit the same facts: a form proven
  capture- and spawn-free is single-task forever, so the scheduler
  grants it an enlarged quantum (see docs/ANALYSIS.md).

By contrast ``call/cc``'s continuation always ranges over the whole
program, so no such local argument exists — which is exactly the
paper's criticism of it.
"""

from repro.analysis.effects import (
    ANALYSIS_METRICS,
    EffectInfo,
    FormFacts,
    ProgramReport,
    analyze,
    annotate_program,
    single_task_form,
)
from repro.analysis.escape import (
    SpawnSite,
    analyze_spawns,
    analyze_source,
    spawn_report,
)

__all__ = [
    "ANALYSIS_METRICS",
    "EffectInfo",
    "FormFacts",
    "ProgramReport",
    "SpawnSite",
    "analyze",
    "analyze_source",
    "analyze_spawns",
    "annotate_program",
    "single_task_form",
    "spawn_report",
]
