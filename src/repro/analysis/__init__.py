"""Static analysis over the core IR.

Section 8 of the paper argues that ``spawn`` improves *analyzability*:

    "Programs written with spawn are more easily analyzed, because the
    effects of a process controller created by spawn are limited to
    the dynamic context of the call to spawn and because access to the
    controller can be restricted."

:func:`repro.analysis.escape.analyze_spawns` makes that claim
executable: it finds every ``spawn`` site in a program (both IR
dialects — pre-resolution and resolved) and classifies its controller:
**confined** (used only in ways that cannot outlive the process) or
**escaping** (stored in a mutable cell, returned as part of the value,
passed to unknown code).  A confined controller's effects provably stay
inside the spawn's dynamic extent — the property the paper highlights.
:func:`repro.analysis.escape.spawn_report` renders the analysis for
humans (and the REPL's ``,analyze``).

By contrast ``call/cc``'s continuation always ranges over the whole
program, so no such local argument exists — which is exactly the
paper's criticism of it.
"""

from repro.analysis.escape import (
    SpawnSite,
    analyze_spawns,
    analyze_source,
    spawn_report,
)

__all__ = [
    "SpawnSite",
    "analyze_source",
    "analyze_spawns",
    "spawn_report",
]
