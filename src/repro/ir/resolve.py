"""The resolver: lexical addressing as a compile stage.

``resolve_program`` runs between the expander and the machine.  It
walks the eight expander-emitted node kinds and rewrites every
variable reference and assignment into its *resolved* form:

* a name bound by an enclosing ``Lambda`` becomes
  ``LocalRef(depth, index)`` / ``LocalSet(depth, index, expr)`` — the
  machine walks ``depth`` parent ribs and indexes a flat slot list,
  with no symbol hashing on the hot path;
* any other name becomes ``GlobalRef(cell)`` / ``GlobalSet(cell,
  expr)``, where ``cell`` is the mutable one-slot box interned in the
  :class:`~repro.machine.environment.GlobalEnv` — a global reference
  is one attribute read, and a reference compiled before its
  ``define`` still resolves correctly at first touch because the cell
  is shared, not the value.

Each ``Lambda`` is stamped with ``nslots`` — the slot count of the rib
one application allocates (``len(params)``, plus one slot collecting
the rest argument).  Thunks (no params, no rest) get ``nslots == 0``
and allocate nothing: the resolver skips their rib in the depth
accounting, so ``apply_procedure`` can reuse the closure's captured
environment directly.

The scope discipline mirrors :mod:`repro.ir.free_vars` (the proven
walker for "is this name lambda-bound here?"); the resolver only adds
*where* — the ``(depth, index)`` coordinates.

Resolved lambdas are also where the capture/effect phase
(:mod:`repro.analysis.effects`) hangs its facts: ``annotate_program``
runs right after ``resolve_program`` and stamps each ``Lambda`` with an
:class:`~repro.analysis.effects.EffectInfo`; the resolver itself only
passes any pre-existing ``effects`` through unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.datum import Symbol
from repro.ir.nodes import (
    App,
    Const,
    DefineTop,
    GlobalRef,
    GlobalSet,
    If,
    Lambda,
    LocalRef,
    LocalSet,
    Node,
    Pcall,
    Seq,
    SetBang,
    Var,
)
from repro.obs.metrics import COUNTER, Metrics, declare

if TYPE_CHECKING:  # pragma: no cover - avoids an ir <-> machine cycle
    from repro.machine.environment import GlobalEnv

__all__ = ["RESOLVER_METRICS", "resolve_program", "resolve_node"]

#: Counters accumulated across every ``resolve_program`` call of a
#: session (``resolver.*`` in ``stats``).
RESOLVER_METRICS = declare(
    "resolver",
    [
        ("locals", COUNTER, "references and assignments given a (depth, index) slot address"),
        ("globals", COUNTER, "references and assignments bound to a global cell"),
        ("lambdas", COUNTER, "lambdas resolved"),
        ("cells_interned", COUNTER, "global cells created by resolution"),
        ("cell_cache_hits", COUNTER, "global names whose cell already existed"),
    ],
)


class _Resolver:
    """One resolve run: a scope stack of ribs (innermost last), each
    rib a ``name -> index`` dict."""

    __slots__ = ("globals", "stats", "scope")

    def __init__(self, globals_: "GlobalEnv", stats: Metrics):
        self.globals = globals_
        self.stats = stats
        self.scope: list[dict[Symbol, int]] = []

    # -- name resolution ---------------------------------------------------

    def _local_address(self, name: Symbol) -> tuple[int, int] | None:
        scope = self.scope
        for depth in range(len(scope)):
            rib = scope[-1 - depth]
            index = rib.get(name)
            if index is not None:
                return depth, index
        return None

    def _global_cell(self, name: Symbol):
        if name in self.globals.cells:
            self.stats.cell_cache_hits += 1
        else:
            self.stats.cells_interned += 1
        return self.globals.cell(name)

    # -- the walk ----------------------------------------------------------

    def resolve(self, node: Node) -> Node:
        kind = type(node)
        if kind is Const:
            return node
        if kind is Var:
            address = self._local_address(node.name)
            if address is not None:
                self.stats.locals += 1
                return LocalRef(address[0], address[1], node.name)
            self.stats.globals += 1
            return GlobalRef(self._global_cell(node.name))
        if kind is Lambda:
            return self._resolve_lambda(node)
        if kind is App:
            return App(
                self.resolve(node.fn), tuple(self.resolve(a) for a in node.args)
            )
        if kind is If:
            return If(
                self.resolve(node.test),
                self.resolve(node.then),
                self.resolve(node.els),
            )
        if kind is SetBang:
            expr = self.resolve(node.expr)
            address = self._local_address(node.name)
            if address is not None:
                self.stats.locals += 1
                return LocalSet(address[0], address[1], expr, node.name)
            self.stats.globals += 1
            return GlobalSet(self._global_cell(node.name), expr)
        if kind is Seq:
            return Seq(tuple(self.resolve(e) for e in node.exprs))
        if kind is DefineTop:
            # Intern the cell *now* so references compiled earlier or
            # later in the same program share it; the DefineFrame
            # writes through GlobalEnv.define, i.e. the same cell.
            self._global_cell(node.name)
            return DefineTop(node.name, self.resolve(node.expr))
        if kind is Pcall:
            return Pcall(tuple(self.resolve(e) for e in node.exprs))
        raise TypeError(f"resolver: unknown IR node: {node!r}")

    def _resolve_lambda(self, node: Lambda) -> Lambda:
        self.stats.lambdas += 1
        nslots = len(node.params) + (1 if node.rest is not None else 0)
        if nslots == 0:
            # A thunk allocates no rib, so it contributes no depth.
            body = self.resolve(node.body)
            return Lambda(node.params, node.rest, body, node.name, 0, node.effects)
        rib = {name: index for index, name in enumerate(node.params)}
        if node.rest is not None:
            rib[node.rest] = len(node.params)
        self.scope.append(rib)
        try:
            body = self.resolve(node.body)
        finally:
            self.scope.pop()
        return Lambda(node.params, node.rest, body, node.name, nslots, node.effects)


def resolve_node(
    node: Node, globals_: "GlobalEnv", stats: Metrics | None = None
) -> Node:
    """Resolve one top-level node (see :func:`resolve_program`)."""
    return _Resolver(globals_, stats if stats is not None else RESOLVER_METRICS()).resolve(
        node
    )


def resolve_program(
    nodes: list[Node], globals_: "GlobalEnv", stats: Metrics | None = None
) -> list[Node]:
    """Resolve a whole program (a list of top-level nodes).

    Cells are interned into ``globals_`` as a side effect; running the
    resolved IR on a machine over a *different* GlobalEnv would read
    the wrong store, so resolve against the machine's own globals.
    """
    if stats is None:
        stats = RESOLVER_METRICS()
    resolver = _Resolver(globals_, stats)
    return [resolver.resolve(node) for node in nodes]
