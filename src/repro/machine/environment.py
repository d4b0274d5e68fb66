"""Lexical environments and the global table.

Two rib representations coexist behind one interface:

* :class:`Environment` — the original chain of small per-call dicts,
  resolved by hashing a :class:`~repro.datum.Symbol` up the parent
  chain at every reference.  It serves the expander's unresolved
  dialect, which ``Machine.eval_node`` runs through the raw-IR
  fallback, and closures restored from snapshots written before 1.5
  by the ``dict`` engine (see ``docs/IMPLEMENTATION.md``).
* :class:`SlotRib` — a flat ``values`` list plus a parent pointer,
  used by both engines: the compile-time resolver
  (:mod:`repro.ir.resolve`) rewrites every variable into a
  ``(depth, index)`` lexical address, so lookup is pointer-chasing and
  one list index — no hashing, no dict.

The global table is a dict of interned :class:`GlobalCell` boxes.  The
resolver captures cells directly in ``GlobalRef``/``GlobalSet`` nodes,
making a resolved global reference one attribute read; the dict-chain
ribs go through :meth:`GlobalEnv.lookup` on the same cells, so
both representations always see the same store.

The *store* is deliberately shared, never captured: reinstating a
process continuation twice sees any side effects made in between,
exactly as in Scheme.  Both rib kinds are captured by reference (an
immutable chain of mutable ribs), so the capture algebra is identical
under either representation.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.datum import Symbol
from repro.errors import UnboundVariableError

__all__ = ["Environment", "GlobalEnv", "GlobalCell", "SlotRib", "UNBOUND"]


class _Unbound:
    """Sentinel stored in a cell that has been interned (a forward
    reference seen by the resolver) but not yet ``define``d."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "#<unbound>"


UNBOUND = _Unbound()

#: Sentinel for single-probe dict misses (distinct from UNBOUND so a
#: cell holding UNBOUND is still *found*, just not bound).
_MISSING = object()


class GlobalCell:
    """A one-slot mutable box for one top-level binding.

    Interned (at most one per name per :class:`GlobalEnv`), so a
    resolved ``GlobalRef`` compiled before the ``define`` runs still
    observes the value at first touch — the cell is the identity, the
    value arrives later.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: Symbol, value: Any = UNBOUND):
        self.name = name
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "unbound" if self.value is UNBOUND else repr(self.value)
        return f"#<global-cell {self.name.name} {state}>"


class GlobalEnv:
    """The top-level binding table: interned cells keyed by symbol."""

    __slots__ = ("cells",)

    def __init__(self) -> None:
        self.cells: dict[Symbol, GlobalCell] = {}

    def cell(self, name: Symbol) -> GlobalCell:
        """The interned cell for ``name``, created unbound on first
        request (this is how forward references resolve)."""
        cell = self.cells.get(name)
        if cell is None:
            cell = GlobalCell(name)
            self.cells[name] = cell
        return cell

    def lookup(self, name: Symbol) -> Any:
        cell = self.cells.get(name)
        if cell is None or cell.value is UNBOUND:
            raise UnboundVariableError(name.name)
        return cell.value

    def define(self, name: Symbol, value: Any) -> None:
        self.cell(name).value = value

    def assign(self, name: Symbol, value: Any) -> None:
        cell = self.cells.get(name)
        if cell is None or cell.value is UNBOUND:
            raise UnboundVariableError(name.name)
        cell.value = value

    def __contains__(self, name: Symbol) -> bool:
        cell = self.cells.get(name)
        return cell is not None and cell.value is not UNBOUND

    def __iter__(self) -> Iterator[Symbol]:
        return (
            name for name, cell in self.cells.items() if cell.value is not UNBOUND
        )


class Environment:
    """One dict rib: ``names -> values`` plus a parent pointer.

    Bindings are stored directly in the dict; ``set!`` mutates in
    place.  Closures capture the Environment object, so mutation is
    visible to every closure sharing the rib (required for ``letrec``
    and the internal-define lowering).
    """

    __slots__ = ("bindings", "parent", "globals")

    def __init__(
        self,
        bindings: dict[Symbol, Any],
        parent: "Environment | None",
        globals_: GlobalEnv,
    ):
        self.bindings = bindings
        self.parent = parent
        self.globals = globals_

    @classmethod
    def toplevel(cls, globals_: GlobalEnv) -> "Environment":
        return cls({}, None, globals_)

    def extend(self, names: tuple[Symbol, ...], values: list[Any]) -> "Environment":
        """A child rib binding ``names`` to ``values`` pairwise."""
        return Environment(dict(zip(names, values)), self, self.globals)

    def lookup(self, name: Symbol) -> Any:
        env: Environment | None = self
        while env is not None:
            value = env.bindings.get(name, _MISSING)
            if value is not _MISSING:
                return value
            env = env.parent
        return self.globals.lookup(name)

    def assign(self, name: Symbol, value: Any) -> None:
        env: Environment | None = self
        while env is not None:
            bindings = env.bindings
            if bindings.get(name, _MISSING) is not _MISSING:
                bindings[name] = value
                return
            env = env.parent
        self.globals.assign(name, value)


class SlotRib:
    """One resolved rib: a flat list of slots plus a parent pointer.

    There are no names here — the resolver already turned every
    reference into ``(depth, index)``, so the machine walks ``depth``
    parents and indexes ``values``.  The parent chain bottoms out at
    the machine's top-level :class:`Environment` (never indexed: the
    resolver gives no local address past the outermost lambda).

    ``set!`` mutates ``values`` in place; the rib object itself is
    shared by reference between the live tree and any captures, exactly
    like a dict rib.
    """

    __slots__ = ("values", "parent")

    def __init__(self, values: list[Any], parent: Any):
        self.values = values
        self.parent = parent

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"#<slot-rib {len(self.values)} slot(s)>"
