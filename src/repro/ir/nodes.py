"""IR node definitions.

All nodes are immutable.  ``Pcall`` is the tree-structured concurrency
form from the paper (Multilisp's ``pcall``): all subexpressions —
operator included — are evaluated in parallel branches of the process
tree, then the operator value is applied to the argument values as in a
normal call.

The expander emits the first eight node kinds only; the resolver pass
(:mod:`repro.ir.resolve`) rewrites ``Var``/``SetBang`` into the four
*resolved* kinds — ``LocalRef``/``LocalSet`` carrying ``(depth,
index)`` lexical addresses and ``GlobalRef``/``GlobalSet`` carrying an
interned global cell — and stamps each ``Lambda`` with the slot count
of its rib.  The machine evaluates either dialect; a program is always
entirely one or the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.datum import Symbol

__all__ = [
    "Node",
    "Const",
    "Var",
    "Lambda",
    "App",
    "If",
    "SetBang",
    "Seq",
    "DefineTop",
    "Pcall",
    "LocalRef",
    "LocalSet",
    "GlobalRef",
    "GlobalSet",
]


@dataclass(frozen=True)
class Node:
    """Base class for IR nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Node):
    """A self-evaluating constant (also the result of ``quote``)."""

    value: Any


@dataclass(frozen=True)
class Var(Node):
    """A variable reference, resolved at run time against the
    environment chain (lexical frames, then the global table)."""

    name: Symbol

    def __repr__(self) -> str:
        return f"Var({self.name.name})"


@dataclass(frozen=True)
class Lambda(Node):
    """A procedure abstraction.

    ``params`` are the required formals; ``rest`` (if not None) collects
    extra arguments into a list, covering both ``(lambda (a . r) ...)``
    and ``(lambda args ...)`` (empty params, rest = args).
    ``name`` is a debug label filled in by ``define``/``let`` when the
    procedure has an obvious name.
    """

    params: tuple[Symbol, ...]
    rest: Symbol | None
    body: Node
    name: str | None = field(default=None, compare=False)
    #: Slot count of the rib this lambda allocates per application —
    #: ``len(params)`` plus one for ``rest``.  ``None`` means the
    #: lambda is unresolved (dict-chain mode); 0 means the resolver
    #: proved no rib is needed (a thunk) and application reuses the
    #: closure's environment directly.
    nslots: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class App(Node):
    """Procedure application with left-to-right evaluation."""

    fn: Node
    args: tuple[Node, ...]


@dataclass(frozen=True)
class If(Node):
    """Two- or one-armed conditional (missing alternative becomes
    ``Const(UNSPECIFIED)`` in the expander)."""

    test: Node
    then: Node
    els: Node


@dataclass(frozen=True)
class SetBang(Node):
    """Assignment to an existing binding."""

    name: Symbol
    expr: Node


@dataclass(frozen=True)
class Seq(Node):
    """``begin``: evaluate in order, yield the last value.

    The expander guarantees ``exprs`` is non-empty.
    """

    exprs: tuple[Node, ...]


@dataclass(frozen=True)
class DefineTop(Node):
    """A top-level definition.  Only legal at program top level; the
    expander rewrites internal defines into ``letrec``."""

    name: Symbol
    expr: Node


@dataclass(frozen=True)
class LocalRef(Node):
    """A lexically addressed variable reference: walk ``depth`` parent
    ribs, read slot ``index``.  ``name`` is carried for debugging and
    pretty-printing only."""

    depth: int
    index: int
    name: Symbol = field(compare=False)

    def __repr__(self) -> str:
        return f"LocalRef({self.name.name}@{self.depth}.{self.index})"


@dataclass(frozen=True)
class LocalSet(Node):
    """Assignment to a lexically addressed binding."""

    depth: int
    index: int
    expr: Node
    name: Symbol = field(compare=False)

    def __repr__(self) -> str:
        return f"LocalSet({self.name.name}@{self.depth}.{self.index}, {self.expr!r})"


@dataclass(frozen=True)
class GlobalRef(Node):
    """A reference through an interned global cell (one attribute read
    at run time).  ``cell`` is a
    :class:`repro.machine.environment.GlobalCell`; it may still be
    unbound when this node is built — first touch checks."""

    cell: Any

    def __repr__(self) -> str:
        return f"GlobalRef({self.cell.name.name})"


@dataclass(frozen=True)
class GlobalSet(Node):
    """Assignment through an interned global cell."""

    cell: Any
    expr: Node

    def __repr__(self) -> str:
        return f"GlobalSet({self.cell.name.name}, {self.expr!r})"


@dataclass(frozen=True)
class Pcall(Node):
    """Tree-structured parallel call.

    ``exprs[0]`` is the operator expression, ``exprs[1:]`` the argument
    expressions; all are evaluated concurrently (one process-tree branch
    each) and joined into an ordinary application.
    """

    exprs: tuple[Node, ...]
