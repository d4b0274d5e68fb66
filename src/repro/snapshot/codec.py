"""The session snapshot codec: a suspended :class:`~repro.host.session.Session`
as a versioned, deterministic byte string.

What the paper makes possible, this module makes durable: at every
quantum boundary a session's entire computation — process trees with
captured continuations, suspended ``pcall`` branches, parked future
trees, mid-``spawn`` controllers — is a first-class value sitting in
ordinary Python objects.  The codec walks that reachable graph and
writes it down; :func:`restore_session` rebuilds an equivalent session
in any process, byte-for-byte equivalent in observable behaviour
(output, per-step stats, uid streams) to the never-snapshotted run.

A blob is relative to its session's boot *base*
(:class:`~repro.host.session.Base`): the primitives, control primitives
and prelude closures that booting bound, their top-level environment
and the prelude's macros.  Every session boots that base identically
from the process-wide image, so a blob names it by digest, refers to
its objects by position (the ``BASE`` value tag) and leaves out every
global cell that still holds its boot value.  It carries only what the
session changed since it booted.

Layout of a blob (all integers LEB128 varints; see
:mod:`repro.snapshot.wire` and ``docs/CLUSTER.md``)::

    magic "RSNP"  version u8
    header    name, engine, policy, quantum, flags, max_pending,
              six uid-counter watermarks, base kind, base digest
    objects   the cyclic heap: tagged records, each a length-prefixed
              payload of a fixed *head* (construction scalars) plus
              *rest* (reference-bearing fields, filled in a second pass)
    nodes     the IR DAG in topological order (children first), plus
              compiled-code stubs — code is **never** pickled; a stub
              is (source-node ref, stable hash) and the restorer
              recompiles, one ``compile_node`` per distinct hash, so
              closures that shared a body keep sharing one
    roots     the session record: machine, macro table, output buffer,
              stats, metrics, pending/active handles

Identity and sharing are exact: every mutable object (pairs, vectors,
ribs, cells, tasks, links, frames by chain) is a table entry referenced
by id, so shared and cyclic structure round-trips with its aliasing
intact.  Interned symbols are re-interned by name on load; gensyms are
table objects (identity-unique) and the gensym counter watermark is
carried so printed names never collide after restore.  Restore boots
the named base afresh, so a ``BASE`` reference becomes the new boot's
object at that position (``eq?`` still holds between ``map`` and a
user binding of it), and global cells merge into the restoring
session's table by name.  Primitives' Python closures, e.g. over the
output buffer, are never serialized.

Version 3 blobs, written before bases existed, decode with the same
decoder onto a bare session: they hold every cell and no ``BASE``
reference.

Not serialized (by design): the observability recorder (pass ``record=``
to :func:`restore_session`), ``Machine.trace_hook``, and in-flight pump
state — snapshotting from inside :meth:`Session.pump` raises
:class:`~repro.errors.SnapshotError`.
"""

from __future__ import annotations

import hashlib
from collections import deque
from fractions import Fraction
from time import monotonic as _monotonic
from typing import Any, Callable

from repro.control.callcc import LeafContinuation, RootContinuation
from repro.analysis.effects import EffectInfo
from repro.control.engines import EngineValue
from repro.control.fcontrol import FunctionalContinuation
from repro.control.futures import FuturePlaceholder
from repro.control.spawn import ProcessContinuation, ProcessController
from repro.control import register_control_primitives
from repro.counters import SerialCounter
from repro.datum import NIL, Char, MVector, Pair, Symbol, from_pylist, intern
from repro.datum.singletons import EOF_OBJECT, UNSPECIFIED
from repro.errors import SnapshotBaseMismatch, SnapshotError, SnapshotFormatError
from repro.expander.syntax_rules import Macro, Rule
from repro.host.handle import EvalHandle, HandleState
from repro.host.session import Session, prelude_image
from repro.ir import CODEGEN_METRICS, COMPILE_METRICS, codegen_node, compile_node, stable_hash
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
    Pcall,
    Seq,
    SetBang,
    Var,
)
from repro.machine.environment import UNBOUND, Environment, GlobalCell, GlobalEnv, SlotRib
from repro.machine.frames import (
    AppFrame,
    DefineFrame,
    GlobalSetFrame,
    IfFrame,
    LocalSetFrame,
    SeqFrame,
    SetFrame,
)
from repro.machine.links import (
    TOMBSTONE,
    ForkLink,
    HaltLink,
    Join,
    Label,
    LabelLink,
    PromptLabel,
)
from repro.machine.scheduler import Machine, SchedulerPolicy
from repro.machine.scheduler import _NO_HALT  # the halt-register sentinel
from repro.machine.task import APPLY, EVAL, HOLE, VALUE, Task, TaskState
from repro.machine.tree import Capture
from repro.machine.values import Closure, ControlPrimitive, Primitive
from repro.obs.metrics import Metrics
from repro.primitives import install_primitives
from repro.snapshot.wire import Reader, Writer

__all__ = ["FORMAT_VERSION", "MAGIC", "restore_session", "snapshot_session"]

MAGIC = b"RSNP"
#: Bump on any wire-format change; restore refuses other versions.
#: v2: capture/effect analysis — Lambda/Closure effects bitmasks, the
#: handle classification, the analysis-metrics root, the analysis header
#: flag and the three submits_* session counters.
#: v3: codegen engine — the codegen-metrics root tuple (written for every
#: engine, zeros when codegen never ran).
#: v4: boot-relative blobs — the header's base kind and digest, the
#: ``BASE`` value tag, cells left out while they hold their boot value,
#: an interned cell's name written once, and RNG state only under the
#: random policy.  Version 3 blobs still restore.
FORMAT_VERSION = 4
_READABLE_VERSIONS = (3, 4)

#: The header's base kinds: primitives only, or primitives plus the
#: prelude image.
_BASE_BARE = 0
_BASE_PRELUDE = 1

#: Engine names written by builds before 1.5, which also ran the
#: expander's dialect (``dict``) and resolved IR (``resolved``) on
#: engines of their own.  Their blobs restore under ``compiled``: the
#: run loop's raw-IR fallback runs those closures' bodies as they are.
_LEGACY_ENGINES = {"dict": "compiled", "resolved": "compiled"}

# -- value tags (the self-describing scalar/reference layer) -------------

_V_NONE = 0
_V_TRUE = 1
_V_FALSE = 2
_V_INT = 3
_V_FLOAT = 4
_V_STR = 5
_V_LIST = 6
_V_TUPLE = 7
_V_FRACTION = 8
_V_NIL = 9
_V_UNSPECIFIED = 10
_V_EOF = 11
_V_UNBOUND = 12
_V_TOMBSTONE = 13
_V_NO_HALT = 14
_V_CHAR = 15
_V_ISYM = 16  # interned symbol, by spelling
_V_OREF = 17  # object-table reference
_V_NREF = 18  # node-table reference (IR node or code stub)
_V_BASE = 19  # boot-base object, by position (v4)

# -- object-table tags ---------------------------------------------------

_O_PAIR = 1
_O_MVECTOR = 2
_O_GENSYM = 3
_O_CELL = 4
_O_PRIMITIVE = 5
_O_CONTROL_PRIMITIVE = 6
_O_CLOSURE = 7
_O_ENVIRONMENT = 8
_O_SLOT_RIB = 9
_O_TASK = 10
_O_LABEL = 11
_O_HALT_LINK = 12
_O_LABEL_LINK = 13
_O_FORK_LINK = 14
_O_JOIN = 15
_O_APP_FRAME = 16
_O_IF_FRAME = 17
_O_SEQ_FRAME = 18
_O_SET_FRAME = 19
_O_LOCAL_SET_FRAME = 20
_O_GLOBAL_SET_FRAME = 21
_O_DEFINE_FRAME = 22
_O_CAPTURE = 23
_O_CONTROLLER = 24
_O_PROCESS_CONT = 25
_O_ROOT_CONT = 26
_O_LEAF_CONT = 27
_O_FUNCTIONAL_CONT = 28
_O_PLACEHOLDER = 29
_O_ENGINE = 30
_O_MACHINE = 31
_O_MACRO = 32
_O_HANDLE = 33

# -- node-table tags -----------------------------------------------------

_N_CONST = 1
_N_VAR = 2
_N_LAMBDA = 3
_N_APP = 4
_N_IF = 5
_N_SETBANG = 6
_N_SEQ = 7
_N_DEFINE_TOP = 8
_N_PCALL = 9
_N_LOCAL_REF = 10
_N_LOCAL_SET = 11
_N_GLOBAL_REF = 12
_N_GLOBAL_SET = 13
_N_CODE = 14

_NODE_CLASSES = (
    Const,
    Var,
    Lambda,
    App,
    If,
    SetBang,
    Seq,
    DefineTop,
    Pcall,
    LocalRef,
    LocalSet,
    GlobalRef,
    GlobalSet,
)

#: The canonical control-tag string objects (``task.tag`` is compared
#: with ``is``, so restore must rebind exactly these).
_CONTROL_TAGS = {EVAL: 0, VALUE: 1, APPLY: 2, HOLE: 3}
_CONTROL_TAG_LIST = (EVAL, VALUE, APPLY, HOLE)


def _node_source(value: Any) -> Any:
    """The IR node behind a compiled code thunk, or None if ``value``
    is not a thunk (thunks are plain functions carrying ``.node``)."""
    if callable(value) and not isinstance(value, type):
        return getattr(value, "node", None)
    return None


#: Per base kind (prelude or bare): the prelude image its digest was
#: computed from (None for bare), and the digest.
_base_digests: dict[bool, tuple[Any, bytes]] = {}


def _base_digest(prelude: bool) -> bytes:
    """The SHA-256 naming one boot base of this build.  It covers the
    ``ir-hash-v1`` of the primitive table's names in install order and,
    for a prelude base, of the image's forms and of its macro table:
    together they fix every base object and its position.  Computed
    once per process and kind, and again only if the image is rebuilt."""
    image = prelude_image() if prelude else None
    cached = _base_digests.get(prelude)
    if cached is not None and cached[0] is image:
        return cached[1]
    table = GlobalEnv()
    install_primitives(table)
    register_control_primitives(table)
    hashes = [stable_hash(Const(from_pylist(table.cells)))]
    if image is not None:
        nodes, macros = image
        hashes.append(stable_hash(Seq(nodes)))
        hashes.append(stable_hash(Const(from_pylist(map(_macro_datum, macros.values())))))
    digest = hashlib.sha256("".join(hashes).encode("ascii")).digest()
    _base_digests[prelude] = (image, digest)
    return digest


def _macro_datum(macro: Macro) -> Any:
    """A macro as one Scheme datum: name, keywords, rules."""
    keywords = sorted(macro.keywords, key=lambda s: s.name)
    rules = [from_pylist([rule.pattern, rule.template]) for rule in macro.rules]
    return from_pylist([macro.name, from_pylist(keywords), from_pylist(rules)])


# =======================================================================
# Encoder
# =======================================================================


class _Encoder:
    def __init__(self, session: Session):
        self.session = session
        #: Base objects by identity: written as ``BASE`` references and
        #: never walked.
        self.base_ids = {id(obj): i for i, obj in enumerate(session.base.objects)}
        self.obj_ids: dict[int, int] = {}
        self.objects: list[Any] = []
        self.node_ids: dict[int, int] = {}
        self.node_list: list[Any] = []
        self.now = _monotonic()

    # -- discovery -------------------------------------------------------

    def _note(self, value: Any, queue: deque) -> None:
        """Classify ``value``: inline scalars are ignored, IR/code goes
        to the node table (postorder), everything else becomes an
        object-table entry queued for child discovery."""
        if value is None or value is True or value is False:
            return
        cls = value.__class__
        if cls is int or cls is float or cls is str or cls is Fraction or cls is Char:
            return
        if cls is Symbol:
            if value._interned:
                return
            # gensym: identity-bearing, falls through to the table
        elif cls is list or cls is tuple:
            queue.append(value)
            return
        elif (
            value is NIL
            or value is UNSPECIFIED
            or value is EOF_OBJECT
            or value is UNBOUND
            or value is TOMBSTONE
            or value is _NO_HALT
        ):
            return
        elif cls in _NODE_CLASS_SET or _node_source(value) is not None:
            self._add_node_tree(value, queue)
            return
        if id(value) in self.obj_ids or id(value) in self.base_ids:
            return
        if cls not in _EMITTERS:
            raise SnapshotError(
                f"snapshot: cannot serialize a value of type "
                f"{cls.__module__}.{cls.__name__}: {value!r}"
            )
        self.obj_ids[id(value)] = len(self.objects)
        self.objects.append(value)
        queue.append(_ObjVisit(value))

    def _add_node_tree(self, root: Any, queue: deque) -> None:
        """Register an IR tree (or code thunk) in the node table,
        children before parents, discovering constants/cells/symbols
        into the main object walk."""
        node_ids = self.node_ids
        stack: list[tuple[Any, bool]] = [(root, False)]
        while stack:
            item, expanded = stack.pop()
            if id(item) in node_ids:
                continue
            if expanded:
                node_ids[id(item)] = len(self.node_list)
                self.node_list.append(item)
                continue
            stack.append((item, True))
            node_kids, value_kids = _node_children(item)
            for v in value_kids:
                self._note(v, queue)
            for child in reversed(node_kids):
                stack.append((child, False))

    def _discover(self) -> None:
        session = self.session
        base = session.base
        queue: deque = deque()
        # Global cells first: their table order *is* their id order, so
        # restore recreates the insertion order of the global table.  A
        # boot cell still holding its boot value is left out: restore
        # boots it again.
        for i, cell in enumerate(session.globals.cells.values()):
            if i >= base.cells or cell.value is not base.objects[i]:
                self._note(cell, queue)
        self._note(session.machine, queue)
        for name, macro in session.expand_env.macros.items():
            self._note(name, queue)
            self._note(macro, queue)
        for handle in session._pending:
            self._note(handle, queue)
        if session._active is not None:
            self._note(session._active, queue)
        while queue:
            item = queue.popleft()
            cls = item.__class__
            if cls is _ObjVisit:
                obj = item.obj
                for child in _EMITTERS[obj.__class__][2](self, obj):
                    self._note(child, queue)
            else:  # list or tuple
                for child in item:
                    self._note(child, queue)

    # -- emission --------------------------------------------------------

    def _write_value(self, w: Writer, value: Any) -> None:
        if value is None:
            w.u8(_V_NONE)
            return
        if value is True:
            w.u8(_V_TRUE)
            return
        if value is False:
            w.u8(_V_FALSE)
            return
        cls = value.__class__
        if cls is int:
            w.u8(_V_INT)
            w.svarint(value)
        elif cls is float:
            w.u8(_V_FLOAT)
            w.f64(value)
        elif cls is str:
            w.u8(_V_STR)
            w.str_(value)
        elif cls is Fraction:
            w.u8(_V_FRACTION)
            w.svarint(value.numerator)
            w.svarint(value.denominator)
        elif cls is Char:
            w.u8(_V_CHAR)
            w.str_(value.value)
        elif cls is Symbol and value._interned:
            w.u8(_V_ISYM)
            w.str_(value.name)
        elif cls is list:
            w.u8(_V_LIST)
            w.varint(len(value))
            for item in value:
                self._write_value(w, item)
        elif cls is tuple:
            w.u8(_V_TUPLE)
            w.varint(len(value))
            for item in value:
                self._write_value(w, item)
        elif value is NIL:
            w.u8(_V_NIL)
        elif value is UNSPECIFIED:
            w.u8(_V_UNSPECIFIED)
        elif value is EOF_OBJECT:
            w.u8(_V_EOF)
        elif value is UNBOUND:
            w.u8(_V_UNBOUND)
        elif value is TOMBSTONE:
            w.u8(_V_TOMBSTONE)
        elif value is _NO_HALT:
            w.u8(_V_NO_HALT)
        else:
            oid = self.obj_ids.get(id(value))
            if oid is not None:
                w.u8(_V_OREF)
                w.varint(oid)
                return
            nid = self.node_ids.get(id(value))
            if nid is not None:
                w.u8(_V_NREF)
                w.varint(nid)
                return
            bid = self.base_ids.get(id(value))
            if bid is not None:
                w.u8(_V_BASE)
                w.varint(bid)
                return
            raise SnapshotError(f"snapshot: unregistered value {value!r}")

    def _write_node(self, w: Writer, node: Any) -> None:
        wv = self._write_value
        cls = node.__class__
        if cls is Const:
            w.u8(_N_CONST)
            wv(w, node.value)
        elif cls is Var:
            w.u8(_N_VAR)
            wv(w, node.name)
        elif cls is Lambda:
            w.u8(_N_LAMBDA)
            wv(w, node.params)
            wv(w, node.rest)
            wv(w, node.body)
            wv(w, node.name)
            wv(w, node.nslots)
            # EffectInfo travels as its bitmask (interned on read), so
            # facts survive without a dedicated object-table entry.
            wv(w, None if node.effects is None else node.effects.bits)
        elif cls is App:
            w.u8(_N_APP)
            wv(w, node.fn)
            wv(w, node.args)
        elif cls is If:
            w.u8(_N_IF)
            wv(w, node.test)
            wv(w, node.then)
            wv(w, node.els)
        elif cls is SetBang:
            w.u8(_N_SETBANG)
            wv(w, node.name)
            wv(w, node.expr)
        elif cls is Seq:
            w.u8(_N_SEQ)
            wv(w, node.exprs)
        elif cls is DefineTop:
            w.u8(_N_DEFINE_TOP)
            wv(w, node.name)
            wv(w, node.expr)
        elif cls is Pcall:
            w.u8(_N_PCALL)
            wv(w, node.exprs)
        elif cls is LocalRef:
            w.u8(_N_LOCAL_REF)
            w.varint(node.depth)
            w.varint(node.index)
            wv(w, node.name)
        elif cls is LocalSet:
            w.u8(_N_LOCAL_SET)
            w.varint(node.depth)
            w.varint(node.index)
            wv(w, node.expr)
            wv(w, node.name)
        elif cls is GlobalRef:
            w.u8(_N_GLOBAL_REF)
            wv(w, node.cell)
        elif cls is GlobalSet:
            w.u8(_N_GLOBAL_SET)
            wv(w, node.cell)
            wv(w, node.expr)
        else:
            source = _node_source(node)
            if source is None:
                raise SnapshotError(f"snapshot: not an IR node: {node!r}")
            w.u8(_N_CODE)
            wv(w, source)
            w.str_(stable_hash(source))

    def encode(self) -> bytes:
        session = self.session
        if session._in_pump:
            raise SnapshotError(
                f"session {session.name}: cannot snapshot from inside pump() — "
                "the machine is mid-quantum; snapshot between pumps"
            )
        self._discover()
        w = Writer()
        w.raw(MAGIC)
        w.u8(FORMAT_VERSION)
        machine = session.machine
        w.str_(session.name)
        w.str_(session.engine)
        w.str_(machine.policy.value)
        w.varint(machine.quantum)
        # Bit 0 is reserved: pre-1.5 builds stored a ``batched`` flag
        # there.  It is written set, as those builds' default was, and
        # ignored on read.
        w.u8(
            1
            | (2 if machine.profile else 0)
            | (4 if session.output.echo else 0)
            | (8 if session.analysis else 0)
        )
        w.varint(session.max_pending)
        for stream in _uid_streams():
            w.varint(stream.peek())
        prelude = session.base.prelude
        w.u8(_BASE_PRELUDE if prelude else _BASE_BARE)
        w.raw(_base_digest(prelude))
        # Object table.
        w.varint(len(self.objects))
        for obj in self.objects:
            tag, head, rest = _EMITTERS[obj.__class__]
            sub = Writer()
            head(self, sub, obj)
            for value in rest(self, obj):
                self._write_value(sub, value)
            payload = sub.getvalue()
            w.u8(tag)
            w.varint(len(payload))
            w.raw(payload)
        # Node table (already topologically ordered by discovery).
        w.varint(len(self.node_list))
        for node in self.node_list:
            self._write_node(w, node)
        # Session roots.
        wv = self._write_value
        wv(w, machine)
        wv(w, [(name, macro) for name, macro in session.expand_env.macros.items()])
        wv(w, sorted(session._loaded_examples))
        wv(w, list(session.output.parts))
        for record in _metric_roots(session):
            wv(w, record.snapshot())
        wv(w, list(session._pending))
        wv(w, session._active)
        return w.getvalue()


class _ObjVisit:
    """Discovery-queue marker: expand this object's children."""

    __slots__ = ("obj",)

    def __init__(self, obj: Any):
        self.obj = obj


def _node_children(item: Any) -> tuple[list, list]:
    """``(node children, value children)`` of an IR node / code thunk."""
    cls = item.__class__
    if cls is Const:
        return [], [item.value]
    if cls is Var:
        return [], [item.name]
    if cls is Lambda:
        return [item.body], [item.params, item.rest]
    if cls is App:
        return [item.fn, *item.args], []
    if cls is If:
        return [item.test, item.then, item.els], []
    if cls is SetBang:
        return [item.expr], [item.name]
    if cls is Seq:
        return list(item.exprs), []
    if cls is DefineTop:
        return [item.expr], [item.name]
    if cls is Pcall:
        return list(item.exprs), []
    if cls is LocalRef:
        return [], []
    if cls is LocalSet:
        return [item.expr], []
    if cls is GlobalRef:
        return [], [item.cell]
    if cls is GlobalSet:
        return [item.expr], [item.cell]
    source = _node_source(item)
    if source is None:
        raise SnapshotError(f"snapshot: not an IR node: {item!r}")
    return [source], []


def _metric_roots(session: Session) -> tuple[Metrics, ...]:
    """The session's metric records, in wire order."""
    return (
        session.resolver_stats,
        session.compile_stats,
        session.codegen_stats,
        session.analysis_stats,
        session.metrics,
    )


def _uid_streams() -> tuple[SerialCounter, ...]:
    """The six process-global uid streams, in wire order (gensym, task,
    label, future, handle, engine)."""
    from repro.control import engines as _engines
    from repro.control import futures as _futures
    from repro.datum import symbols as _symbols
    from repro.host import handle as _handle
    from repro.machine import links as _links
    from repro.machine import task as _task

    return (
        _symbols._gensym_counter,
        _task._task_ids,
        _links._label_ids,
        _futures._ids,
        _handle._handle_ids,
        _engines._ids,
    )


# -- per-type head/rest emitters ----------------------------------------
#
# Each entry: tag, head(enc, w, obj) writing construction scalars, and
# rest(enc, obj) returning the reference-bearing fields as a list of
# generic values.  ``rest`` doubles as the child enumerator for
# discovery, so emitted fields and discovered children can never drift.


def _no_head(enc: _Encoder, w: Writer, obj: Any) -> None:
    pass


def _name_head(enc: _Encoder, w: Writer, obj: Any) -> None:
    w.str_(obj.name)


def _uid_head(enc: _Encoder, w: Writer, obj: Any) -> None:
    w.varint(obj.uid)


def _no_rest(enc: _Encoder, obj: Any) -> list:
    return []


def _label_head(enc: _Encoder, w: Writer, obj: Label) -> None:
    w.varint(obj.uid)
    w.str_(obj.name)
    w.u8(1 if isinstance(obj, PromptLabel) else 0)


def _cell_head(enc: _Encoder, w: Writer, obj: GlobalCell) -> None:
    w.str_(obj.name.name)
    w.u8(1 if obj.name._interned else 0)


def _cell_rest(enc: _Encoder, obj: GlobalCell) -> list:
    # The head already spells an interned name; only a gensym needs its
    # object reference.
    if obj.name._interned:
        return [obj.value]
    return [obj.name, obj.value]


def _task_rest(enc: _Encoder, obj: Task) -> list:
    return [
        _CONTROL_TAGS[obj.tag],
        obj.payload,
        obj.env,
        obj.frames,
        obj.link,
        obj.state.value,
        obj.steps,
    ]


def _machine_rest(enc: _Encoder, obj: Machine) -> list:
    deadline = None if obj.deadline is None else obj.deadline - enc.now
    waiting = sorted(obj.waiting_tasks, key=lambda t: t.uid)
    # Only the random policy reads the RNG.
    state = obj.rng.getstate() if obj.policy is SchedulerPolicy.RANDOM else None
    return [
        obj.policy.value,
        obj.quantum,
        obj.max_steps,
        obj.engine,
        True,  # reserved: the pre-1.5 ``batched`` field
        obj.profile,
        False,  # reserved: the pre-1.5 ``fold`` field
        obj.recorder is not None,
        deadline,
        obj.toplevel_env,
        obj.root_entity,
        obj.root_label_link,
        list(obj.queue),
        obj.halt_value,
        obj.steps_total,
        list(obj.parked_futures),
        waiting,
        [(k, v) for k, v in obj.stats.items()],
        [(k, v) for k, v in obj.vm_stats.items()],
        state,
    ]


def _handle_rest(enc: _Encoder, obj: EvalHandle) -> list:
    deadline = None if obj.deadline_at is None else obj.deadline_at - enc.now
    return [
        list(obj.nodes),
        obj.max_steps,
        deadline,
        obj.state.value,
        list(obj.values),
        obj.steps,
        enc.now - obj.submitted_at,
        obj._cancel_requested,
        obj._node_index,
        obj._node_running,
        # The classification survives; the full ProgramReport is
        # transient (re-derivable by re-analyzing the source).
        obj.classification,
    ]


def _macro_rest(enc: _Encoder, obj: Macro) -> list:
    keywords = sorted(obj.keywords, key=lambda s: s.name)
    return [
        obj.name,
        keywords,
        [(rule.pattern, rule.template) for rule in obj.rules],
    ]


def _attr_rest(*names: str) -> Callable[[_Encoder, Any], list]:
    def rest(enc: _Encoder, obj: Any) -> list:
        return [getattr(obj, name) for name in names]

    return rest


def _closure_rest(enc: _Encoder, obj: Closure) -> list:
    eff = obj.effects
    return [
        obj.params,
        obj.rest,
        obj.body,
        obj.env,
        obj.name,
        obj.nslots,
        obj.low,
        obj.high,
        # EffectInfo as its interned bitmask, like Lambda nodes.
        None if eff is None else eff.bits,
    ]


_EMITTERS: dict[type, tuple[int, Callable, Callable]] = {
    Pair: (_O_PAIR, _no_head, _attr_rest("car", "cdr")),
    MVector: (_O_MVECTOR, _no_head, _attr_rest("items")),
    Symbol: (_O_GENSYM, _name_head, _no_rest),  # gensyms only (see _note)
    GlobalCell: (_O_CELL, _cell_head, _cell_rest),
    Primitive: (_O_PRIMITIVE, _name_head, _no_rest),
    ControlPrimitive: (_O_CONTROL_PRIMITIVE, _name_head, _no_rest),
    Closure: (_O_CLOSURE, _no_head, _closure_rest),
    Environment: (
        _O_ENVIRONMENT,
        _no_head,
        lambda enc, obj: [[(k, v) for k, v in obj.bindings.items()], obj.parent],
    ),
    SlotRib: (_O_SLOT_RIB, _no_head, lambda enc, obj: [list(obj.values), obj.parent]),
    Task: (_O_TASK, _uid_head, _task_rest),
    Label: (_O_LABEL, _label_head, _no_rest),
    PromptLabel: (_O_LABEL, _label_head, _no_rest),
    HaltLink: (_O_HALT_LINK, _no_head, _attr_rest("machine", "placeholder", "child")),
    LabelLink: (
        _O_LABEL_LINK,
        _no_head,
        _attr_rest("label", "cont_frames", "cont_link", "child"),
    ),
    ForkLink: (_O_FORK_LINK, _no_head, _attr_rest("join", "index")),
    Join: (
        _O_JOIN,
        _no_head,
        _attr_rest("slots", "delivered", "remaining", "children", "cont_frames", "cont_link"),
    ),
    AppFrame: (_O_APP_FRAME, _no_head, _attr_rest("done", "pending", "env", "next")),
    IfFrame: (_O_IF_FRAME, _no_head, _attr_rest("then", "els", "env", "next")),
    SeqFrame: (_O_SEQ_FRAME, _no_head, _attr_rest("remaining", "env", "next")),
    SetFrame: (_O_SET_FRAME, _no_head, _attr_rest("name", "env", "next")),
    LocalSetFrame: (
        _O_LOCAL_SET_FRAME,
        _no_head,
        _attr_rest("depth", "index", "env", "next"),
    ),
    GlobalSetFrame: (_O_GLOBAL_SET_FRAME, _no_head, _attr_rest("cell", "next")),
    DefineFrame: (_O_DEFINE_FRAME, _no_head, _attr_rest("name", "env", "next")),
    Capture: (_O_CAPTURE, _no_head, _attr_rest("root", "hole")),
    ProcessController: (_O_CONTROLLER, _no_head, _attr_rest("label")),
    ProcessContinuation: (_O_PROCESS_CONT, _no_head, _attr_rest("capture")),
    RootContinuation: (_O_ROOT_CONT, _no_head, _attr_rest("capture")),
    LeafContinuation: (_O_LEAF_CONT, _no_head, _attr_rest("frames", "link")),
    FunctionalContinuation: (_O_FUNCTIONAL_CONT, _no_head, _attr_rest("capture")),
    FuturePlaceholder: (
        _O_PLACEHOLDER,
        _uid_head,
        _attr_rest("resolved", "value", "waiters"),
    ),
    EngineValue: (_O_ENGINE, _uid_head, _attr_rest("machine", "spent", "mileage")),
    Machine: (_O_MACHINE, _no_head, _machine_rest),
    Macro: (_O_MACRO, _no_head, _macro_rest),
    EvalHandle: (_O_HANDLE, _uid_head, _handle_rest),
}

_NODE_CLASS_SET = set(_NODE_CLASSES)


# =======================================================================
# Decoder
# =======================================================================


class _Decoder:
    def __init__(
        self,
        blob: bytes,
        *,
        record: Any = None,
        name: str | None = None,
        engine: str | None = None,
    ):
        self.reader = Reader(blob)
        self.record = record
        self.name_override = name
        self.engine_override = engine
        #: The engine the restored session runs under (stored engine or
        #: the override); decided in :meth:`decode` before the node
        #: table is built, because it selects the ``_N_CODE`` recompile
        #: path.
        self.engine: str | None = None
        self.version = FORMAT_VERSION
        #: The restoring session's base objects, which ``BASE``
        #: references index (a version 3 blob holds none).
        self.base: tuple = ()
        self.objects: list[Any] = []
        self.nodes: list[Any] = []
        self.code_cache: dict[str, Any] = {}
        self.scratch_compile_stats = COMPILE_METRICS()
        self.scratch_codegen_stats = CODEGEN_METRICS()
        self.now = _monotonic()
        self.session: Session | None = None
        self.globals = None
        #: (class, name) -> installed primitive, for version 3 blobs,
        #: which name primitives instead of pointing into the base.
        self.primitives: dict[tuple[type, str], Any] = {}

    # -- generic value reader -------------------------------------------

    def _read_value(self, r: Reader) -> Any:
        tag = r.u8()
        if tag == _V_NONE:
            return None
        if tag == _V_TRUE:
            return True
        if tag == _V_FALSE:
            return False
        if tag == _V_INT:
            return r.svarint()
        if tag == _V_FLOAT:
            return r.f64()
        if tag == _V_STR:
            return r.str_()
        if tag == _V_LIST:
            return [self._read_value(r) for _ in range(r.varint())]
        if tag == _V_TUPLE:
            return tuple(self._read_value(r) for _ in range(r.varint()))
        if tag == _V_FRACTION:
            num = r.svarint()
            return Fraction(num, r.svarint())
        if tag == _V_NIL:
            return NIL
        if tag == _V_UNSPECIFIED:
            return UNSPECIFIED
        if tag == _V_EOF:
            return EOF_OBJECT
        if tag == _V_UNBOUND:
            return UNBOUND
        if tag == _V_TOMBSTONE:
            return TOMBSTONE
        if tag == _V_NO_HALT:
            return _NO_HALT
        if tag == _V_CHAR:
            return Char(r.str_())
        if tag == _V_ISYM:
            return intern(r.str_())
        if tag == _V_OREF:
            idx = r.varint()
            if idx >= len(self.objects):
                raise SnapshotFormatError(f"dangling object reference #{idx}")
            return self.objects[idx]
        if tag == _V_NREF:
            idx = r.varint()
            if idx >= len(self.nodes):
                raise SnapshotFormatError(f"dangling node reference #{idx}")
            return self.nodes[idx]
        if tag == _V_BASE:
            idx = r.varint()
            if idx >= len(self.base):
                raise SnapshotFormatError(f"dangling base reference #{idx}")
            return self.base[idx]
        raise SnapshotFormatError(f"unknown value tag {tag}")

    # -- node building ---------------------------------------------------

    def _build_node(self, r: Reader) -> Any:
        rv = self._read_value
        tag = r.u8()
        if tag == _N_CONST:
            return Const(rv(r))
        if tag == _N_VAR:
            return Var(rv(r))
        if tag == _N_LAMBDA:
            params = rv(r)
            rest = rv(r)
            body = rv(r)
            name = rv(r)
            nslots = rv(r)
            bits = rv(r)
            return Lambda(
                params,
                rest,
                body,
                name,
                nslots,
                None if bits is None else EffectInfo.from_bits(bits),
            )
        if tag == _N_APP:
            fn = rv(r)
            return App(fn, rv(r))
        if tag == _N_IF:
            test = rv(r)
            then = rv(r)
            return If(test, then, rv(r))
        if tag == _N_SETBANG:
            name = rv(r)
            return SetBang(name, rv(r))
        if tag == _N_SEQ:
            return Seq(rv(r))
        if tag == _N_DEFINE_TOP:
            name = rv(r)
            return DefineTop(name, rv(r))
        if tag == _N_PCALL:
            return Pcall(rv(r))
        if tag == _N_LOCAL_REF:
            depth = r.varint()
            index = r.varint()
            return LocalRef(depth, index, rv(r))
        if tag == _N_LOCAL_SET:
            depth = r.varint()
            index = r.varint()
            expr = rv(r)
            return LocalSet(depth, index, expr, rv(r))
        if tag == _N_GLOBAL_REF:
            return GlobalRef(rv(r))
        if tag == _N_GLOBAL_SET:
            cell = rv(r)
            return GlobalSet(cell, rv(r))
        if tag == _N_CODE:
            node = rv(r)
            digest = r.str_()
            cached = self.code_cache.get(digest)
            if cached is not None:
                return cached
            if stable_hash(node) != digest:
                raise SnapshotFormatError(
                    "snapshot integrity failure: decoded IR does not match "
                    f"its stored hash {digest[:16]}…"
                )
            # The restoring engine decides the executable form: codegen
            # routes through its digest-keyed code cache, compiled
            # rebuilds closure thunks.
            if self.engine == "codegen":
                thunk = codegen_node(node, self.scratch_codegen_stats)
            else:
                thunk = compile_node(node, self.scratch_compile_stats)
            self.code_cache[digest] = thunk
            return thunk
        raise SnapshotFormatError(f"unknown node tag {tag}")

    # -- decode ----------------------------------------------------------

    def decode(self) -> Session:
        r = self.reader
        if r.raw(4) != MAGIC:
            raise SnapshotFormatError("not a session snapshot (bad magic)")
        version = r.u8()
        if version not in _READABLE_VERSIONS:
            raise SnapshotFormatError(
                f"unsupported snapshot format version {version} "
                f"(this build reads versions {_READABLE_VERSIONS})"
            )
        self.version = version
        name = r.str_()
        engine = r.str_()
        if self.engine_override is not None:
            engine = self.engine_override
        engine = _LEGACY_ENGINES.get(engine, engine)
        self.engine = engine
        policy = r.str_()
        quantum = r.varint()
        flags = r.u8()  # bit 0 reserved
        profile = bool(flags & 2)
        echo = bool(flags & 4)
        analysis = bool(flags & 8)
        max_pending = r.varint()
        watermarks = tuple(r.varint() for _ in range(6))
        prelude = False  # a version 3 blob holds its whole prelude
        if version >= 4:
            kind = r.u8()
            if kind not in (_BASE_BARE, _BASE_PRELUDE):
                raise SnapshotFormatError(f"unknown base kind {kind}")
            prelude = kind == _BASE_PRELUDE
            if r.raw(32) != _base_digest(prelude):
                raise SnapshotBaseMismatch(
                    f"snapshot of {name!r} was taken against another "
                    f"{'prelude image' if prelude else 'primitive table'} "
                    "than this build boots"
                )

        # Boot the base afresh, with the blob's analysis flag (so the
        # prelude's closures carry the same effect stamps) and under the
        # restoring engine; the blob then applies onto it.
        streams = _uid_streams()
        before_boot = [stream.peek() for stream in streams]
        session = Session(
            policy=SchedulerPolicy(policy),
            quantum=quantum,
            prelude=prelude,
            echo_output=echo,
            engine=engine,
            profile=profile,
            max_pending=max_pending,
            name=self.name_override if self.name_override is not None else name,
            record=self.record,
            analysis=analysis,
        )
        self.session = session
        self.globals = session.globals
        self.record = session.machine.recorder  # resolved Recorder or None
        self.base = session.base.objects
        self.primitives = {
            (type(value), value.name): value
            for value in self.base
            if type(value) in (Primitive, ControlPrimitive)
        }

        # Phase 1: construct every object from its head; stash the
        # rest-bytes for phase 3.
        count = r.varint()
        rests: list[tuple[int, Reader, Any]] = []
        for _ in range(count):
            tag = r.u8()
            length = r.varint()
            payload = Reader(r.data, r.pos, r.pos + length)
            r.pos += length
            maker = _MAKERS.get(tag)
            if maker is None:
                raise SnapshotFormatError(f"unknown object tag {tag}")
            obj = maker(self, payload)
            self.objects.append(obj)
            rests.append((tag, payload, obj))

        # Phase 2: the IR DAG (children precede parents), recompiling
        # code stubs as their source nodes complete.
        for _ in range(r.varint()):
            self.nodes.append(self._build_node(r))

        # Phase 3: fill reference-bearing fields.
        for tag, payload, obj in rests:
            _FILLERS[tag](self, payload, obj)

        # Phase 4: session roots.
        rv = self._read_value
        machine = rv(r)
        if not isinstance(machine, Machine):
            raise SnapshotFormatError("snapshot root is not a machine")
        macros = rv(r)
        loaded = rv(r)
        parts = rv(r)
        for record in _metric_roots(session):
            record.restore(rv(r))
        pending = rv(r)
        active = rv(r)

        session.machine = machine
        session.output.parts = list(parts)
        session.expand_env.macros.clear()
        for macro_name, macro in macros:
            session.expand_env.macros[macro_name] = macro
        session._loaded_examples = set(loaded)
        session._pending = deque(pending)
        session._active = active
        for handle in session._pending:
            handle.session = session
        if active is not None:
            active.session = session
        # The boot ran its forms on the machine just replaced, so nothing
        # restored holds a uid it took: each stream goes back to where it
        # stood, then up to the blob's watermark — never below either,
        # since other sessions in this process may be further along.  A
        # restore so takes no uids, and snapshot → restore → snapshot
        # stays byte-identical.  This holds while no other thread mints
        # uids during the boot: a process drives its sessions from one
        # thread (a host's, a shard's), as the unlocked streams require.
        for stream, before, watermark in zip(streams, before_boot, watermarks):
            stream.reset(max(before, watermark))
        return session


# -- per-type makers / fillers ------------------------------------------


def _make_blank(cls: type) -> Callable[["_Decoder", Reader], Any]:
    def make(dec: "_Decoder", r: Reader) -> Any:
        return object.__new__(cls)

    return make


def _fill_attrs(*names: str) -> Callable[["_Decoder", Reader, Any], None]:
    def fill(dec: "_Decoder", r: Reader, obj: Any) -> None:
        for name in names:
            setattr(obj, name, dec._read_value(r))

    return fill


def _fill_frozen(*names: str) -> Callable[["_Decoder", Reader, Any], None]:
    def fill(dec: "_Decoder", r: Reader, obj: Any) -> None:
        for name in names:
            object.__setattr__(obj, name, dec._read_value(r))

    return fill


def _make_gensym(dec: _Decoder, r: Reader) -> Symbol:
    return Symbol(r.str_(), _interned=False)


def _make_cell(dec: _Decoder, r: Reader) -> GlobalCell:
    name = r.str_()
    interned = bool(r.u8())
    if interned:
        # Merge by name into the restoring session's table: identity is
        # shared with the freshly installed bindings.
        return dec.globals.cell(intern(name))
    return GlobalCell(None)  # type: ignore[arg-type]  # a gensym: named in its rest


def _fill_cell(dec: _Decoder, r: Reader, obj: GlobalCell) -> None:
    if obj.name is None or dec.version < 4:
        # Version 3 writes every cell's name in its rest; version 4
        # only a gensym's.
        obj.name = dec._read_value(r)
    obj.value = dec._read_value(r)
    name = obj.name
    if not name._interned and dec.globals.cells.get(name) is not obj:
        # A gensym-named cell can't merge by spelling; register it
        # under its (restored) identity.
        dec.globals.cells[name] = obj


def _make_primitive_of(cls: type) -> Callable[[_Decoder, Reader], Any]:
    """The maker for a primitive record: the installed primitive of
    class ``cls`` with the recorded name."""
    label = "control primitive" if cls is ControlPrimitive else "primitive"

    def make(dec: _Decoder, r: Reader) -> Any:
        name = r.str_()
        prim = dec.primitives.get((cls, name))
        if prim is None:
            raise SnapshotError(
                f"snapshot references {label} {name!r}, which this build "
                "does not install"
            )
        return prim

    return make


def _make_task(dec: _Decoder, r: Reader) -> Task:
    task = object.__new__(Task)
    task.uid = r.varint()
    return task


def _fill_task(dec: _Decoder, r: Reader, task: Task) -> None:
    rv = dec._read_value
    task.tag = _CONTROL_TAG_LIST[rv(r)]
    task.payload = rv(r)
    task.env = rv(r)
    task.frames = rv(r)
    task.link = rv(r)
    task.state = TaskState(rv(r))
    task.steps = rv(r)


def _make_label(dec: _Decoder, r: Reader) -> Label:
    uid = r.varint()
    name = r.str_()
    prompt = bool(r.u8())
    label = object.__new__(PromptLabel if prompt else Label)
    label.uid = uid
    label.name = name
    return label


def _make_uid(cls: type) -> Callable[["_Decoder", Reader], Any]:
    def make(dec: "_Decoder", r: Reader) -> Any:
        obj = object.__new__(cls)
        obj.uid = r.varint()
        return obj

    return make


def _fill_environment(dec: _Decoder, r: Reader, env: Environment) -> None:
    bindings = dec._read_value(r)
    env.bindings = dict(bindings)
    env.parent = dec._read_value(r)
    env.globals = dec.globals


def _fill_machine(dec: _Decoder, r: Reader, machine: Machine) -> None:
    rv = dec._read_value
    policy = rv(r)
    quantum = rv(r)
    max_steps = rv(r)
    engine = rv(r)
    rv(r)  # reserved: the pre-1.5 ``batched`` field
    profile = rv(r)
    rv(r)  # reserved: the pre-1.5 ``fold`` field
    has_recorder = rv(r)
    deadline = rv(r)
    machine.__init__(
        dec.globals,
        policy=SchedulerPolicy(policy),
        seed=0,
        quantum=quantum,
        max_steps=max_steps,
        engine=_LEGACY_ENGINES.get(engine, engine),
        profile=profile,
        record=dec.record if has_recorder else None,
    )
    machine.deadline = None if deadline is None else dec.now + deadline
    machine.toplevel_env = rv(r)
    machine.root_entity = rv(r)
    machine.root_label_link = rv(r)
    machine.queue = deque(rv(r))
    machine.halt_value = rv(r)
    machine.steps_total = rv(r)
    machine.parked_futures = rv(r)
    machine.waiting_tasks = set(rv(r))
    machine.stats = dict(rv(r))
    machine.vm_stats = dict(rv(r))
    state = rv(r)
    if state is not None:  # version 4 writes it only under the random policy
        machine.rng.setstate(state)


def _fill_handle(dec: _Decoder, r: Reader, handle: EvalHandle) -> None:
    rv = dec._read_value
    handle.session = None  # type: ignore[assignment]  # wired in finalize
    handle.nodes = rv(r)
    handle.max_steps = rv(r)
    deadline = rv(r)
    handle.deadline_at = None if deadline is None else dec.now + deadline
    handle.state = HandleState(rv(r))
    handle.values = rv(r)
    handle.steps = rv(r)
    handle.submitted_at = dec.now - rv(r)
    handle._exception = None
    handle._listener = None  # listeners are process-local, never encoded
    handle._cancel_requested = rv(r)
    handle._node_index = rv(r)
    handle._node_running = rv(r)
    handle.report = None  # transient; re-derivable from the source
    handle.classification = rv(r)


def _fill_closure(dec: _Decoder, r: Reader, obj: Closure) -> None:
    rv = dec._read_value
    obj.params = rv(r)
    obj.rest = rv(r)
    obj.body = rv(r)
    obj.env = rv(r)
    obj.name = rv(r)
    obj.nslots = rv(r)
    obj.low = rv(r)
    obj.high = rv(r)
    bits = rv(r)
    obj.effects = None if bits is None else EffectInfo.from_bits(bits)


def _fill_macro(dec: _Decoder, r: Reader, macro: Macro) -> None:
    rv = dec._read_value
    macro.name = rv(r)
    macro.keywords = frozenset(rv(r))
    macro.rules = [Rule(pattern, template) for pattern, template in rv(r)]


_MAKERS: dict[int, Callable[[_Decoder, Reader], Any]] = {
    _O_PAIR: _make_blank(Pair),
    _O_MVECTOR: _make_blank(MVector),
    _O_GENSYM: _make_gensym,
    _O_CELL: _make_cell,
    _O_PRIMITIVE: _make_primitive_of(Primitive),
    _O_CONTROL_PRIMITIVE: _make_primitive_of(ControlPrimitive),
    _O_CLOSURE: _make_blank(Closure),
    _O_ENVIRONMENT: _make_blank(Environment),
    _O_SLOT_RIB: _make_blank(SlotRib),
    _O_TASK: _make_task,
    _O_LABEL: _make_label,
    _O_HALT_LINK: _make_blank(HaltLink),
    _O_LABEL_LINK: _make_blank(LabelLink),
    _O_FORK_LINK: _make_blank(ForkLink),
    _O_JOIN: _make_blank(Join),
    _O_APP_FRAME: _make_blank(AppFrame),
    _O_IF_FRAME: _make_blank(IfFrame),
    _O_SEQ_FRAME: _make_blank(SeqFrame),
    _O_SET_FRAME: _make_blank(SetFrame),
    _O_LOCAL_SET_FRAME: _make_blank(LocalSetFrame),
    _O_GLOBAL_SET_FRAME: _make_blank(GlobalSetFrame),
    _O_DEFINE_FRAME: _make_blank(DefineFrame),
    _O_CAPTURE: _make_blank(Capture),
    _O_CONTROLLER: _make_blank(ProcessController),
    _O_PROCESS_CONT: _make_blank(ProcessContinuation),
    _O_ROOT_CONT: _make_blank(RootContinuation),
    _O_LEAF_CONT: _make_blank(LeafContinuation),
    _O_FUNCTIONAL_CONT: _make_blank(FunctionalContinuation),
    _O_PLACEHOLDER: _make_uid(FuturePlaceholder),
    _O_ENGINE: _make_uid(EngineValue),
    _O_MACHINE: _make_blank(Machine),
    _O_MACRO: _make_blank(Macro),
    _O_HANDLE: _make_uid(EvalHandle),
}

_FILLERS: dict[int, Callable[[_Decoder, Reader, Any], None]] = {
    _O_PAIR: _fill_attrs("car", "cdr"),
    _O_MVECTOR: _fill_attrs("items"),
    _O_GENSYM: lambda dec, r, obj: None,
    _O_CELL: _fill_cell,
    _O_PRIMITIVE: lambda dec, r, obj: None,
    _O_CONTROL_PRIMITIVE: lambda dec, r, obj: None,
    _O_CLOSURE: _fill_closure,
    _O_ENVIRONMENT: _fill_environment,
    _O_SLOT_RIB: _fill_attrs("values", "parent"),
    _O_TASK: _fill_task,
    _O_LABEL: lambda dec, r, obj: None,
    _O_HALT_LINK: _fill_attrs("machine", "placeholder", "child"),
    _O_LABEL_LINK: _fill_attrs("label", "cont_frames", "cont_link", "child"),
    _O_FORK_LINK: _fill_attrs("join", "index"),
    _O_JOIN: _fill_attrs(
        "slots", "delivered", "remaining", "children", "cont_frames", "cont_link"
    ),
    _O_APP_FRAME: _fill_attrs("done", "pending", "env", "next"),
    _O_IF_FRAME: _fill_attrs("then", "els", "env", "next"),
    _O_SEQ_FRAME: _fill_attrs("remaining", "env", "next"),
    _O_SET_FRAME: _fill_attrs("name", "env", "next"),
    _O_LOCAL_SET_FRAME: _fill_attrs("depth", "index", "env", "next"),
    _O_GLOBAL_SET_FRAME: _fill_attrs("cell", "next"),
    _O_DEFINE_FRAME: _fill_attrs("name", "env", "next"),
    _O_CAPTURE: _fill_frozen("root", "hole"),
    _O_CONTROLLER: _fill_attrs("label"),
    _O_PROCESS_CONT: _fill_attrs("capture"),
    _O_ROOT_CONT: _fill_attrs("capture"),
    _O_LEAF_CONT: _fill_attrs("frames", "link"),
    _O_FUNCTIONAL_CONT: _fill_attrs("capture"),
    _O_PLACEHOLDER: _fill_attrs("resolved", "value", "waiters"),
    _O_ENGINE: _fill_attrs("machine", "spent", "mileage"),
    _O_MACHINE: _fill_machine,
    _O_MACRO: _fill_macro,
    _O_HANDLE: _fill_handle,
}


# =======================================================================
# Public API
# =======================================================================


def snapshot_session(session: Session) -> bytes:
    """Serialize ``session`` — idle or suspended mid-evaluation — into
    a blob holding what it changed since boot, relative to the base any
    process of this build boots.  Deterministic: the same session state
    yields the same bytes."""
    return _Encoder(session).encode()


def restore_session(
    blob: bytes,
    *,
    record: Any = None,
    name: str | None = None,
    engine: str | None = None,
) -> Session:
    """Rebuild a :class:`~repro.host.session.Session` from a snapshot
    blob, in this or any other process.

    ``record`` attaches an observability recorder to the restored
    session (recorders are never serialized); ``name`` overrides the
    stored session name (the cluster tier uses this to keep shard-local
    names stable).  ``engine`` restores under a different engine than
    the one that took the snapshot — snapshots record code as resolved
    IR plus digest, so any engine can rebuild its own executable form
    (cross-engine migration; values are engine-independent).  The
    session boots its base afresh, under that engine, and the blob
    applies onto it.  Raises :class:`~repro.errors.SnapshotFormatError`
    on malformed or version-incompatible blobs, and
    :class:`~repro.errors.SnapshotBaseMismatch` when the blob's base
    digest is not this build's.
    """
    from repro.machine.scheduler import normalize_engine

    if engine is not None:
        engine = normalize_engine(engine)
    return _Decoder(blob, record=record, name=name, engine=engine).decode()
