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
              its fields (filled in a later pass)
    nodes     the IR DAG in topological order (children first), plus
              compiled-code stubs — code is **never** pickled; a stub
              is (source-node ref, stable hash) and the restorer
              recompiles, one ``compile_node`` per distinct hash, so
              closures that shared a body keep sharing one
    roots     the session record: machine, macro table, output buffer,
              stats, metrics, pending/active handles

Every record kind, object or IR node, is declared once, as a
:class:`_Record` in :data:`_OBJECT_RECORDS` or :data:`_NODE_RECORDS`:
its tag, class, head kind and ordered fields.  Encoding, discovery,
construction and fill all read that one declaration.

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
reference.  Version 3 and 4 blobs carry fields and metric roots of the
capture/effect analysis that 3.0 removed; a restore reads them in their
own layouts and drops them.

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
from typing import Any, Callable, NamedTuple

from repro.control.callcc import LeafContinuation, RootContinuation
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
from repro.machine.scheduler import Machine, SchedulerPolicy, normalize_engine
from repro.machine.scheduler import _NO_HALT  # the halt-register sentinel
from repro.machine.task import APPLY, EVAL, HOLE, VALUE, Task, TaskState
from repro.machine.tree import Capture
from repro.machine.values import Closure, ControlPrimitive, Primitive
from repro.obs.metrics import Metrics
from repro.primitives import install_primitives
from repro.snapshot.wire import Reader, Writer

__all__ = ["FORMAT_VERSION", "MAGIC", "restore_session", "snapshot_session", "uid_streams"]

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
#: random policy.
#: v5: the analysis is gone — the effects and classification fields are
#: reserved, the analysis flag bit is reserved, and the analysis-metrics
#: root and the submits_* session counters leave the roots.  Version 3
#: and 4 blobs still restore.
FORMAT_VERSION = 5
_READABLE_VERSIONS = (3, 4, 5)

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

_V_INT = 3
_V_FLOAT = 4
_V_STR = 5
_V_LIST = 6
_V_TUPLE = 7
_V_FRACTION = 8
_V_CHAR = 15
_V_ISYM = 16  # interned symbol, by spelling
_V_OREF = 17  # object-table reference
_V_NREF = 18  # node-table reference (IR node or code stub)
_V_BASE = 19  # boot-base object, by position (v4)

#: The value tags that each stand for one object, written as the tag
#: alone.
_SINGLETONS = {
    0: None,
    1: True,
    2: False,
    9: NIL,
    10: UNSPECIFIED,
    11: EOF_OBJECT,
    12: UNBOUND,
    13: TOMBSTONE,
    14: _NO_HALT,
}
_SINGLETON_TAGS = {id(value): tag for tag, value in _SINGLETONS.items()}

#: Classes written inline, with no identity to preserve.
_INLINE = frozenset({type(None), bool, int, float, str, Fraction, Char})

#: The node tag of a compiled-code stub: its source node, then that
#: node's ``ir-hash-v1``.
_N_CODE = 14

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
# Record declarations
# =======================================================================

_set = object.__setattr__  # also sets the fields of frozen IR nodes


class _Head(NamedTuple):
    """A record's head: the scalars written before its fields, from
    which phase 1 of a restore constructs the object."""

    write: Callable[[Writer, Any], None]
    #: ``make(decoder, reader, cls)``: the constructed object.
    make: Callable[[Any, Reader, type], Any]


def _blank(dec: Any, r: Reader, cls: type) -> Any:
    return object.__new__(cls)


_NO_HEAD = _Head(lambda w, obj: None, _blank)


def _make_named(dec: Any, r: Reader, cls: type) -> Any:
    """A gensym by its printed name, or the installed primitive of
    class ``cls`` with the recorded name (version 3 blobs name their
    primitives; version 4 points into the base)."""
    name = r.str_()
    if cls is Symbol:
        return Symbol(name)
    prim = dec.primitives.get((cls, name))
    if prim is None:
        label = "control primitive" if cls is ControlPrimitive else "primitive"
        raise SnapshotError(
            f"snapshot references {label} {name!r}, which this build does not install"
        )
    return prim


_NAME_HEAD = _Head(lambda w, obj: w.str_(obj.name), _make_named)


def _varints(*names: str) -> _Head:
    """A head of integer attributes, written as varints."""

    def write(w: Writer, obj: Any) -> None:
        for name in names:
            w.varint(getattr(obj, name))

    def make(dec: Any, r: Reader, cls: type) -> Any:
        obj = object.__new__(cls)
        for name in names:
            _set(obj, name, r.varint())
        return obj

    return _Head(write, make)


_UID_HEAD = _varints("uid")
_ADDRESS_HEAD = _varints("depth", "index")


def _write_label(w: Writer, label: Label) -> None:
    w.varint(label.uid)
    w.str_(label.name)
    w.u8(1 if isinstance(label, PromptLabel) else 0)


def _make_label(dec: Any, r: Reader, cls: type) -> Label:
    uid = r.varint()
    name = r.str_()
    label = object.__new__(PromptLabel if r.u8() else Label)
    label.uid = uid
    label.name = name
    return label


_LABEL_HEAD = _Head(_write_label, _make_label)


def _write_cell(w: Writer, cell: GlobalCell) -> None:
    w.str_(cell.name.name)
    w.u8(1 if cell.name._interned else 0)


def _make_cell(dec: Any, r: Reader, cls: type) -> GlobalCell:
    name = r.str_()
    if r.u8():
        # Merge by name into the restoring session's table: identity is
        # shared with the freshly installed bindings.
        return dec.globals.cell(intern(name))
    return GlobalCell(None)  # type: ignore[arg-type]  # a gensym, named by its fields


_CELL_HEAD = _Head(_write_cell, _make_cell)


#: A field's value is noted when its record is reached.
_VALUE = 0
#: The field holds IR children (a node or a tuple of nodes), walked
#: after the node's values, in field order.
_CHILDREN = 1
#: A lexical reference's debug name, noted after the rest of the walk:
#: its binder's params carry the same symbol, in walk order, and this
#: registers it only when the binder is not in the snapshot.
_LAST = 2


class _Field(NamedTuple):
    """One field of a record, in wire order."""

    #: The attribute; None for a reserved field, written as a constant
    #: and ignored on read.
    name: str | None
    #: ``(codec, value) -> value`` converters to and from the wire form;
    #: None writes or reads the value as itself.
    to_wire: Callable[[Any, Any], Any] | None = None
    from_wire: Callable[[Any, Any], Any] | None = None
    #: How discovery walks it: ``_VALUE``, ``_CHILDREN`` or ``_LAST``.
    walk: int = _VALUE


def _node(name: str) -> _Field:
    return _Field(name, walk=_CHILDREN)


def _reserved(value: Any) -> _Field:
    return _Field(None, lambda codec, _: value)


# Converter pairs, ``_Field(name, *pair)``.
_AS_LIST = (lambda codec, items: list(items), None)
_ITEMS = (lambda codec, table: list(table.items()), lambda codec, items: dict(items))
_CONTROL_TAG = (
    lambda codec, tag: _CONTROL_TAGS[tag],
    lambda codec, index: _CONTROL_TAG_LIST[index],
)
# A deadline as the seconds it has left, an age as the seconds it has
# run: both re-anchored to the restoring process's monotonic clock.
_DEADLINE = (
    lambda codec, at: None if at is None else at - codec.now,
    lambda codec, left: None if left is None else codec.now + left,
)
_AGE = (lambda codec, since: codec.now - since, lambda codec, age: codec.now - age)


def _enum(cls: type) -> tuple:
    return (lambda codec, member: member.value, lambda codec, value: cls(value))


class _Record:
    """One record kind: its wire tag, its class (or classes), its head
    kind and its ordered fields.

    ``transient`` names attributes that never travel and what a restore
    sets them to: a value, or a function of the decoder.  A record is
    ``before_code`` when IR can point into it — quoted structure and
    global cells: a restore fills it before any code stub is hashed and
    compiled.
    """

    __slots__ = ("tag", "cls", "classes", "head", "fields", "walks", "transient", "before_code")

    def __init__(
        self,
        tag: int,
        classes: type | tuple[type, ...],
        *fields: str | _Field,
        head: _Head = _NO_HEAD,
        transient: dict[str, Any] | None = None,
        before_code: bool = False,
    ):
        self.tag = tag
        self.classes = classes if isinstance(classes, tuple) else (classes,)
        self.cls = self.classes[0]
        self.head = head
        self.fields = tuple(_Field(f) if isinstance(f, str) else f for f in fields)
        #: Per walk kind, the positions of its fields.
        self.walks = tuple(
            tuple(i for i, f in enumerate(self.fields) if f.walk == walk)
            for walk in (_VALUE, _CHILDREN, _LAST)
        )
        self.transient = tuple((transient or {}).items())
        self.before_code = before_code

    def wire_values(self, enc: Any, obj: Any) -> list:
        """The fields as written, in order."""
        values = []
        for name, to_wire, _, _ in self.fields:
            value = None if name is None else getattr(obj, name)
            values.append(value if to_wire is None else to_wire(enc, value))
        return values

    def make(self, dec: Any, r: Reader) -> Any:
        return self.head.make(dec, r, self.cls)

    def fill(self, dec: Any, r: Reader, obj: Any) -> None:
        read = dec._read_value
        for name, _, from_wire, _ in self.fields:
            value = read(r)
            if name is not None:
                _set(obj, name, value if from_wire is None else from_wire(dec, value))
        for name, value in self.transient:
            _set(obj, name, value(dec) if callable(value) else value)


class _CellRecord(_Record):
    """A global cell merges into the restoring session's table by name
    (its head).  An interned name is written only there; a gensym's
    name, and every version 3 cell's, leads its fields."""

    def wire_values(self, enc: Any, cell: GlobalCell) -> list:
        values = super().wire_values(enc, cell)
        return values if cell.name._interned else [cell.name, *values]

    def fill(self, dec: Any, r: Reader, cell: GlobalCell) -> None:
        if cell.name is None or dec.version < 4:
            cell.name = dec._read_value(r)
        super().fill(dec, r, cell)
        name = cell.name
        if not name._interned and dec.globals.cells.get(name) is not cell:
            # A gensym-named cell can't merge by spelling; register it
            # under its (restored) identity.
            dec.globals.cells[name] = cell


class _MachineRecord(_Record):
    """The machine is rebuilt through ``Machine.__init__`` (the state
    no field carries), and its RNG state, read only by the random
    policy, follows the fields under that policy alone."""

    def make(self, dec: Any, r: Reader) -> Machine:
        return Machine(dec.globals, seed=0)

    def wire_values(self, enc: Any, machine: Machine) -> list:
        random = machine.policy is SchedulerPolicy.RANDOM
        return [*super().wire_values(enc, machine), machine.rng.getstate() if random else None]

    def fill(self, dec: Any, r: Reader, machine: Machine) -> None:
        super().fill(dec, r, machine)
        state = dec._read_value(r)
        if state is not None:  # version 3 writes it under every policy
            machine.rng.setstate(state)


#: The object table's records, by tag (append-only).
_OBJECT_RECORDS = (
    _Record(1, Pair, "car", "cdr", before_code=True),
    _Record(2, MVector, "items", before_code=True),
    _Record(3, Symbol, head=_NAME_HEAD),  # gensyms only: interned ones travel by spelling
    _CellRecord(4, GlobalCell, "value", head=_CELL_HEAD, before_code=True),
    _Record(5, Primitive, head=_NAME_HEAD),
    _Record(6, ControlPrimitive, head=_NAME_HEAD),
    _Record(
        7, Closure, "params", "rest", "body", "env", "name", "nslots", "low", "high",
        _reserved(None),  # the pre-3.0 ``effects`` field
    ),
    _Record(
        8, Environment, _Field("bindings", *_ITEMS), "parent",
        transient={"globals": lambda dec: dec.globals},
    ),
    _Record(9, SlotRib, _Field("values", *_AS_LIST), "parent"),
    _Record(
        10, Task, _Field("tag", *_CONTROL_TAG), "payload", "env", "frames", "link",
        _Field("state", *_enum(TaskState)), "steps",
        head=_UID_HEAD,
    ),
    _Record(11, (Label, PromptLabel), head=_LABEL_HEAD),
    _Record(12, HaltLink, "machine", "placeholder", "child"),
    _Record(13, LabelLink, "label", "cont_frames", "cont_link", "child"),
    _Record(14, ForkLink, "join", "index"),
    _Record(15, Join, "slots", "delivered", "remaining", "children", "cont_frames", "cont_link"),
    _Record(16, AppFrame, "done", "pending", "env", "next"),
    _Record(17, IfFrame, "then", "els", "env", "next"),
    _Record(18, SeqFrame, "remaining", "env", "next"),
    _Record(19, SetFrame, "name", "env", "next"),
    _Record(20, LocalSetFrame, "depth", "index", "env", "next"),
    _Record(21, GlobalSetFrame, "cell", "next"),
    _Record(22, DefineFrame, "name", "env", "next"),
    _Record(23, Capture, "root", "hole"),
    _Record(24, ProcessController, "label"),
    _Record(25, ProcessContinuation, "capture"),
    _Record(26, RootContinuation, "capture"),
    _Record(27, LeafContinuation, "frames", "link"),
    _Record(28, FunctionalContinuation, "capture"),
    _Record(29, FuturePlaceholder, "resolved", "value", "waiters", head=_UID_HEAD),
    _Record(30, EngineValue, "machine", "spent", "mileage", head=_UID_HEAD),
    _MachineRecord(
        31,
        Machine,
        _Field("policy", *_enum(SchedulerPolicy)),
        "quantum",
        "max_steps",
        _Field("engine", None, lambda dec, e: normalize_engine(_LEGACY_ENGINES.get(e, e))),
        _reserved(True),  # the pre-1.5 ``batched`` field
        "profile",
        _reserved(False),  # the pre-1.5 ``fold`` field
        # Recorders are never serialized: a machine that had one gets
        # the restore's.
        _Field(
            "recorder",
            lambda enc, recorder: recorder is not None,
            lambda dec, had_one: dec.record if had_one else None,
        ),
        _Field("deadline", *_DEADLINE),
        "toplevel_env",
        "root_entity",
        "root_label_link",
        _Field("queue", lambda enc, tasks: list(tasks), lambda dec, tasks: deque(tasks)),
        "halt_value",
        "steps_total",
        _Field("parked_futures", *_AS_LIST),
        _Field(
            "waiting_tasks",
            lambda enc, tasks: sorted(tasks, key=lambda t: t.uid),
            lambda dec, tasks: set(tasks),
        ),
        _Field("stats", *_ITEMS),
        _Field("vm_stats", *_ITEMS),
    ),
    _Record(
        32,
        Macro,
        "name",
        _Field(
            "keywords",
            lambda enc, keywords: sorted(keywords, key=lambda s: s.name),
            lambda dec, keywords: frozenset(keywords),
        ),
        _Field(
            "rules",
            lambda enc, rules: [(rule.pattern, rule.template) for rule in rules],
            lambda dec, rules: [Rule(pattern, template) for pattern, template in rules],
        ),
    ),
    _Record(
        33,
        EvalHandle,
        _Field("nodes", *_AS_LIST),
        "max_steps",
        _Field("deadline_at", *_DEADLINE),
        _Field("state", *_enum(HandleState)),
        _Field("values", *_AS_LIST),
        "steps",
        _Field("submitted_at", *_AGE),
        "_cancel_requested",
        "_node_index",
        "_node_running",
        _reserved(None),  # the pre-3.0 ``classification`` field
        head=_UID_HEAD,
        # The session is wired when the roots are read; listeners are
        # process-local.
        transient=dict(session=None, _exception=None, _listener=None),
    ),
)

#: The node table's records, by tag (append-only; 14 is a code stub).
_NODE_RECORDS = (
    _Record(1, Const, "value"),
    _Record(2, Var, "name"),
    _Record(3, Lambda, "params", "rest", _node("body"), "name", "nslots", _reserved(None)),
    _Record(4, App, _node("fn"), _node("args")),
    _Record(5, If, _node("test"), _node("then"), _node("els")),
    _Record(6, SetBang, "name", _node("expr")),
    _Record(7, Seq, _node("exprs")),
    _Record(8, DefineTop, "name", _node("expr")),
    _Record(9, Pcall, _node("exprs")),
    _Record(10, LocalRef, _Field("name", walk=_LAST), head=_ADDRESS_HEAD),
    _Record(11, LocalSet, _node("expr"), _Field("name", walk=_LAST), head=_ADDRESS_HEAD),
    _Record(12, GlobalRef, "cell"),
    _Record(13, GlobalSet, "cell", _node("expr")),
)


def _by_class(records: tuple[_Record, ...]) -> dict[type, _Record]:
    # Keyed by *exact* class: a subclass is not silently written as its base.
    return {cls: record for record in records for cls in record.classes}


_OBJECTS_BY_CLASS = _by_class(_OBJECT_RECORDS)
_OBJECTS_BY_TAG = {record.tag: record for record in _OBJECT_RECORDS}
_NODES_BY_CLASS = _by_class(_NODE_RECORDS)
_NODES_BY_TAG = {record.tag: record for record in _NODE_RECORDS}


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
        #: ``(record, object, wire values)`` in table order.
        self.objects: list[tuple[_Record, Any, list]] = []
        self.node_ids: dict[int, int] = {}
        #: ``(record or None for a code stub, node, wire values)`` in
        #: table order.
        self.nodes: list[tuple[_Record | None, Any, list]] = []
        #: Values of ``_LAST`` fields met so far.
        self.last: list[Any] = []
        self.now = _monotonic()

    # -- discovery -------------------------------------------------------

    def _note(self, value: Any, queue: deque) -> None:
        """Classify ``value``: inline scalars are ignored, IR/code goes
        to the node table (postorder), everything else becomes an
        object-table entry whose fields are queued for discovery."""
        cls = value.__class__
        if cls in _INLINE:
            return
        if cls is Symbol:
            if value._interned:
                return
            # gensym: identity-bearing, falls through to the table
        elif cls is list or cls is tuple:
            queue.append(value)
            return
        elif id(value) in _SINGLETON_TAGS:
            return
        elif cls in _NODES_BY_CLASS or _node_source(value) is not None:
            self._add_node_tree(value, queue)
            return
        if id(value) in self.obj_ids or id(value) in self.base_ids:
            return
        record = _OBJECTS_BY_CLASS.get(cls)
        if record is None:
            raise SnapshotError(
                f"snapshot: cannot serialize a value of type "
                f"{cls.__module__}.{cls.__name__}: {value!r}"
            )
        values = record.wire_values(self, value)
        self.obj_ids[id(value)] = len(self.objects)
        self.objects.append((record, value, values))
        queue.append(values)

    def _add_node_tree(self, root: Any, queue: deque) -> None:
        """Register an IR tree (or code thunk) in the node table,
        children before parents.  A node's value fields are noted into
        the main object walk before its children are walked, in field
        order; its ``_LAST`` fields wait for the end of the walk."""
        node_ids = self.node_ids
        stack: list[tuple[Any, Any, Any]] = [(root, None, None)]
        while stack:
            item, record, values = stack.pop()
            if id(item) in node_ids:
                continue
            if values is not None:
                node_ids[id(item)] = len(self.nodes)
                self.nodes.append((record, item, values))
                continue
            record = _NODES_BY_CLASS.get(item.__class__)
            if record is None:
                source = _node_source(item)
                if source is None:
                    raise SnapshotError(f"snapshot: not an IR node: {item!r}")
                values = children = [source]
            else:
                values = record.wire_values(self, item)
                noted, walked, last = record.walks
                for i in noted:
                    self._note(values[i], queue)
                self.last.extend(values[i] for i in last)
                children = []
                for i in walked:
                    child = values[i]
                    if child.__class__ is tuple:
                        children.extend(child)
                    else:
                        children.append(child)
            stack.append((item, record, values))
            for child in reversed(children):
                stack.append((child, None, None))

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
        while True:
            while queue:
                for child in queue.popleft():
                    self._note(child, queue)
            if not self.last:
                break
            queue.append(self.last)
            self.last = []

    # -- emission --------------------------------------------------------

    def _write_value(self, w: Writer, value: Any) -> None:
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
        elif cls is list or cls is tuple:
            w.u8(_V_LIST if cls is list else _V_TUPLE)
            w.varint(len(value))
            for item in value:
                self._write_value(w, item)
        else:
            key = id(value)
            index = self.obj_ids.get(key)
            if index is not None:
                w.u8(_V_OREF)
                w.varint(index)
                return
            tag = _SINGLETON_TAGS.get(key)
            if tag is not None:
                w.u8(tag)
                return
            index = self.node_ids.get(key)
            if index is not None:
                w.u8(_V_NREF)
                w.varint(index)
                return
            index = self.base_ids.get(key)
            if index is not None:
                w.u8(_V_BASE)
                w.varint(index)
                return
            raise SnapshotError(f"snapshot: unregistered value {value!r}")

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
        # Bits 0 and 3 are reserved: pre-1.5 builds stored a
        # ``batched`` flag in bit 0 and pre-3.0 builds an ``analysis``
        # flag in bit 3.  Both are written set, as those builds'
        # defaults were, and ignored on read.
        w.u8(1 | (2 if machine.profile else 0) | (4 if session.output.echo else 0) | 8)
        w.varint(session.max_pending)
        for stream in uid_streams():
            w.varint(stream.peek())
        prelude = session.base.prelude
        w.u8(_BASE_PRELUDE if prelude else _BASE_BARE)
        w.raw(_base_digest(prelude))
        wv = self._write_value
        # Object table.
        w.varint(len(self.objects))
        for record, obj, values in self.objects:
            sub = Writer()
            record.head.write(sub, obj)
            for value in values:
                wv(sub, value)
            payload = sub.getvalue()
            w.u8(record.tag)
            w.varint(len(payload))
            w.raw(payload)
        # Node table (already topologically ordered by discovery).
        w.varint(len(self.nodes))
        for record, node, values in self.nodes:
            if record is None:
                source = values[0]
                w.u8(_N_CODE)
                wv(w, source)
                w.str_(stable_hash(source))
                continue
            w.u8(record.tag)
            record.head.write(w, node)
            for value in values:
                wv(w, value)
        # Session roots.
        wv(w, machine)
        wv(w, [(name, macro) for name, macro in session.expand_env.macros.items()])
        wv(w, sorted(session._loaded_examples))
        wv(w, list(session.output.parts))
        for record in _metric_roots(session):
            wv(w, record.snapshot())
        wv(w, list(session._pending))
        wv(w, session._active)
        return w.getvalue()


def _metric_roots(session: Session) -> tuple[Metrics, ...]:
    """The session's metric records, in wire order."""
    return (
        session.resolver_stats,
        session.compile_stats,
        session.codegen_stats,
        session.metrics,
    )


#: The session-metric scalars of version 3 and 4 blobs, in their wire
#: order.  The last three, the analysis's ``submits_*`` request-class
#: counts, left in version 5: they have no name here, so they are dropped.
_V4_SESSION_SCALARS = (
    "submits",
    "evals_completed",
    "evals_failed",
    "deadline_misses",
    "cancellations",
    "saturations",
    "quanta_served",
    "steps_served",
    "max_queue_depth",
    None,
    None,
    None,
)


def uid_streams() -> tuple[SerialCounter, ...]:
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
        #: the override); decided in :meth:`decode` before the code
        #: stubs are compiled, because it selects their executable form.
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
        if tag == _V_OREF:
            idx = r.varint()
            if idx >= len(self.objects):
                raise SnapshotFormatError(f"dangling object reference #{idx}")
            return self.objects[idx]
        if tag == _V_ISYM:
            return intern(r.str_())
        if tag == _V_INT:
            return r.svarint()
        if tag in _SINGLETONS:
            return _SINGLETONS[tag]
        if tag == _V_NREF:
            idx = r.varint()
            if idx >= len(self.nodes):
                raise SnapshotFormatError(f"dangling node reference #{idx}")
            return self.nodes[idx]
        if tag == _V_LIST:
            return [self._read_value(r) for _ in range(r.varint())]
        if tag == _V_TUPLE:
            return tuple(self._read_value(r) for _ in range(r.varint()))
        if tag == _V_STR:
            return r.str_()
        if tag == _V_BASE:
            idx = r.varint()
            if idx >= len(self.base):
                raise SnapshotFormatError(f"dangling base reference #{idx}")
            return self.base[idx]
        if tag == _V_FLOAT:
            return r.f64()
        if tag == _V_FRACTION:
            num = r.svarint()
            return Fraction(num, r.svarint())
        if tag == _V_CHAR:
            return Char(r.str_())
        raise SnapshotFormatError(f"unknown value tag {tag}")

    def _code(self, node: Any, digest: str) -> Any:
        """The executable form of a code stub: one per distinct digest,
        built by the restoring engine after checking the digest."""
        cached = self.code_cache.get(digest)
        if cached is not None:
            return cached
        if stable_hash(node) != digest:
            raise SnapshotFormatError(
                "snapshot integrity failure: decoded IR does not match "
                f"its stored hash {digest[:16]}…"
            )
        # Codegen routes through its digest-keyed code cache, compiled
        # rebuilds closure thunks.
        if self.engine == "codegen":
            thunk = codegen_node(node, self.scratch_codegen_stats)
        else:
            thunk = compile_node(node, self.scratch_compile_stats)
        self.code_cache[digest] = thunk
        return thunk

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
        flags = r.u8()  # bits 0 and 3 reserved
        profile = bool(flags & 2)
        echo = bool(flags & 4)
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

        # Boot the base afresh, under the restoring engine; the blob
        # then applies onto it.
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

        # Phase 1: construct every object from its head; keep its
        # field bytes for the fill.
        rests: list[tuple[_Record, Reader, Any]] = []
        for _ in range(r.varint()):
            tag = r.u8()
            length = r.varint()
            payload = Reader(r.data, r.pos, r.pos + length)
            r.pos += length
            record = _OBJECTS_BY_TAG.get(tag)
            if record is None:
                raise SnapshotFormatError(f"unknown object tag {tag}")
            obj = record.make(self, payload)
            self.objects.append(obj)
            rests.append((record, payload, obj))

        # Phase 2: the IR DAG (children precede parents).  A code stub
        # waits for phase 4: its hash and its compiled form read the
        # constants and cells its IR points at.
        stubs: list[tuple[int, Any, str]] = []
        for index in range(r.varint()):
            tag = r.u8()
            if tag == _N_CODE:
                source = self._read_value(r)
                stubs.append((index, source, r.str_()))
                self.nodes.append(None)
                continue
            record = _NODES_BY_TAG.get(tag)
            if record is None:
                raise SnapshotFormatError(f"unknown node tag {tag}")
            node = record.make(self, r)
            record.fill(self, r, node)
            self.nodes.append(node)

        # Phase 3: fill what IR points into; phase 4: compile the code
        # stubs; phase 5: fill everything else, which may hold code.
        for record, payload, obj in rests:
            if record.before_code:
                record.fill(self, payload, obj)
        for index, source, digest in stubs:
            self.nodes[index] = self._code(source, digest)
        for record, payload, obj in rests:
            if not record.before_code:
                record.fill(self, payload, obj)

        # Phase 6: session roots.
        rv = self._read_value
        machine = rv(r)
        if not isinstance(machine, Machine):
            raise SnapshotFormatError("snapshot root is not a machine")
        macros = rv(r)
        loaded = rv(r)
        parts = rv(r)
        resolver, compiled, codegen, metrics = _metric_roots(session)
        for record in (resolver, compiled, codegen):
            record.restore(rv(r))
        if version < 5:
            rv(r)  # the analysis root
            scalars, *states = rv(r)
            by_name = dict(zip(_V4_SESSION_SCALARS, scalars, strict=True))
            metrics.restore((tuple(by_name[name] for name in metrics.scalars), *states))
        else:
            metrics.restore(rv(r))
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
        # Boot takes no uids, so each stream only rises to the blob's
        # watermark — never lower, since other sessions in this process
        # may be further along.  A restore so takes no uids, and
        # snapshot → restore → snapshot stays byte-identical.
        for stream, watermark in zip(uid_streams(), watermarks):
            stream.advance(watermark)
        return session


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
    if engine is not None:
        engine = normalize_engine(engine)
    try:
        return _Decoder(blob, record=record, name=name, engine=engine).decode()
    except SnapshotError:
        raise
    except (ValueError, TypeError, AttributeError, ArithmeticError, LookupError) as exc:
        # A corrupt byte can land anywhere: in a UTF-8 string, an enum
        # value, a record's field count, a Fraction's denominator.
        raise SnapshotFormatError(f"malformed snapshot: {type(exc).__name__}: {exc}") from exc
