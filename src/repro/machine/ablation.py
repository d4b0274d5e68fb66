"""Ablation: copying capture, a behaviourally identical, deliberately
slower baseline.

Section 7's cost claim rests on capturing segments **by reference**
(frames are immutable, so a captured subtree shares them).  The obvious
alternative — copying every frame at capture time, as naive
continuation implementations do — costs O(continuation size).
:func:`capture_subtree_copying` preserves that alternative so
``benchmarks/bench_e9_capture_cost.py`` can show the difference
empirically: sharing capture stays flat as segments deepen, copying
capture grows linearly.  It is *behaviourally identical* (tests assert
so); it only does redundant work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.machine.frames import (
    AppFrame,
    DefineFrame,
    Frame,
    GlobalSetFrame,
    IfFrame,
    LocalSetFrame,
    SeqFrame,
    SetFrame,
)
from repro.machine.links import TOMBSTONE, ForkLink, Join, LabelLink
from repro.machine.task import HOLE, Task, TaskState
from repro.machine.tree import Capture

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.scheduler import Machine

__all__ = ["copy_frames", "capture_subtree_copying"]


def copy_frames(frame: Frame | None) -> Frame | None:
    """Deep-copy a frame chain (the O(size) work sharing avoids)."""
    frames: list[Frame] = []
    node = frame
    while node is not None:
        frames.append(node)
        node = node.next
    copied: Frame | None = None
    for original in reversed(frames):
        if isinstance(original, AppFrame):
            copied = AppFrame(original.done, original.pending, original.env, copied)
        elif isinstance(original, IfFrame):
            copied = IfFrame(original.then, original.els, original.env, copied)
        elif isinstance(original, SeqFrame):
            copied = SeqFrame(original.remaining, original.env, copied)
        elif isinstance(original, SetFrame):
            copied = SetFrame(original.name, original.env, copied)
        elif isinstance(original, LocalSetFrame):
            copied = LocalSetFrame(
                original.depth, original.index, original.env, copied
            )
        elif isinstance(original, GlobalSetFrame):
            copied = GlobalSetFrame(original.cell, copied)
        elif isinstance(original, DefineFrame):
            copied = DefineFrame(original.name, original.env, copied)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown frame: {original!r}")
    return copied


def _copy_entity(entity: Any, new_link: Any, task_map: dict[int, Task]) -> Any:
    if entity is None or entity is TOMBSTONE:
        return entity
    if isinstance(entity, Task):
        clone = Task(entity.control, entity.env, copy_frames(entity.frames), new_link)
        clone.state = TaskState.SUSPENDED
        task_map[id(entity)] = clone
        return clone
    if isinstance(entity, LabelLink):
        clone = LabelLink(entity.label, copy_frames(entity.cont_frames), new_link)
        clone.child = _copy_entity(entity.child, clone, task_map)
        return clone
    if isinstance(entity, Join):
        clone = Join(len(entity.slots), copy_frames(entity.cont_frames), new_link)
        clone.slots = list(entity.slots)
        clone.delivered = list(entity.delivered)
        clone.remaining = entity.remaining
        for index, child in enumerate(entity.children):
            clone.children[index] = _copy_entity(child, ForkLink(clone, index), task_map)
        return clone
    raise TypeError(f"not a tree entity: {entity!r}")


def clone_capture_copying(capture: Capture) -> Capture:
    """Clone a package *with* frame copying — the O(continuation size)
    alternative to :func:`repro.machine.tree.clone_capture`."""
    task_map: dict[int, Task] = {}
    root_clone = LabelLink(capture.root.label, None, None)  # type: ignore[arg-type]
    root_clone.child = _copy_entity(capture.root.child, root_clone, task_map)
    hole_clone = task_map[id(capture.hole)]
    return Capture(root=root_clone, hole=hole_clone)


def capture_subtree_copying(
    machine: "Machine", label_link: LabelLink, hole_task: Task
) -> Capture:
    """Copy-mode capture that also deep-copies every frame chain.

    Returns a package interchangeable with
    :func:`repro.machine.tree.capture_subtree`'s copy mode; only the
    cost differs.
    """
    task_map: dict[int, Task] = {}
    root_clone = LabelLink(label_link.label, None, None)  # type: ignore[arg-type]
    root_clone.child = _copy_entity(label_link.child, root_clone, task_map)
    hole_clone = task_map[id(hole_task)]
    hole_clone.tag = HOLE
    hole_clone.payload = None
    return Capture(root=root_clone, hole=hole_clone)
