"""Proper tail calls: loops run in constant segment space."""

from repro import Interpreter
from repro.machine.frames import frame_chain_length
from tests.engines import eval_raw_ir


def test_self_tail_call_constant_space(interp):
    # A tail-recursive loop of 100k iterations must not grow frames.
    interp.run(
        "(define (loop i) (if (= i 100000) 'done (loop (+ i 1))))"
    )
    assert interp.eval("(loop 0)").name == "done"


def test_mutual_tail_calls(interp):
    interp.run(
        """
        (define (ping n) (if (= n 0) 'ping (pong (- n 1))))
        (define (pong n) (if (= n 0) 'pong (ping (- n 1))))
        """
    )
    assert interp.eval("(ping 50001)").name == "pong"


def test_named_let_tail_loop(interp):
    assert (
        interp.eval("(let loop ([i 0] [acc 0]) (if (= i 50000) acc (loop (+ i 1) (+ acc 1))))")
        == 50000
    )


def test_frame_depth_stays_bounded_in_tail_loop():
    """Instrument the machine: record the maximum frame-chain length
    during a tail loop and assert it stays below a small constant."""
    interp = Interpreter()
    max_depth = 0

    def hook(machine, task):
        nonlocal max_depth
        depth = frame_chain_length(task.frames)
        if depth > max_depth:
            max_depth = depth

    interp.machine.trace_hook = hook
    interp.run("(define (loop i) (if (= i 2000) i (loop (+ i 1))))")
    interp.eval("(loop 0)")
    assert max_depth < 10


def test_non_tail_recursion_grows_frames():
    """Control for the previous test: non-tail recursion must grow."""
    interp = Interpreter()
    max_depth = 0

    def hook(machine, task):
        nonlocal max_depth
        depth = frame_chain_length(task.frames)
        if depth > max_depth:
            max_depth = depth

    interp.machine.trace_hook = hook
    interp.run("(define (count i) (if (= i 200) 0 (+ 1 (count (+ i 1)))))")
    interp.eval("(count 0)")
    assert max_depth > 100


def test_deep_mutual_recursion_under_slot_ribs():
    """Regression for the resolved representation: mutual tail calls at
    depth 1e5 must neither blow the frame chain nor allocate ribs that
    keep each other alive.  The frame-depth bound is asserted live via
    the trace hook, so a silently-growing segment cannot pass."""
    interp = Interpreter()
    max_depth = 0

    def hook(machine, task):
        nonlocal max_depth
        depth = frame_chain_length(task.frames)
        if depth > max_depth:
            max_depth = depth

    interp.run(
        """
        (define (even? n) (if (= n 0) #t (odd? (- n 1))))
        (define (odd? n) (if (= n 0) #f (even? (- n 1))))
        """
    )
    interp.machine.trace_hook = hook
    assert interp.eval("(even? 100000)") is True
    assert interp.eval("(odd? 100001)") is True
    assert max_depth < 10


def test_deep_mutual_recursion_dict_baseline():
    """The same loop must also hold in the unresolved dialect: plain IR
    over dict-chain ribs, run through the raw-IR fallback."""
    interp = Interpreter()
    eval_raw_ir(
        interp,
        """
        (define (even? n) (if (= n 0) #t (odd? (- n 1))))
        (define (odd? n) (if (= n 0) #f (even? (- n 1))))
        """,
    )
    assert eval_raw_ir(interp, "(even? 100000)") == [True]


def test_tail_call_through_and_or(interp):
    interp.run("(define (loopa i) (and #t (if (= i 30000) 'ok (loopa (+ i 1)))))")
    assert interp.eval("(loopa 0)").name == "ok"
