"""Controllers and process continuations at run time on the machine:
abort, resume, validity, sibling suspension and nesting (§4, §5)."""

import pytest

from repro import Interpreter
from repro.control.spawn import ProcessContinuation
from repro.errors import DeadControllerError


def test_invoke_abort(interp):
    result = interp.eval("(spawn (lambda (c) (c (lambda (k) 'aborted)) 'unreachable))")
    assert result.name == "aborted"


def test_invoke_receives_subcontinuation(interp):
    interp.run("(define seen #f)")
    assert interp.eval("(spawn (lambda (c) (c (lambda (k) (set! seen k) 'done))))").name == "done"
    assert isinstance(interp.eval("seen"), ProcessContinuation)


def test_resume_composes(interp):
    interp.run("(define r (spawn (lambda (c) (* 2 (c (lambda (k) (cons 'paused k)))))))")
    assert interp.eval("(car r)").name == "paused"
    assert interp.eval("((cdr r) 21)") == 42


def test_resume_is_multi_shot(interp):
    """Each reinstatement clones the captured control points, so one
    process continuation can be resumed any number of times."""
    interp.run("(define k (spawn (lambda (c) (* 10 (c (lambda (k) k))))))")
    assert interp.eval("(k 1)") == 10
    assert interp.eval("(k 2)") == 20


def test_dead_controller_after_return(interp):
    with pytest.raises(DeadControllerError):
        interp.eval("((spawn (lambda (c) c)) (lambda (k) 'nope))")


def test_dead_controller_after_use(interp):
    with pytest.raises(DeadControllerError):
        interp.eval("((spawn (lambda (c) (c (lambda (k) (lambda () (c (lambda (k2) 'never))))))))")


def test_controller_valid_again_after_resume(interp):
    interp.run(
        """
        (define r1
          (spawn (lambda (c)
                   (let* ([first (c (lambda (k) (cons 'first k)))]
                          ;; Resumed: the root is back, so c captures again.
                          [second (c (lambda (k) (cons 'second k)))])
                     (list 'finished first second)))))
        (define r2 ((cdr r1) 'v1))
        """
    )
    assert interp.eval_to_string("(list (car r1) (car r2) ((cdr r2) 'v2))") == (
        "(first second (finished v1 v2))"
    )


def test_capture_suspends_sibling_branch():
    interp = Interpreter(quantum=1)
    interp.run(
        """
        (define progress 0)
        (define r
          (spawn (lambda (c)
                   (pcall list
                          (c (lambda (k) (cons 'paused k)))
                          (let loop ([i 0])
                            (if (= i 1000)
                                'sib
                                (begin (set! progress (+ i 1)) (loop (+ i 1)))))))))
        """
    )
    assert interp.eval("progress") < 1000  # the sibling was suspended mid-flight
    assert interp.eval_to_string("((cdr r) 'hole-value)") == "(hole-value sib)"
    assert interp.eval("progress") == 1000  # resumed where it stopped


def test_nested_controllers_inner_outer(interp):
    result = interp.eval(
        """
        (spawn (lambda (outer)
                 (list 'inner-returned
                       (spawn (lambda (inner)
                                (outer (lambda (k) 'outer-abort))
                                'not-reached)))))
        """
    )
    assert result.name == "outer-abort"


def test_invoke_from_outside_subtree_invalid(interp):
    interp.run("(define box #f)")
    interp.eval("(spawn (lambda (c) (set! box c) (c (lambda (k) 'out))))")
    with pytest.raises(DeadControllerError):
        interp.eval("(box (lambda (k) 'bad))")


def test_receiver_may_be_tasklet(interp):
    """The receiver is an ordinary computation above the root; it may
    loop and fork like any other."""
    result = interp.eval_to_string(
        """
        (spawn (lambda (c)
                 (c (lambda (k)
                      (pcall list
                             'from
                             (let loop ([i 10]) (if (zero? i) 'receiver (loop (- i 1)))))))))
        """
    )
    assert result == "(from receiver)"


def test_resume_inside_resumed_extent(interp):
    """Resume a process continuation, then capture and resume again from
    inside the resumed process."""
    interp.run(
        """
        (define r1
          (spawn (lambda (c)
                   (let* ([first (c (lambda (k) (list 'p1 k)))]
                          [second (c (lambda (k) (list 'p2 first k)))])
                     (list 'end second)))))
        (define r2 ((cadr r1) 'A))
        """
    )
    assert interp.eval_to_string("(list (car r1) (car r2) (cadr r2) ((caddr r2) 'B))") == (
        "(p1 p2 A (end B))"
    )


def test_capture_composes_across_host_frames(interp):
    """Resume deep inside a call stack: the value flows back through
    every pending frame."""
    interp.run(
        """
        (define k (spawn (lambda (c) (* 3 (c (lambda (k) k))))))
        (define (deep n) (if (= n 0) (k 7) (+ 1 (deep (- n 1)))))
        """
    )
    assert interp.eval("(deep 5)") == 7 * 3 + 5


def test_two_independent_captures_outstanding(interp):
    """Two suspended processes held at once, resumed in the opposite
    order of their creation."""
    interp.run(
        """
        (define (suspended) (spawn (lambda (c) (c (lambda (k) k)))))
        (define k1 (suspended))
        (define k2 (suspended))
        """
    )
    assert interp.eval_to_string(
        "(let* ([second (k2 'later-created)] [first (k1 'earlier-created)]) (list first second))"
    ) == "(earlier-created later-created)"
