"""Error paths through process trees on the machine: errors in
branches, processes, receivers and futures; deadlock detection."""

import pytest

from repro import Interpreter
from repro.errors import MachineError, SchemeError, WrongTypeError
from repro.machine.environment import GlobalEnv
from repro.machine.scheduler import Machine


def test_exception_in_pcall_branch_aborts_run(interp):
    with pytest.raises(SchemeError, match="branch exploded"):
        interp.eval('(pcall + 1 (error "branch exploded"))')


def test_exception_in_spawned_process_propagates(interp):
    with pytest.raises(WrongTypeError):
        interp.eval("(spawn (lambda (c) (car '())))")


def test_exception_in_combine_function(interp):
    with pytest.raises(SchemeError, match="division by zero"):
        interp.eval("(pcall (lambda (a) (/ 1 0)) 1)")


def test_exception_in_invoke_receiver(interp):
    with pytest.raises(SchemeError, match="division by zero"):
        interp.eval("(spawn (lambda (c) (c (lambda (k) (/ 1 0)))))")


def test_exception_catchable_across_spawn_boundary(interp):
    """A raise inside a nested process reaches the handler installed
    outside it (the ``exceptions`` library is itself built on spawn)."""
    interp.load_library("exceptions")
    result = interp.eval_to_string(
        """
        (with-handler (lambda (e) (list 'handled e))
                      (lambda (raise) (spawn (lambda (c) (raise 'deep)))))
        """
    )
    assert result == "(handled deep)"


def test_resume_with_foreign_object_rejected(interp):
    with pytest.raises(WrongTypeError, match="non-procedure"):
        interp.eval('("not a subcontinuation" 1)')


def test_deadlock_reports_not_hangs(interp):
    """A future started inside an engine stays in the engine's private
    machine; once the engine is done nothing runs it, and touching its
    placeholder raises instead of waiting forever."""
    interp.run(
        """
        (define orphan
          (engine-run (make-engine (lambda () (future (lambda () (let forever () (forever))))))
                      1000
                      (lambda (placeholder remaining) placeholder)
                      (lambda (engine) 'expired)))
        """
    )
    assert interp.eval("(placeholder? orphan)") is True
    with pytest.raises(MachineError, match="deadlock"):
        interp.eval("(touch orphan)")


def test_run_without_start_state_reset(interp):
    with pytest.raises(SchemeError):
        interp.eval('(error "x")')
    assert interp.eval("'ok").name == "ok"


def test_step_n_before_start_is_deadlock():
    with pytest.raises(MachineError, match="deadlock"):
        Machine(GlobalEnv()).step_n(10)


def test_future_error_poisons_placeholder(interp):
    """A failing future fails the evaluation that touches it."""
    with pytest.raises(SchemeError, match="future failed"):
        interp.eval('(touch (future (lambda () (error "future failed"))))')


def test_future_error_poisons_late_touchers_too(interp):
    """The error surfaces in whichever form is running when the future
    fails; the placeholder never resolves, so a later touch fails too
    (as a detected deadlock) instead of returning a value or hanging."""
    interp.run('(define ph (future (lambda () (error "late"))))')
    with pytest.raises(SchemeError, match="late"):
        interp.eval("(let loop ([i 0]) (if (= i 20) i (loop (+ i 1))))")
    with pytest.raises(MachineError, match="deadlock"):
        interp.eval("(touch ph)")


def test_error_in_branch_abandons_siblings():
    interp = Interpreter(quantum=1)
    interp.run("(define progress 0)")
    with pytest.raises(SchemeError, match="die"):
        interp.eval(
            """
            (pcall list
                   (begin (+ 1 2) (error "die"))
                   (let loop ([i 0])
                     (if (= i 100000) 'done (begin (set! progress i) (loop (+ i 1))))))
            """
        )
    assert interp.eval("progress") < 100_000  # the sibling was dropped, not drained
