"""Section 4's validity rules, including the paper's three examples
verbatim."""

import pytest

from repro import Interpreter
from repro.errors import DeadControllerError, InvalidControllerError
from repro.lib import paper_examples
from repro.machine.scheduler import ENGINES
from tests.engines import eval_raw_ir


def test_paper_invalid_after_return(interp):
    """((spawn (lambda (c) c)) (lambda (k) k)) — the root no longer
    exists when the controller is applied."""
    with pytest.raises(DeadControllerError):
        interp.eval(paper_examples.INVALID_AFTER_RETURN)


def test_paper_invalid_after_use(interp):
    """The second application is invalid: the first application removed
    the root."""
    with pytest.raises(DeadControllerError):
        interp.eval(paper_examples.INVALID_AFTER_USE)


def test_paper_valid_after_reinstatement_returns_identity(interp):
    """The third Section 4 example: 'The result of this expression is a
    procedure that returns its argument.'"""
    source = paper_examples.VALID_AFTER_REINSTATEMENT.strip()
    assert interp.eval(f"({source} 'witness)").name == "witness"
    assert interp.eval(f"({source} 42)") == 42


def test_controller_invalid_after_normal_return(interp):
    interp.run("(define c2 (spawn (lambda (c) c)))")
    with pytest.raises(DeadControllerError):
        interp.eval("(c2 (lambda (k) k))")


def test_controller_invalid_from_sibling_branch(interp):
    """A controller whose root lives in one pcall branch is invalid
    when applied from a sibling branch (the root is not in the
    *continuation of the application*)."""
    interp.run("(define cell (cons #f #f))")
    with pytest.raises(DeadControllerError):
        interp.eval(
            """
            (pcall (lambda (a b) (list a b))
                   ;; branch 1: spawn, leak the controller, then spin
                   ;; until branch 2 uses it.
                   (spawn (lambda (c)
                            (set-car! cell c)
                            (let wait ([i 0])
                              (if (cdr cell) 'done (wait (+ i 1))))))
                   ;; branch 2: wait for the controller, then misuse it.
                   (let wait ()
                     (let ([c (car cell)])
                       (if c
                           (begin (set-cdr! cell #t) (c (lambda (k) k)))
                           (wait)))))
            """
        )


def test_controller_valid_again_after_reinstatement(interp):
    interp.run(
        """
        (define k1 (spawn (lambda (c) (+ 1 (c (lambda (k) k))))))
        """
    )
    # First reinstatement re-validates the controller inside... but the
    # captured body has no further controller use; meta-test: reuse of
    # k1 is fine (multi-shot), unlike the controller.
    assert interp.eval("(k1 5)") == 6
    assert interp.eval("(k1 10)") == 11


def test_dead_controller_is_invalid_controller(interp):
    assert issubclass(DeadControllerError, InvalidControllerError)


def test_controller_valid_while_process_active_deep_inside(interp):
    assert (
        interp.eval(
            """
            (spawn (lambda (c)
                     (define (deep n)
                       (if (= n 0) (c (lambda (k) 'escaped)) (deep (- n 1))))
                     (deep 100)))
            """
        ).name
        == "escaped"
    )


def test_error_message_names_the_controller(interp):
    with pytest.raises(DeadControllerError, match="root is not in the"):
        interp.eval("((spawn (lambda (c) c)) (lambda (k) k))")


# -- both environment representations ------------------------------------
#
# The validity rules are a property of the process tree, not of how
# variables are looked up; they must hold identically for slot ribs
# (both engines) and the dict-chain ribs of the unresolved dialect.
# Each test runs its program under both engines and, as an independent
# reference, as plain IR (unresolved, or resolved but never compiled)
# through the machine's raw-IR fallback.


def _outcome(run):
    try:
        value = run()
    except DeadControllerError as exc:
        return type(exc)
    return repr(value)


def _outcomes(source, representation):
    results = {
        engine: _outcome(lambda: Interpreter(engine=engine).eval(source))
        for engine in ENGINES
    }
    reference = Interpreter()
    results[representation] = _outcome(
        lambda: eval_raw_ir(
            reference, source, resolve=representation == "resolved"
        )[-1]
    )
    return set(results.values())


@pytest.fixture(params=["resolved", "dict"], ids=["resolved", "dict"])
def representation(request):
    return request.param


def test_invalid_after_return_both_representations(representation):
    assert _outcomes(paper_examples.INVALID_AFTER_RETURN, representation) == {
        DeadControllerError
    }


def test_invalid_after_use_both_representations(representation):
    assert _outcomes(paper_examples.INVALID_AFTER_USE, representation) == {
        DeadControllerError
    }


def test_valid_after_reinstatement_both_representations(representation):
    source = paper_examples.VALID_AFTER_REINSTATEMENT.strip()
    assert _outcomes(f"({source} 42)", representation) == {"42"}


def test_spawn_escape_both_representations(representation):
    source = "(spawn (lambda (c) (+ 1 (c (lambda (k) 'out)))))"
    assert _outcomes(source, representation) == {repr(Interpreter().eval("'out"))}
