"""The error hierarchy: structure and payloads."""

import pytest

from repro import errors


def test_single_root():
    leaves = [
        errors.ReaderError,
        errors.ExpandError,
        errors.MachineError,
        errors.SchemeError,
        errors.WrongTypeError,
        errors.ArityError,
        errors.UnboundVariableError,
        errors.ControlError,
        errors.InvalidControllerError,
        errors.DeadControllerError,
        errors.PromptMissingError,
        errors.SemanticsError,
        errors.StuckTermError,
        errors.StepBudgetExceeded,
    ]
    for cls in leaves:
        assert issubclass(cls, errors.ReproError), cls


def test_control_hierarchy():
    assert issubclass(errors.InvalidControllerError, errors.ControlError)
    assert issubclass(errors.DeadControllerError, errors.InvalidControllerError)
    assert issubclass(errors.ControlError, errors.MachineError)


def test_reader_error_location():
    err = errors.ReaderError("bad token", line=3, column=7)
    assert err.line == 3 and err.column == 7
    assert "line 3" in str(err) and "column 7" in str(err)


def test_reader_error_without_location():
    err = errors.ReaderError("oops")
    assert err.line is None
    assert str(err) == "oops"


def test_scheme_error_irritants():
    err = errors.SchemeError("bad", irritants=(1, 2))
    assert err.irritants == (1, 2)


def test_unbound_variable_name():
    err = errors.UnboundVariableError("ghost")
    assert err.name == "ghost"
    assert "ghost" in str(err)


def test_stuck_term_carries_term():
    sentinel = object()
    err = errors.StuckTermError("stuck", term=sentinel)
    assert err.term is sentinel


def test_step_budget_carries_count():
    err = errors.StepBudgetExceeded(1234)
    assert err.steps == 1234
    assert "1234" in str(err)


def test_one_except_catches_everything():
    """A host application can catch ReproError and be safe."""
    from repro import Interpreter

    interp = Interpreter(max_steps=500)
    bad_inputs = [
        "(",  # reader
        "(lambda)",  # expander
        "(car 1)",  # type
        "((lambda (x) x))",  # arity
        "nope",  # unbound
        '(error "user")',  # scheme error
        "((spawn (lambda (c) c)) (lambda (k) k))",  # dead controller
        "(F (lambda (k) k))",  # missing prompt
        "(let loop () (loop))",  # budget
    ]
    for source in bad_inputs:
        with pytest.raises(errors.ReproError):
            interp.eval(source)
