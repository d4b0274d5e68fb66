"""The Interpreter façade: canonical constructor surface, the
``resolve=`` removal, per-call budgets, and the api.py doctests."""

from __future__ import annotations

import doctest
import warnings

import pytest

import repro.api
from repro import Engine, Interpreter, SchedulerPolicy
from repro.errors import DeadlineExceeded, StepBudgetExceeded
from repro.host import Session

LOOP = "(define (loop n) (loop (+ n 1)))"


# -- constructor surface --------------------------------------------------


def test_engine_accepts_enum_and_string():
    assert Interpreter(engine=Engine.CODEGEN, prelude=False).engine == "codegen"
    assert Interpreter(engine="codegen", prelude=False).engine == "codegen"
    assert Interpreter(engine=Engine.COMPILED, prelude=False).engine == "compiled"


def test_policy_accepts_enum_and_string():
    a = Interpreter(policy=SchedulerPolicy.SERIAL, prelude=False)
    b = Interpreter(policy="serial", prelude=False)
    assert a.machine.policy is SchedulerPolicy.SERIAL
    assert b.machine.policy is SchedulerPolicy.SERIAL


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        Interpreter(engine="jit", prelude=False)


def test_default_engine_unchanged():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the default path must not warn
        assert Interpreter(prelude=False).engine == "compiled"


def test_facade_is_a_session():
    interp = Interpreter(prelude=False)
    assert isinstance(interp.session, Session)
    assert interp.machine is interp.session.machine
    assert interp.globals is interp.session.globals


# -- the resolve= removal (deprecated 1.1, removed 1.4) -------------------


def test_resolve_kwarg_removed():
    # The sentinel path is gone: resolve= is an unknown keyword now,
    # not a warning.
    with pytest.raises(TypeError, match="resolve"):
        Interpreter(resolve=False, prelude=False)
    with pytest.raises(TypeError, match="resolve"):
        Interpreter(resolve=True, prelude=False)


# -- per-call budgets -----------------------------------------------------


def test_eval_max_steps_enforced_exactly():
    interp = Interpreter()
    interp.definitions(LOOP)
    with pytest.raises(StepBudgetExceeded) as info:
        interp.eval("(loop 0)", max_steps=750)
    assert info.value.steps == 750
    # The interpreter is not poisoned by the miss:
    assert interp.eval("(+ 40 2)") == 42


def test_eval_deadline_enforced():
    interp = Interpreter()
    interp.definitions(LOOP)
    with pytest.raises(DeadlineExceeded):
        interp.eval("(loop 0)", deadline=0.05)
    assert interp.eval("(+ 40 2)") == 42


def test_per_call_budget_tightens_never_loosens():
    interp = Interpreter(max_steps=100, prelude=False)
    interp.definitions(LOOP)
    # Asking for more than the lifetime budget still stops at the
    # lifetime bound.
    with pytest.raises(StepBudgetExceeded):
        interp.eval("(loop 0)", max_steps=10_000)
    assert interp.machine.steps_total <= 100


def test_lifetime_budget_unchanged():
    interp = Interpreter(max_steps=1000)
    interp.definitions(LOOP)
    with pytest.raises(StepBudgetExceeded):
        interp.eval("(loop 0)")


def test_run_accepts_budgets_too():
    interp = Interpreter(prelude=False)
    assert interp.run("(+ 1 1) (+ 2 2)", max_steps=10_000) == [2, 4]


def test_submit_returns_handle():
    interp = Interpreter(prelude=False)
    handle = interp.submit("(* 6 7)")
    assert not handle.done()
    assert handle.result() == 42


# -- stats compatibility --------------------------------------------------


def test_stats_flat_aliases_gone():
    # 1.4.0: the namespaced keys are the only spelling; the flat
    # aliases that shadowed them since 1.1 are removed.
    interp = Interpreter(engine="compiled", profile=True)
    interp.eval("(+ 1 2)")
    stats = interp.stats
    for flat, namespaced in [
        ("resolver_locals", "resolver.locals"),
        ("compile_nodes", "compile.nodes"),
        ("vm_quanta", "vm.quanta"),
    ]:
        assert namespaced in stats
        assert flat not in stats


# -- doctests -------------------------------------------------------------


def test_api_doctests():
    result = doctest.testmod(repro.api)
    assert result.attempted > 0
    assert result.failed == 0
