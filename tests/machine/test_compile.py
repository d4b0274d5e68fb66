"""The closure compiler (repro.ir.compile) and the compiled engine.

Per-node-kind behavior, dialect rejection, compile-stage statistics,
and the machine-level seams: the ``engine`` knob, the run loop's raw-IR
fallback, and closures carrying compiled body code.
"""

from types import FunctionType

import pytest

from repro import Interpreter, Session
from repro.datum import intern, scheme_repr
from repro.errors import CompileError, UnboundVariableError
from repro.expander import ExpandEnv, expand_program
from repro.ir import CompileStats, Const, Lambda, compile_node, compile_program
from repro.ir import resolve_program
from repro.machine.scheduler import ENGINES, Machine, normalize_engine
from repro.reader import read_all
from tests.engines import eval_raw_ir


def _compiled_interp(**kwargs):
    return Interpreter(engine="compiled", **kwargs)


# -- per-node-kind behavior (differential against uncompiled resolved IR) --

NODE_KIND_PROGRAMS = [
    "42",  # Const
    "'sym",  # Const (quote)
    "(let ([x 5]) x)",  # LocalRef depth 0
    "(let ([x 5]) (let ([y 2]) x))",  # LocalRef depth 1
    "(let ([a 1]) (let ([b 2]) (let ([c 3]) a)))",  # LocalRef depth n
    "(define g 7) g",  # GlobalRef / Define
    "(define h 1) (set! h 9) h",  # GlobalSet
    "(let ([x 1]) (set! x 8) x)",  # LocalSet
    "((lambda (a b) (+ a b)) 3 4)",  # Lambda + App
    "((lambda (a . r) (cons a r)) 1 2 3)",  # rest args
    "(if #t 'yes 'no)",  # If, trivial test
    "(if (< 1 2) 'yes 'no)",  # If, inlined primitive test
    "(if ((lambda () #f)) 'yes 'no)",  # If, non-trivial test
    "(begin 1 2 3)",  # Seq
    "(begin (define q 4) (+ q q))",  # Seq with effects
    "(+ 1 2)",  # fully trivial App (apply_deliver path)
    "(+ 1 ((lambda () 2)))",  # mixed trivial/non-trivial args
    "((lambda () 5))",  # zero-arg App
    "(pcall + 1 2 3)",  # Pcall
    "(call/cc (lambda (k) (+ 1 (k 41))))",  # capture through compiled frames
]


@pytest.mark.parametrize("source", NODE_KIND_PROGRAMS)
def test_compiled_matches_resolved(source):
    # The reference is the same program's resolved IR, never compiled,
    # run through the machine's raw-IR fallback.
    reference = Interpreter(policy="serial", prelude=False)
    resolved = scheme_repr(eval_raw_ir(reference, source, resolve=True)[-1])
    for engine in ENGINES:
        interp = Interpreter(engine=engine, policy="serial", prelude=False)
        assert interp.eval_to_string(source) == resolved, engine


# -- dialect rejection -------------------------------------------------


def test_compile_rejects_unresolved_program():
    # Expanded-but-unresolved IR uses the Var dialect, which only the
    # machine's raw-IR fallback runs.
    nodes = expand_program(read_all("(lambda (x) x)"), ExpandEnv())
    with pytest.raises(CompileError):
        compile_program(nodes)


def test_compile_rejects_unresolved_lambda():
    unresolved = Lambda(params=(intern("x"),), rest=None, body=Const(1))
    assert unresolved.nslots is None
    with pytest.raises(CompileError):
        compile_node(unresolved)


# -- compile statistics ------------------------------------------------


def test_compile_stats_counters():
    interp = _compiled_interp()
    machine = interp.machine
    nodes = expand_program(
        read_all("(define (f x) (if x 0 (+ x 1))) (f 3)"), ExpandEnv()
    )
    nodes = resolve_program(nodes, machine.globals)
    stats = CompileStats()
    compile_program(nodes, stats)
    counters = stats.as_dict()
    assert counters["compile_nodes"] > 0
    assert counters["compile_lambdas"] == 1
    assert counters["compile_apps_inlined"] >= 1  # (+ x 1) is fully trivial
    assert counters["compile_tests_inlined"] >= 1  # x is a trivial test


def test_interpreter_stats_include_compile_counters():
    interp = _compiled_interp()
    interp.eval("(+ 1 2)")
    stats = interp.stats
    assert stats["compile.nodes"] > 0
    assert "compile.apps_inlined" in stats


def test_resolved_engine_stats_omit_compile_counters():
    # Resolved IR handed straight to the machine runs on the raw-IR
    # fallback: the compile counters do not move.
    interp = _compiled_interp()
    before = interp.stats["compile.nodes"]
    assert eval_raw_ir(interp, "(+ 1 2)", resolve=True) == [3]
    assert interp.stats["compile.nodes"] == before
    assert "compile.nodes" not in Interpreter(engine="codegen").stats


# -- the engine seam ---------------------------------------------------


def test_engines_tuple_names_both():
    assert ENGINES == ("compiled", "codegen")


def test_machine_rejects_unknown_engine():
    with pytest.raises(ValueError) as exc:
        Machine(engine="bogus")
    # The error names every engine, so a typo'd selector is self-serving.
    for name in ENGINES:
        assert name in str(exc.value)


@pytest.mark.parametrize("legacy", ["dict", "resolved"])
def test_removed_engines_are_rejected(legacy):
    # The pre-1.5 engine names survive only in the snapshot decoder.
    with pytest.raises(ValueError) as exc:
        normalize_engine(legacy)
    message = str(exc.value)
    assert message.endswith("expected one of compiled, codegen")
    with pytest.raises(ValueError):
        Machine(engine=legacy)


def test_interpreter_engine_defaults():
    # One default at every layer.
    assert Interpreter().engine == "compiled"
    assert Session(prelude=False).engine == "compiled"
    assert Machine().engine == "compiled"
    assert Interpreter(engine="codegen").engine == "codegen"


def test_batched_knob_is_gone():
    with pytest.raises(TypeError, match="batched"):
        Session(batched=False)
    with pytest.raises(TypeError, match="batched"):
        Interpreter(batched=True)
    with pytest.raises(TypeError, match="batched"):
        Machine(batched=False)


def test_closure_body_is_compiled_code():
    interp = _compiled_interp()
    interp.run("(define (f x) (+ x 1))")
    closure = interp.eval("f")
    assert isinstance(closure.body, FunctionType)
    assert interp.eval("(f 41)") == 42


def test_compiled_code_carries_source_node():
    interp = _compiled_interp()
    machine = interp.machine
    nodes = expand_program(read_all("(+ 1 2)"), ExpandEnv())
    nodes = resolve_program(nodes, machine.globals)
    code = compile_node(nodes[0])
    assert code.node is nodes[0]
    # A trivial node's .triv evaluates it without the machine.
    lit = compile_node(resolve_program(expand_program(read_all("7"), ExpandEnv()), machine.globals)[0])
    assert lit.triv is not None
    assert lit.triv(machine.toplevel_env) == 7


def test_compiled_machine_evaluates_raw_nodes():
    # The run loop falls back to the node dispatch table when handed
    # an uncompiled IR node (incremental embedding API).
    interp = _compiled_interp()
    nodes = expand_program(read_all("(+ 20 22)"), ExpandEnv())
    assert interp.machine.eval_node(nodes[0]) == 42


def test_unbound_global_raises_under_compiled():
    interp = _compiled_interp()
    with pytest.raises(UnboundVariableError, match="phantom"):
        interp.eval("phantom")


def test_global_defined_after_compile_is_seen():
    # Compilation interns the cell; the UNBOUND check happens at run
    # time, so defining later (in a separate top-level form) works.
    interp = _compiled_interp()
    interp.run("(define (peek) late)")
    with pytest.raises(UnboundVariableError, match="late"):
        interp.eval("(peek)")
    interp.run("(define late 'now)")
    assert interp.eval_to_string("(peek)") == "now"


def test_step_budget_still_counts_loop_iterations():
    # Fusion is bounded by static nesting: a loop still costs at least
    # one step per iteration, so the step budget keeps firing.
    from repro.errors import StepBudgetExceeded

    interp = _compiled_interp(max_steps=500)
    with pytest.raises(StepBudgetExceeded):
        interp.eval("(let loop ([n 0]) (loop (+ n 1)))")


def test_closures_cross_engines():
    # A closure whose body is a resolved IR tree still applies on a
    # compiled machine: application schedules (EVAL, body) and the run
    # loop falls back to the node dispatch table.
    producer = Interpreter()
    (closure,) = eval_raw_ir(producer, "(lambda (x) (* x x))", resolve=True)
    assert not isinstance(closure.body, FunctionType)
    assert closure.nslots == 1
    consumer = _compiled_interp()
    consumer.machine.globals.define(intern("sq"), closure)
    assert consumer.eval("(sq 9)") == 81
