"""The resolver pass: lexical addresses, global cells, and both
engines' behaviour against the unresolved dict-chain dialect."""

import pytest

from repro import Interpreter
from repro.datum import intern, to_pylist
from repro.errors import UnboundVariableError
from repro.expander import ExpandEnv, expand_program
from repro.ir import (
    App,
    DefineTop,
    GlobalRef,
    GlobalSet,
    Lambda,
    LocalRef,
    LocalSet,
    resolve_program,
)
from repro.machine.environment import GlobalEnv
from repro.machine.scheduler import ENGINES
from repro.reader import read_all
from tests.engines import eval_raw_ir


def resolve_source(source, genv=None):
    """Read + expand + resolve; returns the list of top-level nodes."""
    genv = genv if genv is not None else GlobalEnv()
    nodes = expand_program(read_all(source), ExpandEnv())
    return resolve_program(nodes, genv)


# -- IR-level address assertions -----------------------------------------


def test_param_resolves_to_depth0():
    (lam,) = resolve_source("(lambda (x y) y)")
    assert isinstance(lam, Lambda)
    assert lam.nslots == 2
    assert lam.body == LocalRef(0, 1, intern("y"))


def test_nested_lambda_outer_param_depth1():
    (lam,) = resolve_source("(lambda (x) (lambda (y) x))")
    inner = lam.body
    assert inner.body == LocalRef(1, 0, intern("x"))


def test_shadowing_resolves_to_innermost():
    (lam,) = resolve_source("(lambda (x) (lambda (x) x))")
    assert lam.body.body == LocalRef(0, 0, intern("x"))


def test_rest_arg_gets_last_slot():
    (lam,) = resolve_source("(lambda (a b . rest) rest)")
    assert lam.nslots == 3
    assert lam.body == LocalRef(0, 2, intern("rest"))


def test_thunk_contributes_no_depth():
    # The thunk allocates no rib, so x is still one rib away — depth 0
    # from inside the thunk's body.
    (lam,) = resolve_source("(lambda (x) (lambda () x))")
    thunk = lam.body
    assert thunk.nslots == 0
    assert thunk.body == LocalRef(0, 0, intern("x"))


def test_free_name_becomes_global_ref():
    genv = GlobalEnv()
    (node,) = resolve_source("(f 1)", genv)
    assert isinstance(node, App)
    assert isinstance(node.fn, GlobalRef)
    assert node.fn.cell is genv.cell(intern("f"))


def test_set_on_local_and_global():
    (lam,) = resolve_source("(lambda (x) (set! x 1))")
    assert isinstance(lam.body, LocalSet)
    assert (lam.body.depth, lam.body.index) == (0, 0)
    (lam,) = resolve_source("(lambda () (set! g 1))")
    assert isinstance(lam.body, GlobalSet)


def test_forward_reference_shares_the_define_cell():
    # A reference compiled before its define must read the same cell
    # the later define writes.
    genv = GlobalEnv()
    before, define = resolve_source("(lambda () later)  (define later 7)", genv)
    assert isinstance(define, DefineTop)
    assert before.body.cell is genv.cell(intern("later"))


# -- behaviour: both engines vs the unresolved dict-chain dialect ----------

EQUIV_PROGRAMS = [
    "(let ([x 1] [y 2]) (+ x y))",
    "((lambda (a . rest) (cons a rest)) 1 2 3)",
    # letrec: mutual recursion through set!-initialised slots.
    """
    (letrec ([even? (lambda (n) (if (= n 0) #t (odd? (- n 1))))]
             [odd?  (lambda (n) (if (= n 0) #f (even? (- n 1))))])
      (even? 101))
    """,
    # named let shadowing an outer binding of the same name.
    """
    (let ([loop 'outer])
      (let loop ([i 0]) (if (= i 3) 'inner (loop (+ i 1)))))
    """,
    # shadowing across letrec.
    "(let ([x 1]) (letrec ([x (lambda () 5)]) (x)))",
    "(define counter 0) (define (bump) (set! counter (+ counter 1)) counter) (bump) (bump)",
    "(call/cc (lambda (k) (+ 1 (k 41))))",
    "(pcall list 'a 'b 'c)",
]


@pytest.mark.parametrize("source", EQUIV_PROGRAMS)
def test_resolved_and_dict_agree(source):
    # The reference skips the resolver: the expander's IR over
    # dict-chain ribs, run through the machine's raw-IR fallback.
    baseline = eval_raw_ir(Interpreter(policy="serial"), source)[-1]
    for engine in ENGINES:
        resolved = Interpreter(policy="serial", engine=engine).eval(source)
        assert type(resolved) is type(baseline), engine
        assert repr(resolved) == repr(baseline), engine


def test_set_global_defined_after_closure_creation(interp):
    interp.run("(define (poke) (set! target (+ target 1)) target)")
    interp.run("(define target 10)")
    assert interp.eval("(poke)") == 11
    assert interp.eval("target") == 11


def test_global_ref_before_define_raises_until_defined(interp):
    interp.run("(define (peek) phantom)")
    with pytest.raises(UnboundVariableError, match="phantom"):
        interp.eval("(peek)")
    interp.run("(define phantom 'now)")
    assert interp.eval("(peek)").name == "now"


def test_set_unbound_global_raises(interp):
    with pytest.raises(UnboundVariableError, match="nothing"):
        interp.eval("(set! nothing 1)")


def test_pcall_branches_share_captured_rib(interp):
    # Both branches close over the same let rib; mutation through one
    # closure is visible to the other (ribs are shared by reference).
    result = interp.eval(
        """
        (let ([box 0])
          (pcall list
                 (begin (set! box (+ box 1)) box)
                 (begin (set! box (+ box 1)) box)))
        """
    )
    assert sorted(to_pylist(result)) == [1, 2]


def test_closure_captures_rib_not_snapshot(interp):
    interp.run(
        """
        (define (make-counter)
          (let ([n 0])
            (lambda () (set! n (+ n 1)) n)))
        (define c (make-counter))
        """
    )
    assert [interp.eval("(c)") for _ in range(3)] == [1, 2, 3]


def test_resolver_stats_exposed(interp):
    interp.eval("(let ([x 1]) (+ x x))")
    stats = interp.stats
    assert stats["resolver.locals"] >= 2
    assert stats["resolver.globals"] >= 1  # the + reference
    assert stats["resolver.lambdas"] >= 1
    assert "resolver.cells_interned" in stats


def test_dict_engine_interp_has_no_resolver_stats():
    # The dict-chain dialect runs without the resolver, so evaluating it
    # leaves the resolver counters where they were.
    interp = Interpreter()
    before = {k: v for k, v in interp.stats.items() if k.startswith("resolver.")}
    assert eval_raw_ir(interp, "(let ([x 1]) (+ x 2))") == [3]
    after = {k: v for k, v in interp.stats.items() if k.startswith("resolver.")}
    assert after == before
