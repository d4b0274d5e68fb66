"""The codegen engine (repro.ir.codegen) — engine #4.

Four layers of coverage:

* per-construct differential against the compiled engine (same values
  on every node kind, rest args, closures, deep recursion, delegation
  through capture / spawn / pcall / futures);
* the code cache — ir-hash keyed hits and misses, the source
  verification behind every hit, LRU eviction at capacity,
  ``clear_cache``;
* the emitted artifact itself — thunk contract (``.node`` / ``.triv``),
  emitted-source smoke, dialect rejection, the self-call inline guard
  falling through on rebinding;
* fallback paths — non-primitive operators in inline position, arity
  errors, unbound globals, all with the compiled engine's error timing.
"""

import pytest

from repro import Interpreter
from repro.datum import intern
from repro.errors import ArityError, CompileError, UnboundVariableError
from repro.expander import ExpandEnv, expand_program
from repro.host.session import Session
from repro.ir import resolve_program, stable_hash
from repro.ir.codegen import (
    _CACHE_CAPACITY,
    CODEGEN_METRICS,
    cache_info,
    clear_cache,
    codegen_node,
    codegen_program,
    emitted_source,
    is_cached,
)
from repro.reader import read_all


def _codegen(**kwargs):
    return Interpreter(engine="codegen", **kwargs)


def _resolved_nodes(source, globals_env):
    nodes = expand_program(read_all(source), ExpandEnv())
    return resolve_program(nodes, globals_env)


# -- per-construct differential against the compiled engine ------------

DIFFERENTIAL_PROGRAMS = [
    "42",
    "'sym",
    '"text"',
    "(let ([x 5]) x)",
    "(let ([x 5]) (let ([y 2]) (+ x y)))",
    "(let ([a 1]) (let ([b 2]) (let ([c 3]) (+ a (+ b c)))))",
    "(define g 7) g",
    "(define h 1) (set! h 9) h",
    "(let ([x 1]) (set! x 8) x)",
    "(letrec ([f (lambda (n) (if (= n 0) 1 (* n (f (- n 1)))))]) (f 6))",
    "((lambda (a b) (+ a b)) 3 4)",
    "((lambda (a . r) (cons a r)) 1 2 3)",
    "((lambda r r) 1 2 3)",
    "(if #t 'yes 'no)",
    "(if (< 1 2) 'yes 'no)",
    "(if ((lambda () #f)) 'yes 'no)",
    "(begin 1 2 3)",
    "(begin (define q 4) (+ q q))",
    "(+ 1 2)",
    "(+ 1 ((lambda () 2)))",
    "((lambda () 5))",
    "(pcall + 1 2 3)",
    "(pcall + (* 3 4) (* 5 6))",
    "(call/cc (lambda (k) (+ 1 (k 41))))",
    "(+ 1 (spawn (lambda (c) (+ 2 (c (lambda (k) 10))))))",
    "(let ([p (future (lambda () 42))]) (+ 1 (touch p)))",
    "(define (count n acc) (if (= n 0) acc (count (- n 1) (+ acc 1)))) (count 500 0)",
    "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)",
    """
    (define (even? n) (if (= n 0) #t (odd? (- n 1))))
    (define (odd? n) (if (= n 0) #f (even? (- n 1))))
    (list (even? 100) (odd? 77))
    """,
    "(map (lambda (x) (* x x)) '(1 2 3 4))",
    "(apply + 1 '(2 3 4))",
]


@pytest.mark.parametrize("source", DIFFERENTIAL_PROGRAMS)
def test_codegen_matches_compiled(source):
    codegen = _codegen(policy="serial").eval_to_string(source)
    compiled = Interpreter(engine="compiled", policy="serial").eval_to_string(source)
    assert codegen == compiled


def test_deep_tail_recursion_is_flat():
    interp = _codegen()
    interp.run("(define (loop n) (if (= n 0) 'done (loop (- n 1))))")
    assert interp.eval_to_string("(loop 100000)") == "done"


def test_closures_cross_engines():
    # A closure created by the codegen engine must run under the
    # compiled engine's machine, and vice versa — the emitted body obeys
    # the code-thunk contract both run loops understand.
    maker = _codegen()
    maker.run("(define (adder n) (lambda (x) (+ x n)))")
    add3 = maker.eval("(adder 3)")
    user = Interpreter(engine="compiled")
    user.globals.define(intern("add3"), add3)
    assert user.eval("(add3 39)") == 42

    maker2 = Interpreter(engine="compiled")
    maker2.run("(define (adder n) (lambda (x) (+ x n)))")
    add5 = maker2.eval("(adder 5)")
    user2 = _codegen()
    user2.globals.define(intern("add5"), add5)
    assert user2.eval("(add5 37)") == 42


def test_set_through_capture_multi_shot():
    # Mutation must stay visible across a reinstated top-level capture;
    # both engines agree form for form (the reinstatement re-runs the
    # later forms, so the interesting value is the final cell state).
    source = """
    (define cell 0)
    (define k2 (call/cc (lambda (k) k)))
    (set! cell (+ cell 1))
    (if (< cell 2) (k2 k2) cell)
    """
    codegen = _codegen()
    codegen.eval(source)
    compiled = Interpreter(engine="compiled")
    compiled.eval(source)
    assert codegen.eval("cell") == compiled.eval("cell")


# -- dialect rejection -------------------------------------------------


def test_codegen_rejects_unresolved_program():
    nodes = expand_program(read_all("(lambda (x) x)"), ExpandEnv())
    with pytest.raises(CompileError):
        codegen_program(nodes)


# -- the code cache ----------------------------------------------------


def test_cache_hit_on_identical_form():
    clear_cache()
    sess = Session(engine="codegen", prelude=False)
    stats = sess.codegen_stats
    sess.run("(+ 1 2)")
    misses = stats.misses
    assert misses >= 1
    assert stats.hits == 0
    sess.run("(+ 1 2)")
    assert stats.misses == misses  # same digest, source verified
    assert stats.hits == 1


def test_cache_is_shared_across_sessions():
    clear_cache()
    first = Session(engine="codegen", prelude=False)
    first.run("(* 6 7)")
    second = Session(engine="codegen", prelude=False)
    second.run("(* 6 7)")
    assert second.codegen_stats.hits == 1
    assert second.codegen_stats.misses == 0


def test_is_cached_and_cache_info():
    clear_cache()
    sess = Session(engine="codegen", prelude=False)
    nodes = _resolved_nodes("(+ 40 2)", sess.globals)
    assert not is_cached(nodes[0])
    codegen_node(nodes[0])
    assert is_cached(nodes[0])
    info = cache_info()
    assert info["capacity"] == _CACHE_CAPACITY
    assert 1 <= info["size"] <= _CACHE_CAPACITY


def test_cache_lru_eviction_at_capacity():
    clear_cache()
    sess = Session(engine="codegen", prelude=False)
    stats = CODEGEN_METRICS()
    first = _resolved_nodes("(+ 0 1)", sess.globals)[0]
    codegen_node(first, stats)
    digest = stable_hash(first)
    for i in range(_CACHE_CAPACITY):
        node = _resolved_nodes(f"(+ {i} 2)", sess.globals)[0]
        codegen_node(node, stats)
    assert stats.evictions >= 1
    assert len(_CODE_CACHE_snapshot()) <= _CACHE_CAPACITY
    assert digest not in _CODE_CACHE_snapshot()  # oldest went first
    clear_cache()
    assert cache_info()["size"] == 0


def _CODE_CACHE_snapshot():
    from repro.ir.codegen import _CODE_CACHE

    return dict(_CODE_CACHE)


def test_source_mismatch_recompiles():
    # A digest hit reuses the code object only when the regenerated
    # source matches the cached one; otherwise it recompiles, counts a
    # miss and replaces the entry.
    from repro.ir import codegen

    clear_cache()
    sess = Session(engine="codegen", prelude=False)
    (node,) = _resolved_nodes("(let ([f (lambda (x) (+ x 1))]) (f 41))", sess.globals)
    stats = CODEGEN_METRICS()
    codegen_node(node, stats)
    digest = stable_hash(node)
    source, code = codegen._CODE_CACHE[digest]
    codegen._CODE_CACHE[digest] = ("# some other source", code)
    codegen_node(node, stats)
    assert (stats.hits, stats.misses) == (0, 2)
    assert codegen._CODE_CACHE[digest][0] == source
    codegen_node(node, stats)
    assert stats.hits == 1


# -- the emitted artifact ----------------------------------------------


def test_thunk_contract_node_and_triv():
    sess = Session(engine="codegen", prelude=False)
    nodes = _resolved_nodes("(+ 1 2)", sess.globals)
    thunk = codegen_node(nodes[0])
    assert thunk.node is nodes[0]
    assert thunk.triv is None  # an App is not trivial
    const = _resolved_nodes("42", sess.globals)
    cthunk = codegen_node(const[0])
    assert cthunk.triv is not None
    assert cthunk.triv(None) == 42


def test_emitted_source_smoke():
    sess = Session(engine="codegen", prelude=False)
    nodes = _resolved_nodes(
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
        sess.globals,
    )
    source = emitted_source(nodes[0])
    assert "def _f1(machine, task" in source
    assert "_env = task.env" in source
    assert "_SlotRib" in source
    compile(source, "<test>", "exec")  # must be valid Python


def test_emitted_stats_counters():
    sess = Session(engine="codegen", prelude=False)
    sess.run("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
    stats = sess.codegen_stats
    assert stats.nodes > 0
    assert stats.lambdas >= 1
    assert stats.apps_inlined >= 1
    assert stats.tests_inlined >= 1
    assert stats.self_inlines >= 1
    assert stats.emit_us >= 0
    merged = sess.stats
    assert merged["codegen.misses"] >= 1


def test_self_inline_guard_falls_through_on_rebinding():
    interp = _codegen()
    interp.run("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
    assert interp.eval("(fib 10)") == 55
    # Rebinding the global must be seen by every already-emitted call
    # site — the .body identity guard fails and dispatch goes generic.
    interp.run("(define (fib n) 99)")
    assert interp.eval("(fib 10)") == 99


def test_self_inline_sees_cross_engine_closure():
    # A same-named closure from another engine must not satisfy the
    # identity guard (different body function object).
    compiled = Interpreter(engine="compiled")
    compiled.run("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
    foreign = compiled.eval("fib")
    interp = _codegen()
    interp.run("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
    interp.globals.define(intern("fib"), foreign)
    assert interp.eval("(fib 10)") == 55


# -- fallback paths ----------------------------------------------------


def test_non_primitive_operator_in_inline_position():
    # (f 1 2) where f is a closure: the primitive guard's fallback
    # materialises the compiled engine's frame plan and delegates.
    interp = _codegen()
    interp.run("(define (f a b) (list a b))")
    assert interp.eval_to_string("(if (f 1 2) 'yes 'no)") == "yes"
    assert interp.eval_to_string("(+ 1 (length (f 1 2)))") == "3"


def test_arity_error_timing_matches_compiled():
    for engine in ("compiled", "codegen"):
        interp = Interpreter(engine=engine)
        interp.run("(define (g x) x)")
        with pytest.raises(ArityError):
            interp.eval("(g 1 2)")


def test_unbound_global_raises():
    interp = _codegen(prelude=False)
    with pytest.raises(UnboundVariableError):
        interp.eval("nope")
    with pytest.raises(UnboundVariableError):
        interp.eval("(nope 1)")
    with pytest.raises(UnboundVariableError):
        interp.eval("(set! nope 1)")


def test_global_defined_after_emit_is_seen():
    # Emission interns the cell; the UNBOUND check happens at run time,
    # so defining later (in a separate top-level form) works.
    interp = _codegen()
    interp.run("(define (peek) late)")
    with pytest.raises(UnboundVariableError, match="late"):
        interp.eval("(peek)")
    interp.run("(define late 'now)")
    assert interp.eval_to_string("(peek)") == "now"


def test_continuation_operator_delegates():
    # call/cc's k flows into an inline apply site: classes other than
    # Closure/Primitive must spill and delegate.
    interp = _codegen()
    assert interp.eval("(+ 1 (call/cc (lambda (k) (k 41))))") == 42
