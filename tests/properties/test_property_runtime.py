"""Property tests for process trees, process continuations and engines
on the machine, across scheduler quanta."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Interpreter
from repro.datum import to_pylist

SPIN = "(define (spin n v) (if (zero? n) v (spin (- n 1) v)))"


@given(
    st.lists(st.integers(-100, 100), min_size=1, max_size=8),
    st.integers(1, 16),
)
@settings(max_examples=40, deadline=None)
def test_parallel_map_matches_builtin_map(items, quantum):
    interp = Interpreter(quantum=quantum)
    interp.load_library("parallel")
    values = interp.eval(f"(par-map (lambda (x) (* x x)) '({' '.join(map(str, items))}))")
    assert to_pylist(values) == [x * x for x in items]


@given(st.integers(0, 6), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_nested_pcall_tree_sums_correctly(depth, quantum):
    """A perfect binary pcall tree of the given depth sums its leaves
    correctly under any quantum."""
    interp = Interpreter(quantum=quantum)
    interp.run("(define (tree-sum d) (if (= d 0) 1 (pcall + (tree-sum (- d 1)) (tree-sum (- d 1)))))")
    assert interp.eval(f"(tree-sum {depth})") == 2**depth


@given(st.integers(-1000, 1000))
@settings(max_examples=30, deadline=None)
def test_suspend_resume_identity(value):
    """Spawning, suspending at a point, and resuming with v makes v the
    value of the suspension point — for any v."""
    interp = Interpreter()
    assert interp.eval(f"((spawn (lambda (c) (c (lambda (k) k)))) {value})") == value


@given(st.lists(st.integers(0, 30), min_size=2, max_size=6), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_pcall_result_order_independent_of_branch_cost(costs, quantum):
    """Branches with arbitrary work amounts deliver positionally."""
    interp = Interpreter(quantum=quantum)
    interp.run(SPIN)
    branches = " ".join(f"(spin {cost} {index})" for index, cost in enumerate(costs))
    assert to_pylist(interp.eval(f"(pcall list {branches})")) == list(range(len(costs)))


@given(st.integers(1, 200), st.integers(1, 50))
@settings(max_examples=30, deadline=None)
def test_engine_slicing_never_changes_answer(work, fuel):
    interp = Interpreter()
    interp.run(
        f"""
        (define (drive eng)
          (engine-run eng {fuel} (lambda (value remaining) value) drive))
        """
    )
    result = interp.eval(
        f"(drive (make-engine (lambda () (let loop ([i 0] [acc 0]) "
        f"(if (= i {work}) acc (loop (+ i 1) (+ acc i)))))))"
    )
    assert result == sum(range(work))
