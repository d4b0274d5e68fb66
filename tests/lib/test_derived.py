"""The derived Scheme libraries (exceptions, generators, coroutines,
parallel combinators, amb)."""

import pytest

from repro import Interpreter

#: Same fringe over two coroutine tree walkers: the leaves are compared
#: one pair at a time, so the walk stops at the first mismatch.
SAME_FRINGE = r"""
(define (fringe tree)
  (make-coroutine
    (lambda (yield)
      (let walk ([t tree])
        (cond [(pair? t) (walk (car t)) (walk (cdr t))]
              [(not (null? t)) (yield t)])))))

(define (same-fringe? t1 t2)
  (let ([a (fringe t1)] [b (fringe t2)])
    (let loop ()
      (let* ([ra (resume a)] [rb (resume b)])
        (cond [(or (coroutine-done? ra) (coroutine-done? rb))
               (and (coroutine-done? ra) (coroutine-done? rb))]
              [(equal? (coroutine-value ra) (coroutine-value rb)) (loop)]
              [else #f])))))
"""


@pytest.fixture
def lib_interp():
    interp = Interpreter()
    for lib in ("exceptions", "generators", "coroutines", "parallel", "amb"):
        interp.load_library(lib)
    return interp


class TestExceptions:
    def test_normal_path(self, lib_interp):
        assert (
            lib_interp.eval("(with-handler (lambda (e) 'no) (lambda (raise) 42))")
            == 42
        )

    def test_raise(self, lib_interp):
        assert (
            lib_interp.eval_to_string(
                "(with-handler (lambda (e) (list 'got e)) "
                "(lambda (raise) (* 2 (raise 'bad))))"
            )
            == "(got bad)"
        )

    def test_guard_else(self, lib_interp):
        assert (
            lib_interp.eval(
                "(guard-else (lambda (raise) (raise 9)) (lambda (e) (+ e 1)))"
            )
            == 10
        )

    def test_raise_from_pcall_branch(self, lib_interp):
        assert (
            lib_interp.eval(
                "(with-handler (lambda (e) e) "
                "(lambda (raise) (pcall + 1 (raise 'boom))))"
            ).name
            == "boom"
        )


class TestGenerators:
    def test_sequence(self, lib_interp):
        lib_interp.run(
            "(define g (make-generator (lambda (emit) (emit 1) (emit 2))))"
        )
        assert lib_interp.eval("(g)") == 1
        assert lib_interp.eval("(g)") == 2
        assert lib_interp.eval("(g)").name == "generator-done"

    def test_done_is_sticky(self, lib_interp):
        lib_interp.run("(define g (make-generator (lambda (emit) (emit 1))))")
        lib_interp.eval("(g)")
        assert lib_interp.eval("(g)").name == "generator-done"
        assert lib_interp.eval("(g)").name == "generator-done"

    def test_generator_to_list(self, lib_interp):
        assert (
            lib_interp.eval_to_string(
                "(generator->list (make-generator "
                "(lambda (emit) (for-each emit '(a b c)))))"
            )
            == "(a b c)"
        )

    def test_tree_generator_inorder(self, lib_interp):
        assert (
            lib_interp.eval_to_string(
                "(generator->list (tree-generator (list->tree '(4 2 6 1 3 5))))"
            )
            == "(1 2 3 4 5 6)"
        )

    def test_two_generators_independent(self, lib_interp):
        lib_interp.run(
            """
            (define (mk) (make-generator (lambda (emit) (emit 'x) (emit 'y))))
            (define g1 (mk))
            (define g2 (mk))
            """
        )
        assert lib_interp.eval("(g1)").name == "x"
        assert lib_interp.eval("(g2)").name == "x"
        assert lib_interp.eval("(g1)").name == "y"


class TestCoroutines:
    def test_yield_values(self, lib_interp):
        lib_interp.run(
            """
            (define co (make-coroutine
                         (lambda (yield) (yield 1) (yield 2) 'end)))
            """
        )
        assert lib_interp.eval_to_string("(resume co)") == "(yield . 1)"
        assert lib_interp.eval_to_string("(resume co)") == "(yield . 2)"
        assert lib_interp.eval_to_string("(resume co)") == "(done . end)"

    def test_bidirectional(self, lib_interp):
        lib_interp.run(
            """
            (define co (make-coroutine
                         (lambda (yield)
                           (let ([a (yield 'ready)])
                             (yield (* a 2))))))
            """
        )
        assert lib_interp.eval("(cdr (resume co))").name == "ready"
        assert lib_interp.eval("(cdr (resume co 21))") == 42

    def test_resume_after_done_errors(self, lib_interp):
        from repro.errors import SchemeError

        lib_interp.run("(define co (make-coroutine (lambda (yield) 'done)))")
        lib_interp.eval("(resume co)")
        with pytest.raises(SchemeError, match="completed"):
            lib_interp.eval("(resume co)")

    def test_predicates(self, lib_interp):
        lib_interp.run("(define co (make-coroutine (lambda (yield) (yield 1) 2)))")
        assert lib_interp.eval("(coroutine-yielded? (resume co))") is True
        lib_interp.run("(define r (resume co))")
        assert lib_interp.eval("(coroutine-done? r)") is True
        assert lib_interp.eval("(coroutine-value r)") == 2

    def test_same_fringe(self, lib_interp):
        lib_interp.run(SAME_FRINGE)
        assert lib_interp.eval("(same-fringe? '((1 2) 3) '(1 (2 3)))") is True
        assert lib_interp.eval("(same-fringe? '(1 (2 (3))) '((1) 2 3))") is True
        assert lib_interp.eval("(same-fringe? '(1 2) '(2 1))") is False
        assert lib_interp.eval("(same-fringe? '(1 2) '(1 2 3))") is False


class TestParallel:
    def test_parallel_and_truths(self, lib_interp):
        assert lib_interp.eval("(parallel-and 1 2)") == 2
        assert lib_interp.eval("(parallel-and #f 2)") is False
        assert lib_interp.eval("(parallel-and 1 #f)") is False

    def test_parallel_and_false_abandons_sibling(self, lib_interp):
        interp = Interpreter(quantum=1, max_steps=300_000)
        interp.load_library("parallel")
        assert interp.eval("(parallel-and #f (let loop () (loop)))") is False

    def test_par_map(self, lib_interp):
        assert (
            lib_interp.eval_to_string("(par-map (lambda (x) (* x x)) '(1 2 3 4))")
            == "(1 4 9 16)"
        )
        assert lib_interp.eval_to_string("(par-map add1 '())") == "()"

    def test_par_map_equals_map(self, lib_interp):
        assert lib_interp.eval(
            "(equal? (par-map add1 (iota 20)) (map add1 (iota 20)))"
        ) is True

    def test_race_first_wins(self, lib_interp):
        interp = Interpreter(quantum=1, max_steps=300_000)
        interp.load_library("parallel")
        assert (
            interp.eval("(race (lambda () 'quick) (lambda () (let l () (l))))").name
            == "quick"
        )


class TestAmb:
    def test_solution_found(self, lib_interp):
        assert (
            lib_interp.eval_to_string(
                "(amb-solve (list '(1 2 3) '(10 20)) "
                "(lambda (xs) (= 23 (+ (car xs) (cadr xs)))))"
            )
            == "(3 20)"
        )

    def test_no_solution(self, lib_interp):
        assert (
            lib_interp.eval(
                "(amb-solve (list '(1) '(1)) (lambda (xs) #f))"
            )
            is False
        )

    def test_all_solutions(self, lib_interp):
        assert (
            lib_interp.eval_to_string(
                "(amb-solve-all (list '(1 2 3) '(1 2 3)) "
                "(lambda (xs) (= 4 (+ (car xs) (cadr xs)))))"
            )
            == "((1 3) (2 2) (3 1))"
        )

    def test_all_solutions_empty(self, lib_interp):
        assert (
            lib_interp.eval_to_string(
                "(amb-solve-all (list '(1 2)) (lambda (xs) #f))"
            )
            == "()"
        )


def test_unknown_library_raises():
    with pytest.raises(ValueError, match="unknown library"):
        Interpreter().load_library("nope")


def test_library_loading_idempotent():
    interp = Interpreter()
    interp.load_library("amb")
    interp.load_library("amb")  # no error, no re-definition issues
    assert interp.eval("(procedure? amb-solve)") is True


class TestEnginesUtil:
    @pytest.fixture
    def eng_interp(self):
        interp = Interpreter()
        interp.load_library("engines-util")
        return interp

    def test_with_timeout_completes(self, eng_interp):
        assert (
            eng_interp.eval("(with-timeout 100000 (lambda () (* 6 7)) 'late)")
            == 42
        )

    def test_with_timeout_expires(self, eng_interp):
        assert (
            eng_interp.eval(
                "(with-timeout 50 (lambda () (let l () (l))) 'timed-out)"
            ).name
            == "timed-out"
        )

    def test_with_timeout_boundary_behaviour(self, eng_interp):
        # A cheap thunk fits in a small budget.
        assert eng_interp.eval("(with-timeout 1000 (lambda () 1) 'late)") == 1

    def test_run_engines_fairly(self, eng_interp):
        result = eng_interp.eval_to_string(
            """
            (run-engines-fairly
              (list (lambda () (let l ([i 90]) (if (zero? i) 'long (l (- i 1)))))
                    (lambda () 'short)
                    (lambda () (let l ([i 30]) (if (zero? i) 'mid (l (- i 1))))))
              40)
            """
        )
        # Completion order: cheapest first under fair slicing.
        assert result == "(short mid long)"

    def test_first_to_finish(self, eng_interp):
        assert (
            eng_interp.eval(
                """
                (first-to-finish
                  (lambda () (let l () (l)))  ; never finishes
                  (lambda () 'quick)
                  25)
                """
            ).name
            == "quick"
        )

    def test_timeout_inside_pcall(self, eng_interp):
        assert (
            eng_interp.eval(
                """
                (pcall list
                       (with-timeout 30 (lambda () (let l () (l))) 'to)
                       (with-timeout 100000 (lambda () 'ok) 'to))
                """
            )
            is not None
        )
