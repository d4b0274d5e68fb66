"""Derived control libraries, written in the embedded Scheme.

The paper's Section 5/8 thesis is that ``spawn`` *subsumes* the control
abstractions other languages bake in.  These libraries make the claim
concrete — each is pure Scheme over ``spawn``/``pcall``:

* ``exceptions`` — handlers with nonlocal raise;
* ``generators`` — suspendable producers (one-at-a-time values);
* ``coroutines`` — symmetric resumable computations;
* ``parallel`` — ``parallel-and``, recursive ``par-map``, ``race``;
* ``amb`` — backtracking search with early exit.

Load with :meth:`repro.host.Session.load_library`.
"""

EXCEPTIONS = r"""
;; (with-handler handler thunk): thunk receives `raise`; (raise e)
;; aborts to the nearest with-handler, which applies handler to e.
(define (with-handler handler thunk)
  (spawn (lambda (c)
           (thunk (lambda (e)
                    (c (lambda (k) (handler e))))))))

;; (guard-else thunk fallback): value of (thunk raise), or (fallback e).
(define (guard-else thunk fallback)
  (with-handler fallback thunk))
"""

GENERATORS = r"""
;; (make-generator producer): producer receives `emit`; each call of
;; the generator returns the next emitted value, then 'generator-done.
(define (make-generator producer)
  (define resume-point #f)
  (lambda ()
    (if resume-point
        (resume-point #f)
        (spawn (lambda (c)
                 (producer (lambda (v)
                             (c (lambda (k)
                                  (set! resume-point k)
                                  v))))
                 (set! resume-point (lambda (ignored) 'generator-done))
                 'generator-done)))))

;; Drain a generator into a list.
(define (generator->list gen)
  (let loop ([v (gen)] [acc '()])
    (if (eq? v 'generator-done)
        (reverse acc)
        (loop (gen) (cons v acc)))))

;; The inorder tree walker as a generator.
(define (tree-generator tree)
  (make-generator
    (lambda (emit)
      (let walk ([t tree])
        (unless (empty? t)
          (walk (left t))
          (emit (node t))
          (walk (right t)))))))
"""

COROUTINES = r"""
;; (make-coroutine body): body receives `yield`; (yield v) suspends,
;; returning v to the resumer; the yield's value is what the next
;; (resume co x) passes back.  (resume co x) returns (cons 'yield v) or
;; (cons 'done result).
(define (make-coroutine body)
  (define k #f)
  (define started #f)
  (lambda (input)
    (cond
      [(not started)
       (set! started #t)
       (spawn (lambda (c)
                (define (yield v)
                  (c (lambda (kk)
                       (set! k kk)
                       (cons 'yield v))))
                (cons 'done (body yield))))]
      [k (let ([kk k])
           (set! k #f)
           (kk input))]
      [else (error "coroutine already completed")])))

(define (resume co . args)
  (co (if (null? args) #f (car args))))

(define (coroutine-yielded? r) (and (pair? r) (eq? (car r) 'yield)))
(define (coroutine-done? r) (and (pair? r) (eq? (car r) 'done)))
(define (coroutine-value r) (cdr r))
"""

PARALLEL = r"""
;; parallel-and: both arms run concurrently; #f from either wins
;; immediately and abandons the other; otherwise the second arm's value.
(extend-syntax (parallel-and)
  [(parallel-and e1 e2)
   (spawn (lambda (c)
            (define (check v) (unless v (c (lambda (k) #f))) v)
            (pcall (lambda (a b) b)
                   (check e1)
                   (check e2))))])

;; par-map: map with one pcall fork per element (a cons tree of joins).
(define (par-map f ls)
  (if (null? ls)
      '()
      (pcall cons (f (car ls)) (par-map f (cdr ls)))))

;; race: first thunk to finish wins outright (values need not be true).
(define (race thunk1 thunk2)
  (spawn (lambda (c)
           (define (finish v) (c (lambda (k) v)))
           (pcall (lambda (a b) a)
                  (finish (thunk1))
                  (finish (thunk2))))))
"""

AMB = r"""
;; (amb-solve choices pred?): first combination (one element per choice
;; list) satisfying pred?, or #f.  Early exit through the controller.
(define (amb-solve choices-list pred?)
  (spawn (lambda (c)
           (define (try chosen rest)
             (if (null? rest)
                 (when (pred? (reverse chosen))
                   (c (lambda (k) (reverse chosen))))
                 (for-each
                   (lambda (choice) (try (cons choice chosen) (cdr rest)))
                   (car rest))))
           (try '() choices-list)
           #f)))

;; All solutions, via suspend/resume like parallel-search.
(define (amb-solve-all choices-list pred?)
  (define (emit-search)
    (spawn (lambda (c)
             (define (try chosen rest)
               (if (null? rest)
                   (when (pred? (reverse chosen))
                     (c (lambda (k)
                          (cons (reverse chosen)
                                (lambda () (k #f))))))
                   (for-each
                     (lambda (choice) (try (cons choice chosen) (cdr rest)))
                     (car rest))))
             (try '() choices-list)
             #f)))
  (let loop ([r (emit-search)])
    (if (pair? r)
        (cons (car r) (loop ((cdr r))))
        '())))
"""

ENGINES_UTIL = r"""
;; (with-timeout fuel thunk default): run thunk for at most `fuel`
;; machine steps; its value if it finishes, `default` otherwise.  The
;; partial computation is simply dropped (a paused process tree).
(define (with-timeout fuel thunk default)
  (engine-run (make-engine thunk) fuel
    (lambda (v remaining) v)
    (lambda (eng) default)))

;; (run-engines-fairly thunks fuel): round-robin a list of thunks to
;; completion; values in completion order.
(define (run-engines-fairly thunks fuel)
  (let loop ([engines (map make-engine thunks)] [acc '()])
    (if (null? engines)
        (reverse acc)
        (engine-run (car engines) fuel
          (lambda (v r) (loop (cdr engines) (cons v acc)))
          (lambda (e) (loop (append (cdr engines) (list e)) acc))))))

;; (first-to-finish thunk1 thunk2 fuel): race via fair slicing — the
;; engine that halts first wins; the loser is dropped mid-run.
(define (first-to-finish thunk1 thunk2 fuel)
  (let loop ([e1 (make-engine thunk1)] [e2 (make-engine thunk2)])
    (engine-run e1 fuel
      (lambda (v r) v)
      (lambda (e1*) (loop e2 e1*)))))
"""

#: name -> source
LIBRARIES = {
    "exceptions": EXCEPTIONS,
    "generators": GENERATORS,
    "coroutines": COROUTINES,
    "parallel": PARALLEL,
    "amb": AMB,
    "engines-util": ENGINES_UTIL,
}
