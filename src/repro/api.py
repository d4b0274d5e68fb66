"""The public API: :class:`Interpreter`, the single-session interpreter.

    >>> from repro import Interpreter
    >>> interp = Interpreter()
    >>> interp.eval("(+ 1 2)")
    3
    >>> interp.run("(define (twice f x) (f (f x)))")
    [#<unspecified>]
    >>> interp.eval("(twice (lambda (n) (* n n)) 3)")
    81

``Interpreter`` is another name for :class:`repro.host.Session` — the
same object the multi-session :class:`repro.host.Host` schedules N at a
time — so everything the host runtime offers (per-request step budgets
and wall-clock deadlines, suspendable evaluation, cooperative
cancellation, snapshots) is available on the single-interpreter surface
too:

    >>> from repro.errors import StepBudgetExceeded
    >>> try:
    ...     interp.eval("(let loop ([n 0]) (loop (+ n 1)))", max_steps=1000)
    ... except StepBudgetExceeded as exc:
    ...     exc.steps
    1000

Paper programs load by name via :meth:`~Session.load_paper_example`.
The constructor's parameters are documented on :class:`Session`
(``docs/API.md`` mirrors them); ``engine`` and ``policy`` accept enums
or their string values interchangeably:

    >>> from repro import Engine
    >>> Interpreter(engine=Engine.CODEGEN, prelude=False).engine
    'codegen'
    >>> Interpreter(engine="codegen", prelude=False).engine
    'codegen'
"""

from __future__ import annotations

from repro.host.session import Session

__all__ = ["Interpreter"]

Interpreter = Session
