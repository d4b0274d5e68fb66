"""The capture/effect analysis phase (repro.analysis.effects).

Three layers of coverage:

* the fact lattice itself — interning, bit packing, the fixpoint over
  program-local defines (fib stays capture-free, self-loops never prove
  total), conservatism at every unknown;
* the pump-time validator and scheduler grants — what gets an enlarged
  quantum, what must refuse one, and that grants never leak into the
  snapshot;
* the semantic gate — analysis on vs off is *zero-divergence* on
  values, output, step counts and machine stats, across engines,
  policies and quanta (the seeded random-program sweep at the bottom).
"""

import pytest

from repro import EffectInfo, Interpreter, analyze
from repro.analysis import AnalysisStats, annotate_program, single_task_form
from repro.analysis.effects import GRANT_QUANTUM
from repro.expander import expand_program
from repro.host.host import Host
from repro.host.session import Session
from repro.ir import resolve_program
from repro.lib import paper_examples
from repro.reader import read_all
from repro.snapshot import restore_session, snapshot_session
from tests.engines import ENGINES, legacy_blob, make_session

FIB = "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)"


def _resolved(sess, source):
    """``source`` read, expanded and resolved against ``sess`` (the IR
    the analysis phase sees, before compilation)."""
    return resolve_program(expand_program(read_all(source), sess.expand_env), sess.globals)


# ---------------------------------------------------------------------------
# EffectInfo: interning, bits, immutability
# ---------------------------------------------------------------------------


def test_effectinfo_interned_identity():
    a = EffectInfo(True, True, False, True)
    b = EffectInfo(True, True, False, True)
    assert a is b
    assert EffectInfo() is EffectInfo(False, False, False, False)


def test_effectinfo_bits_round_trip():
    for bits in range(16):
        info = EffectInfo.from_bits(bits)
        assert info.bits == bits
        assert EffectInfo.from_bits(info.bits) is info


def test_effectinfo_immutable():
    info = EffectInfo(True, True, True, True)
    with pytest.raises(AttributeError):
        info.capture_free = False


def test_effectinfo_repr_names_facts():
    assert "capture-free" in repr(EffectInfo(True, False, False, False))
    assert repr(EffectInfo()) == "EffectInfo(bottom)"


# ---------------------------------------------------------------------------
# The fixpoint: analyze() facts
# ---------------------------------------------------------------------------


def form_effects(report, index=-1):
    return report.forms[index].effects


def test_straight_line_arithmetic_is_pure_and_total():
    report = analyze("(+ 1 (* 2 3))")
    eff = form_effects(report)
    assert eff.capture_free and eff.spawn_free and eff.known_total
    assert report.classification == "pure"


def test_nonrecursive_define_proves_total():
    report = analyze("(define (inc x) (+ x 1)) (inc 2)")
    assert form_effects(report).known_total


def test_fib_is_capture_free_but_not_total():
    # Recursion keeps the greatest-fixpoint safety facts but the
    # least-fixpoint termination fact must not survive the cycle.
    report = analyze(FIB)
    eff = form_effects(report)
    assert eff.capture_free and eff.spawn_free
    assert not eff.known_total
    assert report.classification == "pure"


def test_self_loop_never_proves_total():
    # The form facts describe evaluating the define (closure creation —
    # total); the *lambda's* stamped facts must not claim termination.
    sess = Session()
    nodes = _resolved(sess, "(define (l) (l))")
    annotate_program(nodes, sess.globals)
    lam = nodes[0].expr
    assert lam.effects.capture_free and lam.effects.spawn_free
    assert not lam.effects.known_total


def test_callcc_kills_capture_free():
    report = analyze("(call/cc (lambda (k) (k 1)))")
    eff = form_effects(report)
    assert not eff.capture_free
    assert eff.spawn_free  # call/cc captures but forks nothing
    assert report.classification == "capture-heavy"


def test_spawn_kills_both_and_classifies_spawning():
    report = analyze("(spawn (lambda (c) (c (lambda (k) 1))))")
    eff = form_effects(report)
    assert not eff.capture_free and not eff.spawn_free
    assert report.classification == "spawning"
    assert len(report.spawn_sites) == 1
    assert eff.controller_confined  # the site is confined


def test_escaping_controller_is_not_confined():
    report = analyze("(spawn (lambda (c) c))")
    assert not form_effects(report).controller_confined


def test_pcall_kills_spawn_free_only():
    report = analyze("(pcall + 1 2)")
    eff = form_effects(report)
    assert eff.capture_free and not eff.spawn_free
    assert report.classification == "spawning"


def test_future_and_engines_kill_spawn_free():
    for src in (
        "(touch (future (lambda () 1)))",
        "(engine-run (make-engine (lambda () 1)) 100 (lambda (v f) v) (lambda (e) 'out))",
    ):
        assert not form_effects(analyze(src)).spawn_free


def test_safe_control_predicates_stay_pure():
    report = analyze("(engine? 5)")
    eff = form_effects(report)
    assert eff.capture_free and eff.spawn_free and eff.known_total


def test_computed_operator_is_bottom():
    report = analyze("((car (list (lambda (x) x))) 1)")
    eff = form_effects(report)
    assert not eff.capture_free and not eff.spawn_free


def test_set_bang_poisons_applies_through_the_cell():
    # inc is reassigned somewhere in the program, so applying through it
    # proves nothing — even in a form before the assignment.
    report = analyze(
        "(define (inc x) (+ x 1)) (inc 1) (set! inc (lambda (x) (call/cc x))) (inc 2)"
    )
    assert not form_effects(report, 1).capture_free
    assert not form_effects(report, 3).capture_free


def test_program_classification_is_worst_form():
    report = analyze("(+ 1 2) (call/cc (lambda (k) (k 1))) (spawn (lambda (c) 1))")
    assert report.classification == "spawning"
    tags = [f.tag for f in report.forms]
    assert tags == ["pure", "capture-heavy", "spawning"]


def test_annotate_stamps_lambdas_and_counts():
    sess = Session()
    nodes = _resolved(sess, "(define (sq x) (* x x)) (sq 3)")
    stats = AnalysisStats()
    report = annotate_program(nodes, sess.globals, stats)
    assert stats.forms == 2
    assert stats.lambdas == report.lambdas >= 1
    assert stats.capture_free >= 1
    # The define's lambda carries interned facts.
    lam = nodes[0].expr
    assert lam.effects is EffectInfo(True, True, True, True)


def test_summary_renders_every_form():
    text = analyze("(+ 1 2) (spawn (lambda (c) 1))").summary()
    assert "classification: spawning" in text
    assert "form 0" in text and "form 1" in text


# ---------------------------------------------------------------------------
# single_task_form: the pump-time validator
# ---------------------------------------------------------------------------


def _forms(sess, source):
    handle = sess.submit(source)
    sess.drive(handle)
    return handle.nodes


@pytest.fixture(scope="module")
def resolved_session():
    return Session()


def test_validator_accepts_pure_recursion(resolved_session):
    nodes = _forms(resolved_session, FIB)
    assert single_task_form(nodes[-1], resolved_session.globals)


def test_validator_rejects_spawn_pcall_callcc(resolved_session):
    for src in (
        "(spawn (lambda (c) 1))",
        "(pcall + 1 2)",
        "(call/cc (lambda (k) (k 1)))",
    ):
        (node,) = _forms(resolved_session, src)
        assert not single_task_form(node, resolved_session.globals)


def test_validator_rejects_computed_operator(resolved_session):
    (node,) = _forms(resolved_session, "((car (list car)) '(1))")
    assert not single_task_form(node, resolved_session.globals)


def test_validator_rejects_self_mutating_form(resolved_session):
    # One form that assigns a cell it also applies through (top-level
    # begin splices, so hide the sequence inside a thunk): the walk's
    # facts would be stale by the time the redefined procedure runs.
    sess = Session()
    sess.run("(define (f x) x)")
    handle = sess.submit("((lambda () (set! f (lambda (x) (call/cc x))) (f 1)))")
    node = handle.nodes[0]
    assert not single_task_form(node, sess.globals)
    sess.cancel(handle)


def test_validator_rejects_define_then_call_in_one_form(resolved_session):
    # DefineTop inside a granted form must count as mutation of the
    # defined cell (defense-in-depth; the expander normally splices
    # top-level defines into their own forms).
    from repro.ir.nodes import App, Const, DefineTop, GlobalRef, Lambda, Seq

    sess = Session()
    sess.run("(define (g) 1)")
    from repro.datum import intern

    cell = sess.globals.cells[intern("g")]
    node = Seq(
        (
            DefineTop(intern("g"), Lambda((), None, Const(2), "g", 0)),
            App(GlobalRef(cell), ()),
        )
    )
    assert not single_task_form(node, sess.globals)


def test_validator_follows_current_cell_values():
    # Facts must come from the *live* closure, not the submit-time one.
    sess = Session()
    sess.run("(define (f x) (+ x 1))")
    handle = sess.submit("(f 1)")
    node = handle.nodes[0]
    assert single_task_form(node, sess.globals)
    sess.drive(handle)
    sess.run("(set! f (lambda (x) (call/cc x)))")
    assert not single_task_form(node, sess.globals)


# ---------------------------------------------------------------------------
# Grants: who gets the enlarged quantum
# ---------------------------------------------------------------------------


def test_pure_form_gets_grant_and_it_never_persists():
    sess = Session(engine="compiled", quantum=16)
    before = sess.analysis_stats.grants
    sess.run(FIB)
    assert sess.analysis_stats.grants > before
    assert sess.machine.quantum_grant is None  # cleared at form end


def test_no_grants_with_analysis_off():
    sess = Session(engine="compiled", quantum=16, analysis=False)
    sess.run(FIB)
    assert sess.analysis_stats.grants == 0


def test_no_grants_under_random_policy():
    # The random policy draws from its RNG once per pick even with a
    # single runnable task, so enlarging the quantum would perturb the
    # seeded schedule of later racy forms.  FIFO only.
    sess = Session(engine="compiled", quantum=16, policy="random", seed=3)
    sess.run(FIB)
    assert sess.analysis_stats.grants == 0


def test_no_grants_when_quantum_already_large():
    sess = Session(engine="compiled", quantum=GRANT_QUANTUM)
    sess.run(FIB)
    assert sess.analysis_stats.grants == 0


def test_codegen_engine_gets_grants():
    # The grant condition unwraps code thunks via .node, so the
    # codegen engine's emitted functions qualify exactly like the
    # closure compiler's thunks do — same program, same grant count.
    compiled = Session(engine="compiled", quantum=16)
    compiled.run(FIB)
    codegen = Session(engine="codegen", quantum=16)
    codegen.run(FIB)
    assert codegen.analysis_stats.grants == compiled.analysis_stats.grants > 0
    assert codegen.machine.quantum_grant is None  # cleared at form end


@pytest.mark.parametrize("engine", ENGINES)
def test_no_grants_under_random_policy_any_engine(engine):
    # Regression for the grant policy gate: the random policy draws
    # from its RNG once per pick, so an enlarged quantum would perturb
    # the seeded schedule — every engine must stay excluded, including
    # any engine added after the gate was written.
    sess = make_session(engine, quantum=16, policy="random", seed=3)
    before = sess.analysis_stats.grants  # a legacy cell's prelude ran FIFO
    sess.run(FIB)
    assert sess.analysis_stats.grants == before


def test_dict_engine_ignores_analysis():
    # The dict engine ran with analysis forced off, and its snapshots
    # keep it off: a restored session never analyzes or grants.
    sess = Session.restore(legacy_blob("dict"))
    assert sess.analysis is False
    sess.run(FIB)
    assert sess.analysis_stats.grants == 0
    assert not any(k.startswith("analysis") for k in sess.stats)


def test_stats_namespaced_only():
    interp = Interpreter()
    interp.run(FIB)
    stats = interp.stats
    assert stats["analysis.forms"] > 0
    assert "analysis_forms" not in stats  # flat aliases removed in 1.4.0
    assert stats["analysis.lambdas"] > 0
    assert stats["analysis.grants"] > 0
    off = Interpreter(analysis=False)
    off.run(FIB)
    assert not any(k.startswith("analysis") for k in off.stats)


# ---------------------------------------------------------------------------
# Request tagging and host budgeting
# ---------------------------------------------------------------------------


def test_submit_tags_handles():
    sess = Session()
    pure = sess.submit("(+ 1 2)")
    heavy = sess.submit("(call/cc (lambda (k) (k 1)))")
    spawning = sess.submit("(spawn (lambda (c) 1))")
    assert pure.classification == "pure"
    assert heavy.classification == "capture-heavy"
    assert spawning.classification == "spawning"
    assert pure.report is not None
    m = sess.metrics
    assert (m.submits_pure, m.submits_capture_heavy, m.submits_spawning) == (1, 1, 1)


def test_backlog_classification_is_worst_pending():
    sess = Session()
    assert sess.backlog_classification() == "idle"
    sess.submit("(+ 1 2)")
    assert sess.backlog_classification() == "pure"
    sess.submit("(spawn (lambda (c) 1))")
    assert sess.backlog_classification() == "spawning"
    while not sess.idle:
        sess.pump(10_000)
    assert sess.backlog_classification() == "idle"


def test_host_class_weights_budget_differently():
    host = Host(quantum=64, class_weights={"pure": 2.0, "spawning": 0.5})
    a = host.session("pure-s")
    b = host.session("spawn-s")
    a.submit("(define (lp n) (if (= n 0) 'done (lp (- n 1)))) (lp 4000)")
    b.submit("(pcall + (+ 1 2) (+ 3 4))")
    host.run_until_idle(max_ticks=200)
    assert a.idle and b.idle
    assert a.metrics.steps_served > 0 and b.metrics.steps_served > 0


def test_host_without_weights_unchanged():
    host = Host(quantum=64)
    s = host.session("plain")
    s.submit("(+ 1 2)")
    host.run_until_idle(max_ticks=50)
    assert s.idle


# ---------------------------------------------------------------------------
# Snapshot round-trip
# ---------------------------------------------------------------------------


def test_effects_and_analysis_state_survive_snapshot():
    sess = Session(engine="compiled")
    sess.run("(define (sq x) (* x x)) (sq 4)")
    blob = snapshot_session(sess)
    restored = restore_session(blob)
    assert restored.analysis is True
    for name in AnalysisStats._FIELDS:
        assert getattr(restored.analysis_stats, name) == getattr(
            sess.analysis_stats, name
        )
    from repro.datum import intern

    closure = restored.globals.cells[intern("sq")].value
    # Interned: the restored closure carries the same EffectInfo object.
    assert closure.effects is EffectInfo(True, True, True, True)
    assert restored.eval_to_string("(sq 5)") == "25"


def test_analysis_off_survives_snapshot():
    sess = Session(engine="compiled", analysis=False)
    sess.run("(define (sq x) (* x x))")
    restored = restore_session(snapshot_session(sess))
    assert restored.analysis is False
    assert restored.eval_to_string("(sq 3)") == "9"


# ---------------------------------------------------------------------------
# Spawn-site classification stability: paper examples + prelude, both
# IR dialects (pre-resolution and resolved)
# ---------------------------------------------------------------------------


def _both_dialect_classifications(source):
    from repro.analysis import analyze_spawns, analyze_source
    from repro.expander import ExpandEnv, expand_program
    from repro.ir.resolve import resolve_program
    from repro.reader import read_all

    unresolved = [s.classification for s in analyze_source(source)]
    sess = Session(prelude=False)
    env = ExpandEnv()
    env.macros.update(sess.expand_env.macros)
    nodes = expand_program(read_all(source), env)
    resolved = [
        s.classification for s in analyze_spawns(resolve_program(nodes, sess.globals))
    ]
    return unresolved, resolved


@pytest.mark.parametrize("name", sorted(paper_examples.ALL))
def test_paper_example_spawn_classification_stable(name):
    source, _ = paper_examples.ALL[name]
    unresolved, resolved = _both_dialect_classifications(source)
    assert unresolved == resolved, name
    # Spot-check the safety story: classifications are from the known
    # vocabulary, deterministically.
    for c in unresolved:
        assert c in ("unused", "confined", "captured", "escaping", "opaque")


def test_prelude_spawn_classification_stable():
    from repro.lib.prelude import PRELUDE

    unresolved, resolved = _both_dialect_classifications(PRELUDE)
    assert unresolved == resolved


# ---------------------------------------------------------------------------
# Zero divergence: seeded random programs, analysis on vs off
# ---------------------------------------------------------------------------

from tests.snapshot.test_randomized import gen_program

SWEEP_QUANTA = (1, 16, 4096)


@pytest.mark.parametrize("engine", ("resolved", "compiled"))
@pytest.mark.parametrize("quantum", SWEEP_QUANTA)
def test_random_programs_zero_divergence(engine, quantum):
    for seed in (3, 17, 29):
        program = gen_program(seed)
        runs = {}
        for analysis in (True, False):
            sess = make_session(engine, quantum=quantum, seed=5, analysis=analysis)
            sess.submit(program)
            while not sess.idle:
                sess.pump(10_000)
            runs[analysis] = (
                sess.output_text(),
                sess.machine.steps_total,
                dict(sess.machine.stats),
            )
        assert runs[True] == runs[False], (engine, quantum, seed)
