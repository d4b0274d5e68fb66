"""Controller escape analysis (the Section 8 analyzability claim)."""

import pytest

from repro.analysis import analyze_source, spawn_report
from repro.lib import paper_examples


def one(source):
    sites = analyze_source(source)
    assert len(sites) == 1
    return sites[0]


def test_unused_controller():
    site = one("(spawn (lambda (c) 42))")
    assert site.classification == "unused"
    assert site.is_safe()


def test_confined_direct_abort():
    site = one("(spawn (lambda (c) (+ 1 (c (lambda (k) 9)))))")
    assert site.classification == "confined"
    assert site.direct_uses == 1
    assert site.is_safe()


def test_confined_multiple_direct_uses():
    site = one(
        """
        (spawn (lambda (c)
                 (if (< 1 2)
                     (c (lambda (k) 1))
                     (c (lambda (k) 2)))))
        """
    )
    assert site.classification == "confined"
    assert site.direct_uses == 2


def test_escaping_returned_controller():
    site = one("(spawn (lambda (c) c))")
    assert site.classification == "escaping"
    assert not site.is_safe()


def test_escaping_controller_as_argument():
    site = one("(spawn (lambda (c) (list c)))")
    assert site.classification == "escaping"


def test_escaping_via_set():
    site = one(
        """
        (begin
          (define box #f)
          (spawn (lambda (c) (set! box c) 1)))
        """
    )
    assert site.classification == "escaping"


def test_captured_in_nested_lambda():
    site = one("(spawn (lambda (c) ((lambda (x) (c (lambda (k) x))) 5)))")
    assert site.classification == "captured"
    assert site.captured_uses == 1


def test_shadowing_stops_tracking():
    site = one("(spawn (lambda (c) ((lambda (c) (c 1)) (lambda (x) x))))")
    assert site.classification == "unused"


def test_opaque_spawn_of_variable():
    site = one("(spawn some-procedure)")
    assert site.classification == "opaque"
    assert site.controller is None


def test_nested_spawns_reported_separately():
    sites = analyze_source(
        """
        (spawn (lambda (outer)
                 (spawn (lambda (inner)
                          (inner (lambda (k) 1))))))
        """
    )
    assert len(sites) == 2
    by_name = {s.controller: s for s in sites}
    assert by_name["outer"].classification == "unused"
    assert by_name["inner"].classification == "confined"


def test_use_of_outer_controller_in_inner_spawn_is_captured():
    sites = analyze_source(
        """
        (spawn (lambda (outer)
                 (spawn (lambda (inner)
                          (outer (lambda (k) 1))))))
        """
    )
    by_name = {s.controller: s for s in sites}
    # The inner spawned procedure is a nested lambda w.r.t. outer.
    assert by_name["outer"].classification == "captured"


class TestPaperExamples:
    """The classifications tell the Section 5 story: each derived
    abstraction restricts controller access through a closure."""

    def test_spawn_exit_is_captured(self):
        sites = analyze_source(paper_examples.SPAWN_EXIT)
        (site,) = sites
        # The controller is applied inside the restricted `exit`
        # closure that is handed to unknown code — access escapes, but
        # only through the abort-only wrapper.
        assert site.classification == "captured"

    def test_parallel_search_is_captured(self):
        sites = analyze_source(paper_examples.PARALLEL_SEARCH)
        (site,) = sites
        assert site.classification == "captured"

    def test_invalid_after_return_example_is_escaping(self):
        sites = analyze_source("(spawn (lambda (c) c))")
        assert sites[0].classification == "escaping"

    def test_first_true_inner_shape(self):
        # first-true calls spawn/exit (a variable) — opaque at this
        # syntactic level: the analysis is honest about indirection.
        sites = analyze_source("(spawn/exit (lambda (exit) (exit 1)))")
        assert sites == []  # spawn/exit is not literally `spawn`


def test_report_format():
    report = spawn_report(
        "(begin (spawn (lambda (c) (c (lambda (k) 1)))) (spawn (lambda (d) d)))"
    )
    assert "confined" in report and "escaping" in report
    assert "controller c" in report and "controller d" in report


def test_report_no_sites():
    assert spawn_report("(+ 1 2)") == "no spawn sites"


# ---------------------------------------------------------------------------
# Regressions: the analysis used to miss two whole node families.
# ---------------------------------------------------------------------------


class TestPcallSites:
    """``(pcall spawn proc)`` forks the evaluations but still ends in a
    spawn application — it is a spawn site and must be classified."""

    def test_pcall_spawn_is_a_site(self):
        site = one("(pcall spawn (lambda (c) (c (lambda (k) 1))))")
        assert site.classification == "confined"

    def test_pcall_spawn_escaping(self):
        site = one("(pcall spawn (lambda (c) c))")
        assert site.classification == "escaping"

    def test_pcall_other_operator_is_not_a_site(self):
        assert analyze_source("(pcall + 1 2)") == []

    def test_spawn_nested_under_pcall_arm_found(self):
        site = one("(pcall + (spawn (lambda (c) 7)) 1)")
        assert site.classification == "unused"


def resolved_sites(source):
    """Expand + resolve ``source`` against a fresh session's globals,
    then analyze the *resolved* trees (LocalRef/GlobalRef dialect)."""
    from repro.expander import ExpandEnv, expand_program
    from repro.host.session import Session
    from repro.ir.resolve import resolve_program
    from repro.reader import read_all

    from repro.analysis import analyze_spawns

    sess = Session(prelude=False)
    env = ExpandEnv()
    env.macros.update(sess.expand_env.macros)
    nodes = expand_program(read_all(source), env)
    return analyze_spawns(resolve_program(nodes, sess.globals))


class TestResolvedDialect:
    """The resolver rewrites Var into LocalRef/GlobalRef; the analysis
    tracks the controller by slot address (depth, 0) instead of name."""

    def test_confined(self):
        (site,) = resolved_sites("(spawn (lambda (c) (+ 1 (c (lambda (k) 9)))))")
        assert site.classification == "confined"
        assert site.direct_uses == 1

    def test_escaping_value_use(self):
        (site,) = resolved_sites("(spawn (lambda (c) c))")
        assert site.classification == "escaping"

    def test_captured_in_nested_lambda(self):
        (site,) = resolved_sites("(spawn (lambda (c) (lambda () (c (lambda (k) 1)))))")
        assert site.classification == "captured"

    def test_zero_slot_nested_lambda_keeps_address(self):
        # A no-argument inner lambda allocates no rib, so it does not
        # shift the controller's depth — but it is still a nested
        # abstraction: the use is captured, not direct.
        (site,) = resolved_sites("(spawn (lambda (c) (lambda () (c 'x))))")
        assert site.classification == "captured"

    def test_shadowing_by_address(self):
        # Rebinding c in an inner lambda lives in its own rib; exact
        # addressing keeps the outer controller distinct.
        (site,) = resolved_sites(
            "(spawn (lambda (c) ((lambda (c) (c 1)) (lambda (x) x))))"
        )
        assert site.classification == "unused"

    def test_local_set_noted(self):
        (site,) = resolved_sites("(spawn (lambda (c) (set! c 5)))")
        assert any("reassigned" in n for n in site.notes)

    def test_pcall_spawn_resolved(self):
        (site,) = resolved_sites("(pcall spawn (lambda (c) (c (lambda (k) 1))))")
        assert site.classification == "confined"

    def test_agreement_with_unresolved(self):
        programs = [
            "(spawn (lambda (c) 42))",
            "(spawn (lambda (c) (+ 1 (c (lambda (k) 9)))))",
            "(spawn (lambda (c) c))",
            "(spawn (lambda (c) (list c)))",
            "(spawn (lambda (c) ((lambda (x) (c (lambda (k) x))) 5)))",
            "(spawn (lambda (outer) (spawn (lambda (inner) (outer (lambda (k) 1))))))",
        ]
        for source in programs:
            unresolved = [s.classification for s in analyze_source(source)]
            resolved = [s.classification for s in resolved_sites(source)]
            assert unresolved == resolved, source


# Spawn-site classification stability: the paper's examples and the
# prelude classify identically in both IR dialects.


@pytest.mark.parametrize("name", sorted(paper_examples.ALL))
def test_paper_example_spawn_stable(name):
    source, _ = paper_examples.ALL[name]
    unresolved = [s.classification for s in analyze_source(source)]
    assert unresolved == [s.classification for s in resolved_sites(source)], name
    for c in unresolved:
        assert c in ("unused", "confined", "captured", "escaping", "opaque")


def test_prelude_spawn_classification_stable():
    from repro.lib.prelude import PRELUDE

    unresolved = [s.classification for s in analyze_source(PRELUDE)]
    assert unresolved == [s.classification for s in resolved_sites(PRELUDE)]
