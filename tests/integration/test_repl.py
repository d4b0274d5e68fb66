"""The REPL and CLI."""

import io

import pytest

from repro.repl import Repl, main


@pytest.fixture
def repl():
    out = io.StringIO()
    return Repl(out=out), out


def feed(repl_pair, *lines):
    repl, out = repl_pair
    for line in lines:
        alive = repl.feed_line(line)
        if not alive:
            return out.getvalue(), False
    return out.getvalue(), True


def test_simple_evaluation(repl):
    text, _ = feed(repl, "(+ 1 2)")
    assert "3" in text


def test_multi_line_form_buffering(repl):
    instance, out = repl
    instance.feed_line("(let ([x 1]")
    assert instance.prompt() == "... "
    instance.feed_line("      [y 2])")
    instance.feed_line("  (+ x y))")
    assert "3" in out.getvalue()
    assert instance.prompt() == ">>> "


def test_string_with_parens_does_not_confuse_balance(repl):
    text, _ = feed(repl, '(string-length "(((")')
    assert "3" in text


def test_comment_with_parens(repl):
    text, _ = feed(repl, "(+ 1 2) ; unbalanced ((( in comment")
    assert "3" in text


@pytest.mark.parametrize(
    "line, shown",
    [
        ("(char->integer #\\()", "40"),
        ('(string #\\")', '"\\""'),
        ("(quote #| ( |# x)", "x"),
    ],
)
def test_complete_line_with_delimiter_in_char_or_comment(repl, line, shown):
    instance, out = repl
    instance.feed_line(line)
    assert out.getvalue().strip() == shown
    assert instance.prompt() == ">>> "


def test_buffers_until_the_reader_can_finish_a_datum(repl):
    instance, out = repl
    for line in ("(list 1 '", "#| ( |#", '"a'):
        instance.feed_line(line)
        assert instance.prompt() == "... "
    instance.feed_line('b")')
    assert instance.prompt() == ">>> "
    assert out.getvalue().strip() == '(1 "a\\nb")'


def test_stray_close_reports_its_error(repl):
    instance, out = repl
    instance.feed_line(")")
    assert "error: unexpected )" in out.getvalue()
    assert instance.prompt() == ">>> "


def test_definition_prints_nothing(repl):
    text, _ = feed(repl, "(define x 5)")
    assert text.strip() == ""
    text, _ = feed(repl, "x")
    assert "5" in text


def test_display_output_shown(repl):
    text, _ = feed(repl, '(begin (display "hi") (newline) 42)')
    assert "hi" in text and "42" in text


def test_error_reported_not_fatal(repl):
    text, alive = feed(repl, "(car 5)", "(+ 1 1)")
    assert "error:" in text
    assert alive
    assert "2" in text


def test_meta_quit(repl):
    _, alive = feed(repl, ",quit")
    assert not alive


def test_meta_help(repl):
    text, _ = feed(repl, ",help")
    assert ",load" in text


def test_meta_examples(repl):
    text, _ = feed(repl, ",examples")
    assert "parallel-search" in text


def test_meta_load_and_use(repl):
    text, _ = feed(
        repl, ",load parallel-or", "(parallel-or #f 9)"
    )
    assert "loaded parallel-or" in text
    assert "9" in text


def test_meta_load_unknown(repl):
    text, _ = feed(repl, ",load bogus")
    assert "unknown example" in text


def test_meta_stats(repl):
    text, _ = feed(repl, "(pcall + 1 2)", ",stats")
    assert "forks" in text


def test_meta_trace(repl):
    text, _ = feed(repl, ",trace (spawn (lambda (c) (c (lambda (k) 1))))")
    assert "capture" in text


def test_meta_unknown(repl):
    text, _ = feed(repl, ",wat")
    assert "unknown command" in text


def test_spawn_through_repl(repl):
    text, _ = feed(repl, "(spawn (lambda (c) (+ 1 (c (lambda (k) 'out)))))")
    assert "out" in text


# -- the CLI ------------------------------------------------------------


def test_cli_eval(capsys):
    assert main(["-e", "(* 6 7)"]) == 0
    assert "42" in capsys.readouterr().out


def test_cli_examples(capsys):
    assert main(["--examples"]) == 0
    assert "spawn/exit" in capsys.readouterr().out


def test_cli_file(tmp_path, capsys):
    script = tmp_path / "prog.ss"
    script.write_text("(define (f x) (* x x)) (display (f 9)) (newline)")
    assert main([str(script)]) == 0
    assert "81" in capsys.readouterr().out


def test_cli_policy_and_seed(capsys):
    assert main(["--policy", "random", "--seed", "3", "-e", "(pcall + 1 2)"]) == 0
    assert "3" in capsys.readouterr().out


def test_cli_max_steps(capsys):
    assert main(["--max-steps", "100", "-e", "(let loop () (loop))"]) == 0
    assert "error" in capsys.readouterr().out


def test_cli_no_resolve(capsys):
    # The flag selected the dict engine, which is gone: argparse now
    # rejects it like any unknown option.
    with pytest.raises(SystemExit) as exc:
        main(["--no-resolve", "-e", "(let ([x 6]) (* x 7))"])
    assert exc.value.code == 2
    assert "--no-resolve" in capsys.readouterr().err


def test_meta_stats_includes_resolver_counters(repl):
    text, _ = feed(repl, "(let ([x 1]) (+ x x))", ",stats")
    assert "resolver.locals" in text
    assert "resolver.cells_interned" in text


def test_meta_stats_no_analysis_rows_when_disabled():
    from repro import Interpreter

    out = io.StringIO()
    pair = (Repl(Interpreter(echo_output=False, analysis=False), out=out), out)
    text, _ = feed(pair, "(+ 1 2)", ",stats")
    assert "forks" in text
    assert "resolver.locals" in text
    assert "analysis." not in text


def test_meta_analyze(repl):
    text, _ = feed(repl, ",analyze (spawn (lambda (c) (c (lambda (k) 1))))")
    assert "confined" in text


def test_meta_analyze_usage(repl):
    text, _ = feed(repl, ",analyze")
    assert "usage" in text


def test_meta_codegen(repl):
    # Emitted Python for the form plus the ir-hash cache verdict.
    text, _ = feed(repl, ",codegen (+ 1 2)")
    assert "ir-hash" in text
    assert "def _f1(machine, task" in text
    assert "code cache" in text


def test_meta_codegen_resolves_against_live_session(repl):
    # Like ,analyze, the form is expanded and resolved against this
    # REPL's live globals and macros — a fresh definition is visible.
    text, _ = feed(
        repl,
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
        ",codegen (fib 10)",
    )
    assert "cache" in text
    assert "_apply_deliver" in text  # the spill path is in the source


def test_meta_codegen_usage(repl):
    text, _ = feed(repl, ",codegen")
    assert "usage" in text


def test_meta_codegen_error(repl):
    text, _ = feed(repl, ",codegen (")
    assert "error" in text


def test_experiments_runner_module():
    """python -m repro.experiments must run clean (smoke: E3+E8 subset
    run in-process to keep the test fast)."""
    from repro.experiments import Report, e3, e8

    report = Report()
    e3(report)
    e8(report)
    assert not report.failures


def test_interpreter_load_file(tmp_path):
    from repro import Interpreter

    script = tmp_path / "lib.ss"
    script.write_text("(define (inc x) (+ x 1)) (inc 41)")
    interp = Interpreter()
    values = interp.load_file(str(script))
    assert values[-1] == 42
    assert interp.eval("(inc 1)") == 2


def test_selftest_scheme_file(capsys):
    """examples/selftest.ss — a Scheme-written test suite — passes
    through the CLI."""
    from pathlib import Path

    script = Path(__file__).parent.parent.parent / "examples" / "selftest.ss"
    assert main([str(script)]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAILURES" not in out
