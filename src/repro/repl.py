"""Interactive REPL and command-line interface.

    python -m repro                   # interactive REPL
    python -m repro program.ss        # run a file
    python -m repro -e "(+ 1 2)"      # evaluate and print
    python -m repro --examples        # list the paper's programs
    python -m repro --engine codegen  # pick an execution engine
    python -m repro --deadline 0.5    # per-evaluation wall-clock budget

REPL meta-commands:

    ,help            this message
    ,load <name>     load a paper example by name (,load sum-of-products)
    ,examples        list paper example names
    ,stats           engine + machine + compile-stage counters (forks,
                     captures, locals resolved, nodes compiled,
                     ...); with --profile
                     also the VM run-loop counters (quanta, spill
                     causes, write-backs avoided)
    ,tree            render the last process-tree statistics
    ,trace <expr>    evaluate with a control-event trace
    ,analyze <expr>  the controller escape report for each spawn site
    ,codegen <expr>  show the Python source the codegen engine emits
                     for a form (against this REPL's live globals and
                     macros) and its ir-hash code-cache status
    ,quit            exit
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.api import Interpreter
from repro.datum import UNSPECIFIED, scheme_repr
from repro.errors import IncompleteInput, ReaderError, ReproError
from repro.lib import paper_examples
from repro.reader import read_all

__all__ = ["main", "Repl"]

_BANNER = """repro — Continuations and Concurrency (Hieb & Dybvig, PPoPP 1990)
Scheme with spawn / controllers / process continuations / pcall.
Type ,help for meta-commands, ,quit to exit.
"""


class Repl:
    """A line-oriented REPL with multi-line form buffering."""

    def __init__(
        self,
        interp: Interpreter | None = None,
        out: Any = None,
        *,
        deadline: float | None = None,
        eval_max_steps: int | None = None,
    ):
        self.interp = interp if interp is not None else Interpreter(echo_output=False)
        self.out = out if out is not None else sys.stdout
        self.buffer = ""
        # Per-evaluation budgets (the host-runtime mechanism): each
        # entered form gets this wall-clock allowance / step budget; a
        # miss fails that evaluation only, the REPL keeps going.
        self.deadline = deadline
        self.eval_max_steps = eval_max_steps

    # -- plumbing --------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    # -- commands ---------------------------------------------------------

    def handle_meta(self, line: str) -> bool:
        """Process a ,command; returns False when the REPL should exit."""
        parts = line[1:].split(None, 1)
        command = parts[0] if parts else "help"
        argument = parts[1].strip() if len(parts) > 1 else ""
        if command in ("quit", "q", "exit"):
            return False
        if command == "help":
            self._print(__doc__ or "")
        elif command == "examples":
            for name, (_, kind) in paper_examples.ALL.items():
                self._print(f"  {name:32s} ({kind})")
        elif command == "load":
            if not argument:
                self._print("usage: ,load <example-name>")
            else:
                try:
                    self.interp.load_paper_example(argument)
                    self._print(f"loaded {argument}")
                except KeyError:
                    self._print(f"unknown example: {argument} (try ,examples)")
                except ValueError as exc:
                    self._print(str(exc))
        elif command == "stats":
            self._print(f"  {'engine':16s} {self.interp.engine}")
            for key, value in self.interp.stats.items():
                self._print(f"  {key:16s} {value}")
        elif command == "tree":
            from repro.machine.inspect import tree_summary

            summary = tree_summary(self.interp.machine.root_entity)
            for key, value in summary.items():
                self._print(f"  {key:12s} {value}")
        elif command == "trace":
            if not argument:
                self._print("usage: ,trace <expression>")
            else:
                from repro.machine.trace import Tracer

                with Tracer(self.interp.machine) as tracer:
                    self.eval_and_print(argument)
                self._print(tracer.render())
        elif command == "analyze":
            if not argument:
                self._print("usage: ,analyze <expression>")
            else:
                from repro.analysis import spawn_report

                try:
                    self._print(spawn_report(argument))
                except ReproError as exc:
                    self._print(f"error: {exc}")
        elif command == "codegen":
            if not argument:
                self._print("usage: ,codegen <expression>")
            else:
                self._show_codegen(argument)
        else:
            self._print(f"unknown command ,{command} (try ,help)")
        return True

    def _show_codegen(self, source: str) -> None:
        """,codegen — the emitted Python for each top-level form, plus
        the ir-hash code-cache verdict (the form is expanded and
        resolved against this REPL's live session)."""
        from repro.expander import expand_program
        from repro.ir import resolve_program, stable_hash
        from repro.ir.codegen import cache_info, emitted_source, is_cached

        session = self.interp
        try:
            forms = read_all(source)
            nodes = expand_program(forms, session.expand_env)
            nodes = resolve_program(nodes, session.globals)
            for node in nodes:
                digest = stable_hash(node)
                status = "hit" if is_cached(node) else "miss"
                self._print(f"; ir-hash {digest[:16]}… cache {status}")
                self._print(emitted_source(node))
        except ReproError as exc:
            self._print(f"error: {exc}")
            return
        info = cache_info()
        self._print(f"; code cache {info['size']}/{info['capacity']} entries")

    def eval_and_print(self, source: str) -> None:
        try:
            values = self.interp.run(
                source, max_steps=self.eval_max_steps, deadline=self.deadline
            )
        except ReproError as exc:
            self._print(f"error: {exc}")
            return
        except RecursionError:
            self._print("error: expansion recursion limit")
            return
        output = self.interp.output_text()
        if output:
            self._print(output.rstrip("\n"))
            self.interp.clear_output()
        for value in values:
            if value is not UNSPECIFIED and value is not None:
                self._print(scheme_repr(value))

    # -- loop --------------------------------------------------------------

    def feed_line(self, line: str) -> bool:
        """Feed one input line; returns False when the REPL should exit."""
        if not self.buffer and line.strip().startswith(","):
            return self.handle_meta(line.strip())
        self.buffer += line + "\n"
        try:
            read_all(self.buffer)
        except IncompleteInput:
            return True  # the next line may finish the datum
        except ReaderError:
            pass  # evaluating the buffer reports the error
        source, self.buffer = self.buffer, ""
        if source.strip():
            self.eval_and_print(source)
        return True

    def prompt(self) -> str:
        return "... " if self.buffer else ">>> "

    def run_interactive(self) -> None:  # pragma: no cover - terminal loop
        self._print(_BANNER)
        while True:
            try:
                line = input(self.prompt())
            except EOFError:
                self._print()
                return
            except KeyboardInterrupt:
                self._print("\n(interrupted; buffer cleared)")
                self.buffer = ""
                continue
            if not self.feed_line(line):
                return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scheme with process continuations (Hieb & Dybvig 1990)",
    )
    parser.add_argument("file", nargs="?", help="Scheme file to run")
    parser.add_argument("-e", "--eval", dest="expr", help="evaluate and print")
    parser.add_argument("--examples", action="store_true", help="list paper examples")
    parser.add_argument(
        "--policy",
        default="round-robin",
        choices=["round-robin", "random", "serial"],
        help="pcall scheduling policy",
    )
    parser.add_argument("--seed", type=int, default=None, help="random-policy seed")
    parser.add_argument(
        "--max-steps", type=int, default=None, help="machine step budget (lifetime)"
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-evaluation wall-clock deadline; a miss fails that "
        "evaluation only (the host-runtime budget mechanism)",
    )
    parser.add_argument(
        "--eval-max-steps",
        type=int,
        default=None,
        metavar="N",
        help="per-evaluation step budget, enforced exactly (raises "
        "StepBudgetExceeded for that evaluation only)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=["compiled", "codegen"],
        help="execution engine: 'compiled' (default; resolved IR "
        "closure-compiled to code thunks) or 'codegen' (resolved IR "
        "emitted as Python source, compile()d once and cached by "
        "ir-hash)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="keep VM run-loop counters (quanta, spill causes, "
        "write-backs avoided); shown by ,stats",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record control events and quantum timings (repro.obs) "
        "and write a chrome://tracing / Perfetto JSON trace to PATH "
        "on exit",
    )
    args = parser.parse_args(argv)

    if args.examples:
        for name, (_, kind) in paper_examples.ALL.items():
            print(f"  {name:32s} ({kind})")
        return 0

    interp = Interpreter(
        policy=args.policy,
        seed=args.seed,
        max_steps=args.max_steps,
        echo_output=False,
        engine=args.engine,
        profile=args.profile,
        record=args.trace_out is not None,
    )
    repl = Repl(interp, deadline=args.deadline, eval_max_steps=args.eval_max_steps)

    def finish() -> int:
        if args.trace_out is not None and interp.recorder is not None:
            import json

            with open(args.trace_out, "w", encoding="utf-8") as out:
                json.dump(interp.recorder.to_chrome_trace(), out)
            print(
                f"wrote {len(interp.recorder)} events to {args.trace_out} "
                "(open in chrome://tracing or ui.perfetto.dev)",
                file=sys.stderr,
            )
        return 0

    if args.expr is not None:
        repl.eval_and_print(args.expr)
        return finish()
    if args.file is not None:
        with open(args.file) as handle:
            source = handle.read()
        repl.eval_and_print(source)
        return finish()
    try:
        repl.run_interactive()  # pragma: no cover - terminal loop
    finally:
        finish()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
