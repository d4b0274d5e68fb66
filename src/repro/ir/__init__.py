"""Core intermediate representation.

The expander lowers every surface form into the eight node types defined
in :mod:`repro.ir.nodes`.  The resolver (:mod:`repro.ir.resolve`) then
optionally rewrites variable references into lexically addressed /
global-cell forms — four further node types the machine evaluates with
no run-time name lookup.  The closure compiler (:mod:`repro.ir.compile`)
can go one step further and translate resolved IR into executable code
thunks, removing node dispatch from the machine's hot loop entirely.
The abstract machine evaluates exactly this IR (or its compiled form);
nothing downstream ever sees surface syntax or macros.
"""

from repro.ir.nodes import (
    Node,
    Const,
    Var,
    Lambda,
    App,
    If,
    SetBang,
    Seq,
    DefineTop,
    Pcall,
    LocalRef,
    LocalSet,
    GlobalRef,
    GlobalSet,
)
from repro.ir.free_vars import free_variables
from repro.ir.hashing import stable_hash
from repro.ir.pretty import pretty
from repro.ir.resolve import ResolverStats, resolve_node, resolve_program

# Imported last: repro.ir.compile and repro.ir.codegen depend on
# repro.machine (down to repro.machine.step, whose apply_deliver the
# emitted code calls), which in turn imports repro.ir — by this point
# every name above is bound, so importing repro.ir first (as the
# package root does) resolves the cycle.
from repro.ir.compile import CompileStats, compile_node, compile_program
from repro.ir.codegen import CodegenStats, codegen_node, codegen_program

__all__ = [
    "Node",
    "Const",
    "Var",
    "Lambda",
    "App",
    "If",
    "SetBang",
    "Seq",
    "DefineTop",
    "Pcall",
    "LocalRef",
    "LocalSet",
    "GlobalRef",
    "GlobalSet",
    "free_variables",
    "pretty",
    "stable_hash",
    "ResolverStats",
    "resolve_node",
    "resolve_program",
    "CompileStats",
    "compile_node",
    "compile_program",
    "CodegenStats",
    "codegen_node",
    "codegen_program",
]
