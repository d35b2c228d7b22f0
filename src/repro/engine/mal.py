"""A MAL-like physical program layer with run-time plan rewriting.

MonetDB compiles SQL into MAL ("MonetDB Assembly Language") programs that a
rule-driven interpreter evaluates; the paper's implementation *"enabled
dynamic rewrite of MAL plans during query evaluation ... similar to
self-modifying programs"* (Section V).

We mirror that with :class:`MalProgram`: a flat list of instructions run by
a program counter.  Two instruction kinds matter for the paper:

* :class:`EvalPlan` — evaluate a logical (sub)plan and bind its result to a
  variable (stage one binds ``result-scan(Qf)`` this way);
* :class:`CallRuntimeOptimizer` — hand control to a callback that may
  *rewrite every instruction after the program counter* before execution
  resumes (this is where scan(D) becomes the union of chunk accesses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import algebra
from .errors import ExecutionError
from .physical import ExecutionContext, execute_plan
from .table import Table

__all__ = [
    "MalInstruction",
    "EvalPlan",
    "CallRuntimeOptimizer",
    "ReturnValue",
    "MalProgram",
]


class MalInstruction:
    """One statement of a MAL program."""

    def execute(self, ctx: ExecutionContext, program: "MalProgram") -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class EvalPlan(MalInstruction):
    """``var := evaluate(plan)`` — binds a sub-plan result to a variable.

    The result lands in ``ctx.stage_results[var]`` so later plans can read
    it back through ``ResultScan(var)``.
    """

    var: str
    plan: algebra.LogicalPlan

    def execute(self, ctx: ExecutionContext, program: "MalProgram") -> None:
        ctx.stage_results[self.var] = execute_plan(self.plan, ctx)

    def describe(self) -> str:
        return f"{self.var} := eval\n{self.plan.pretty(1)}"


@dataclass
class CallRuntimeOptimizer(MalInstruction):
    """Invoke a run-time optimizer over the *remaining* program.

    ``callback(ctx, program, next_pc)`` receives the program and the index
    of the first not-yet-executed instruction; it may replace the program
    from ``next_pc`` onward (the self-modifying-program step of Section V).
    ``input_var`` names the stage-one result the optimizer inspects
    (``result-scan(Qf)``).
    """

    callback: Callable[[ExecutionContext, "MalProgram", int], None]
    input_var: str

    def execute(self, ctx: ExecutionContext, program: "MalProgram") -> None:
        if self.input_var not in ctx.stage_results:
            raise ExecutionError(
                f"runtime optimizer input {self.input_var!r} not bound"
            )
        self.callback(ctx, program, program.pc)

    def describe(self) -> str:
        return f"call runtime-optimizer({self.input_var})"


@dataclass
class ReturnValue(MalInstruction):
    """Mark a variable as the program's result."""

    var: str

    def execute(self, ctx: ExecutionContext, program: "MalProgram") -> None:
        if self.var not in ctx.stage_results:
            raise ExecutionError(f"return of unbound variable {self.var!r}")
        program.result_var = self.var

    def describe(self) -> str:
        return f"return {self.var}"


class MalProgram:
    """A flat, interpretable, rewritable physical program."""

    def __init__(self, instructions: Sequence[MalInstruction]) -> None:
        self.instructions: list[MalInstruction] = list(instructions)
        self.pc = 0
        self.result_var: str | None = None

    def replace_from(self, start: int, new_tail: Sequence[MalInstruction]) -> None:
        """Replace ``instructions[start:]``; only unexecuted code may change."""
        if start < self.pc:
            raise ExecutionError("cannot rewrite already-executed instructions")
        self.instructions[start:] = list(new_tail)

    def run(self, ctx: ExecutionContext) -> Table:
        """Interpret the program; returns the table bound by ReturnValue."""
        self.pc = 0
        self.result_var = None
        while self.pc < len(self.instructions):
            instruction = self.instructions[self.pc]
            self.pc += 1
            instruction.execute(ctx, self)
        if self.result_var is None:
            raise ExecutionError("MAL program finished without a return")
        return ctx.stage_results[self.result_var]

    def listing(self) -> str:
        """Printable program listing (examples & debugging)."""
        lines = []
        for i, instruction in enumerate(self.instructions):
            lines.append(f"[{i:02d}] {instruction.describe()}")
        return "\n".join(lines)
