"""Execution-backend selection: the seam between callers and executors.

Two implementations of MiniC semantics exist: the tree-walking
:class:`~repro.interp.interpreter.Interpreter` (the reference, and the
only executor that drives observers, the instruction profiler and
obs-enabled runs) and the Python-source codegen backend
(:mod:`repro.interp.codegen`, the default for every other run).  This
module alone holds the policy that picks between them:

* the ``exec_backend`` setting (:mod:`repro.env`) — explicit name,
  then ``REPRO_EXEC_BACKEND``, then ``codegen``;
* :func:`create_executor` — codegen only when it is exactly faithful
  (no observers, no profiler, observability disabled, module accepted
  by the emitter); the interpreter otherwise;
* :func:`create_profiling_executor` — codegen's profiling lowering for
  the dependence-profiling run, with the same fallbacks.

Reports produced under either backend are byte-identical; the
differential fuzz harness and ``benchmarks/test_codegen_backend_speedup``
enforce it.
"""

from __future__ import annotations

from typing import Optional

import repro.obs as obs
from repro.env import resolve
from repro.interp.interpreter import Interpreter, RuntimeHooks
from repro.interp.values import MiniCRuntimeError
from repro.ir.function import Module

__all__ = [
    "CompileError",
    "create_executor",
    "create_profiling_executor",
]

# The five DCA intrinsic names, mirrored from repro.core.instrument
# (string literals here to keep interp free of a core dependency).
_RT_RECORD = "rt_iterator_record"
_RT_PERMUTE = "rt_iterator_permute"
_RT_NEXT = "rt_iterator_next"
_RT_GET = "rt_iterator_get"
_RT_VERIFY = "rt_verify"


class CompileError(Exception):
    """Raised when a module cannot be compiled by the codegen backend.

    Callers treat this as "use the interpreter instead" — compilation is
    an optimization, never a semantic requirement.
    """


def _fdiv(a: object, b: object) -> object:
    if b == 0:
        raise MiniCRuntimeError("float division by zero")
    return a / b


def create_executor(
    module: Module,
    runtime: Optional[RuntimeHooks] = None,
    observers=None,
    profiler=None,
    max_steps: Optional[int] = None,
    exec_backend: Optional[str] = None,
    obs_enabled: Optional[bool] = None,
):
    """Build an executor for ``module`` honouring the fallback rules.

    The codegen backend is used only when it can be *exactly* faithful:
    no memory/loop observers, no profiler, and the observability context
    disabled (the interpreter tallies per-run instruction and intrinsic
    metrics that compiled execution does not reproduce).  Everything
    else — including a module the emitter rejects — gets the
    tree-walking interpreter.  Dependence-profiling runs go through
    :func:`create_profiling_executor` instead, which keeps them on
    codegen.
    """
    backend = resolve("exec_backend", exec_backend)
    ctx = obs.current()
    if backend == "codegen":
        if observers:
            ctx.count("exec.fallback.observers")
        elif profiler is not None:
            ctx.count("exec.fallback.profiler")
        else:
            if obs_enabled is None:
                obs_enabled = ctx.enabled
            if obs_enabled:
                ctx.count("exec.fallback.obs-enabled")
            else:
                # Imported lazily: codegen imports this module's helpers.
                from repro.interp.codegen import (
                    CodegenExecutor,
                    compile_module_codegen,
                )

                try:
                    executor = CodegenExecutor(
                        compile_module_codegen(module),
                        runtime=runtime,
                        max_steps=max_steps,
                    )
                except CompileError:
                    ctx.count("exec.fallback.compile-error")
                else:
                    ctx.count("exec.backend.codegen")
                    return executor
    ctx.count("exec.backend.interp")
    return Interpreter(
        module,
        runtime=runtime,
        observers=observers,
        profiler=profiler,
        max_steps=max_steps,
    )


def create_profiling_executor(
    module: Module,
    profiler,
    max_steps: Optional[int] = None,
    exec_backend: Optional[str] = None,
    obs_enabled: Optional[bool] = None,
):
    """Build the executor for one dependence-profiling run of ``module``.

    Under the codegen backend with the observability context disabled,
    this is codegen's profiling lowering, which calls ``profiler``'s
    hooks (a :class:`~repro.analysis.dynamic_deps.DynamicDepProfiler`)
    from the generated code.  The interpreter backend, an enabled
    context, and a module the emitter rejects get the interpreter with
    ``profiler`` as its observer — the reference implementation the
    lowering is tested against.
    """
    if obs_enabled is None:
        obs_enabled = obs.current().enabled
    if resolve("exec_backend", exec_backend) == "codegen" and not obs_enabled:
        from repro.interp.codegen import (
            CodegenExecutor,
            compile_module_codegen,
        )

        try:
            return CodegenExecutor(
                compile_module_codegen(module, profiling=True),
                max_steps=max_steps,
                profiler=profiler,
            )
        except CompileError:
            pass
    return Interpreter(module, observers=[profiler], max_steps=max_steps)
