"""Instrumentable IR interpreter (the reference executor), heap model,
events, profiler, and the Python-source codegen execution backend."""

from repro.interp.backend import (
    CompileError,
    create_executor,
    create_profiling_executor,
)
from repro.interp.codegen import (
    CodegenExecutor,
    CodegenProgram,
    codegen_stats,
    compile_module_codegen,
)
from repro.interp.events import Location, LoopCtx, Observer
from repro.interp.interpreter import Interpreter, RuntimeHooks
from repro.interp.profiler import Profiler
from repro.interp.values import (
    ArrayObj,
    Heap,
    MiniCRuntimeError,
    StructObj,
    format_value,
    truthy,
)

__all__ = [
    "ArrayObj",
    "CodegenExecutor",
    "CodegenProgram",
    "CompileError",
    "Heap",
    "Interpreter",
    "Location",
    "LoopCtx",
    "MiniCRuntimeError",
    "Observer",
    "Profiler",
    "RuntimeHooks",
    "StructObj",
    "codegen_stats",
    "compile_module_codegen",
    "create_executor",
    "create_profiling_executor",
    "format_value",
    "truthy",
]
