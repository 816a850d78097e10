"""Dynamic memory-dependence profiler tests.

The interpreter (profiler attached as an observer) is the reference; the
codegen backend's profiling lowering must record exactly the same facts
on every suite and corpus program and on the loop shapes that stress
its statically resolved loop events.
"""

import glob
import os

import pytest

from repro import compile_program
from repro.analysis.dynamic_deps import DynamicDepProfiler
from repro.benchsuite import ALL_BENCHMARKS
from repro.interp.codegen import CodegenExecutor
from repro.interp.backend import create_profiling_executor
from repro.interp.interpreter import Interpreter
from repro.interp.values import MiniCRuntimeError

CORPUS = sorted(
    glob.glob(
        os.path.join(os.path.dirname(__file__), "fuzz", "corpus", "*.mc")
    )
)


def profile(source):
    module = compile_program(source)
    profiler = DynamicDepProfiler(module)
    Interpreter(module, observers=[profiler]).run()
    return profiler


def test_map_loop_has_no_cross_iteration_edges():
    profiler = profile(
        "func void main() { int[] a = new int[8];"
        " for (int i = 0; i < 8; i = i + 1) { a[i] = i; } print(a[0]); }"
    )
    deps = profiler.deps_for("main.L0")
    assert not deps.cross_iteration_edges()
    assert "main.L0" in profiler.executed


def test_recurrence_produces_cross_iteration_raw():
    profiler = profile(
        "func void main() { int[] a = new int[8]; a[0] = 1;"
        " for (int i = 1; i < 8; i = i + 1) { a[i] = a[i - 1] + 1; }"
        " print(a[7]); }"
    )
    deps = profiler.deps_for("main.L0")
    raw = deps.cross_iteration_edges("raw")
    assert raw
    # Writer and reader both attribute to sites inside main.
    assert all(e.writer[0] == "main" and e.reader[0] == "main" for e in raw)


def test_same_iteration_rmw_not_cross():
    profiler = profile(
        "func void main() { int[] a = new int[8];"
        " for (int i = 0; i < 8; i = i + 1) { a[i] = a[i] + 1; }"
        " print(a[0]); }"
    )
    deps = profiler.deps_for("main.L0")
    assert not deps.cross_iteration_edges("raw")


def test_histogram_has_cross_iteration_raw():
    profiler = profile(
        "func void main() { int[] h = new int[2];"
        " for (int i = 0; i < 8; i = i + 1) { h[i % 2] += 1; }"
        " print(h[0]); }"
    )
    deps = profiler.deps_for("main.L0")
    assert deps.cross_iteration_edges("raw")


def test_callee_accesses_attributed_to_call_site():
    profiler = profile(
        """
        struct Cell { int v; }
        func void bump(Cell* c) { c->v = c->v + 1; }
        func void main() {
          Cell* c = new Cell;
          for (int i = 0; i < 4; i = i + 1) { bump(c); }
          print(c->v);
        }
        """
    )
    deps = profiler.deps_for("main.L0")
    raw = deps.cross_iteration_edges("raw")
    assert raw
    # Attribution lifts the access out of bump() to the call inside main.
    assert all(e.writer[0] == "main" for e in raw)


def test_privatizable_location():
    profiler = profile(
        "func void main() { int[] tmp = new int[1]; int s = 0;"
        " for (int i = 0; i < 6; i = i + 1) { tmp[0] = i * 2; s = s + tmp[0]; }"
        " print(s); }"
    )
    deps = profiler.deps_for("main.L0")
    # tmp[0] causes cross-iteration WAW/WAR but is written-before-read in
    # every iteration: privatizable.
    cross = deps.cross_iteration_edges("waw") + deps.cross_iteration_edges("war")
    assert cross
    for edge in cross:
        assert profiler.is_privatizable("main.L0", edge.loc)


def test_read_before_write_is_not_privatizable():
    profiler = profile(
        "func void main() { int[] cell = new int[1]; cell[0] = 1; int s = 0;"
        " for (int i = 0; i < 6; i = i + 1) { s = s + cell[0]; cell[0] = i; }"
        " print(s); }"
    )
    deps = profiler.deps_for("main.L0")
    raw = deps.cross_iteration_edges("raw")
    assert raw
    assert not profiler.is_privatizable("main.L0", raw[0].loc)


def test_edges_scoped_to_invocation():
    # Writes from a previous invocation of the loop do not create edges.
    profiler = profile(
        """
        func void main() {
          int[] a = new int[4];
          for (int r = 0; r < 2; r = r + 1) {
            for (int i = 0; i < 4; i = i + 1) { a[i] = a[i] + r; }
          }
          print(a[0]);
        }
        """
    )
    inner = profiler.deps_for("main.L1")
    assert not inner.cross_iteration_edges("raw")
    # The outer loop *does* carry the dependence across its iterations.
    outer = profiler.deps_for("main.L0")
    assert outer.cross_iteration_edges("raw")


def test_memory_flow_edges_exported_per_label():
    profiler = profile(
        "func void main() { int[] a = new int[4]; a[0] = 1;"
        " for (int i = 1; i < 4; i = i + 1) { a[i] = a[i - 1]; }"
        " print(a[3]); }"
    )
    flows = profiler.memory_flow_edges()
    assert "main.L0" in flows
    assert all(len(edge) == 2 for edge in flows["main.L0"])


# -- codegen profiling lowering vs the interpreter ---------------------------


def run_profile(module, exec_backend, full=True, max_steps=None):
    """(profiler, executor, fault message or None) of one profiled run."""
    profiler = DynamicDepProfiler(module, full=full)
    executor = create_profiling_executor(
        module, profiler, max_steps=max_steps, exec_backend=exec_backend,
        obs_enabled=False,
    )
    try:
        executor.run()
        fault = None
    except MiniCRuntimeError as exc:
        fault = str(exc)
    return profiler, executor, fault


def assert_profile_parity(module, max_steps=None):
    """Codegen-profiled facts == interpreter-profiled facts, full and
    flow-only; returns the interpreter's full profiler and fault."""
    ref, ref_exec, ref_fault = run_profile(module, "interp", max_steps=max_steps)
    got, got_exec, got_fault = run_profile(module, "codegen", max_steps=max_steps)
    assert isinstance(ref_exec, Interpreter)
    assert isinstance(got_exec, CodegenExecutor)
    assert got_fault == ref_fault
    assert got_exec.steps == ref_exec.steps
    assert got.facts() == ref.facts()

    full = ref.facts()
    flow_only = {key: full[key] for key in ("max_trips", "executed", "memory_flow")}
    for backend in ("interp", "codegen"):
        raw, _, raw_fault = run_profile(
            module, backend, full=False, max_steps=max_steps
        )
        assert raw_fault == ref_fault
        assert raw.facts() == flow_only
    return ref, ref_fault


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_codegen_profile_parity_suite(bench):
    ref, fault = assert_profile_parity(bench.compile(fresh=True))
    assert ref.executed and fault is None


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_codegen_profile_parity_corpus(path):
    with open(path) as fh:
        assert_profile_parity(compile_program(fh.read()))


def test_codegen_profile_parity_return_from_helper_loop():
    # find() returns from inside its own loop: the codegen return must
    # unwind that loop off the profiler's stack before main's loop
    # carries on, exactly like the interpreter's frame unwinding.
    ref, _ = assert_profile_parity(compile_program(
        """
        func int find(int[] a, int key) {
          for (int i = 0; i < len(a); i = i + 1) {
            if (a[i] == key) { return i; }
          }
          return -1;
        }
        func void main() {
          int[] a = new int[8]; int[] hits = new int[8];
          for (int i = 0; i < 8; i = i + 1) { a[i] = (i * 5) % 8; }
          for (int k = 0; k < 8; k = k + 1) {
            int j = find(a, k);
            hits[j] = hits[j] + k;
          }
          print(hits[0]);
        }
        """
    ))
    assert ref.max_trips["find.L0"] == 7
    assert ref.max_trips["main.L1"] == 8


def test_codegen_profile_parity_recursion_in_loop():
    # Recursive calls re-enter the same loop label at a new invocation
    # while the outer invocation stays on the stack.
    ref, _ = assert_profile_parity(compile_program(
        """
        struct Acc { int total; }
        func void walk(Acc* acc, int[] a, int depth) {
          for (int i = 0; i < 3; i = i + 1) {
            acc.total = acc.total + a[depth];
            if (depth < 3) { walk(acc, a, depth + 1); }
          }
        }
        func void main() {
          Acc* acc = new Acc;
          int[] a = new int[4];
          for (int i = 0; i < 4; i = i + 1) { a[i] = i + 1; walk(acc, a, i); }
          print(acc.total);
        }
        """
    ))
    assert ref.max_trips["walk.L0"] == 3
    assert ref.deps_for("walk.L0").cross_iteration_edges("raw")


def test_codegen_profile_parity_break_out_of_nested_loop():
    ref, _ = assert_profile_parity(compile_program(
        """
        func void main() {
          int[] grid = new int[16]; int found = 0;
          for (int r = 0; r < 4; r = r + 1) {
            for (int c = 0; c < 4; c = c + 1) {
              grid[r * 4 + c] = grid[r * 4 + c] + r + c;
              if (c == r) { break; }
            }
            found = found + grid[r * 4];
          }
          int i = 0;
          while (true) {
            for (int j = 0; j < 4; j = j + 1) {
              if (grid[j] > 2) { break; }
              grid[j] = grid[j] + 1;
            }
            i = i + 1;
            if (i == 3) { break; }
          }
          print(found);
        }
        """
    ))
    assert ref.max_trips["main.L1"] == 3


def test_codegen_profile_parity_fault_in_callee_loop():
    # The fault surfaces mid-loop inside a callee; the message, the steps
    # charged and every fact recorded up to it must match.
    _, fault = assert_profile_parity(compile_program(
        """
        func int pick(int[] a, int k) {
          int s = 0;
          for (int i = 0; i <= k; i = i + 1) { s = s + a[i]; }
          return s;
        }
        func void main() {
          int[] a = new int[4]; int t = 0;
          for (int k = 0; k < 6; k = k + 1) { a[k % 4] = k; t = t + pick(a, k); }
          print(t);
        }
        """
    ))
    assert fault.startswith("index 4 out of bounds")


def test_codegen_profile_parity_step_limit():
    _, fault = assert_profile_parity(
        compile_program(
            "func void main() { int[] a = new int[4];"
            " for (int i = 0; i < 100; i = i + 1) { a[i % 4] = a[(i + 1) % 4] + i; }"
            " print(a[0]); }"
        ),
        max_steps=150,
    )
    assert fault == "step limit exceeded"


def test_flow_only_profile_refuses_full_queries():
    module = compile_program(
        "func void main() { int[] a = new int[4];"
        " for (int i = 1; i < 4; i = i + 1) { a[i] = a[i - 1]; } print(a[3]); }"
    )
    profiler, _, _ = run_profile(module, "codegen", full=False)
    assert profiler.memory_flow_edges()["main.L0"]
    with pytest.raises(ValueError):
        profiler.deps_for("main.L0")
    with pytest.raises(ValueError):
        profiler.is_privatizable("main.L0", ("a", 1, 0))
