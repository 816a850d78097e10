"""Python-source codegen execution backend: parity with the interpreter.

The codegen backend's contract is *exact* observable equivalence with
the reference tree-walking interpreter — same results, same printed
output, same step accounting, and byte-identical fault messages.  These
tests drive both executors over the same programs and compare
everything, then cover the rest of the backend's surface: the selection
seam, the digest-keyed program cache, the on-disk artifact cache
(warm loads, tamper detection) and pickling of codegen tasks into
process workers.
"""

import glob
import json
import os

import pytest

from repro.cache.keys import module_source_digest
from repro.core.dca import DcaAnalyzer
from repro.core.runtime import DcaRuntime
from repro.driver import compile_program, run_program
from repro.env import EXEC_BACKENDS, codegen_cache_dir
from repro.interp import (
    CodegenExecutor,
    CompileError,
    Interpreter,
    MiniCRuntimeError,
    compile_module_codegen,
    create_executor,
)
from repro.interp.codegen import (
    _PROGRAM_CACHE,
    _PROGRAM_CACHE_MAX,
    _artifact_path,
    codegen_source,
    codegen_stats,
)
from repro.interp.events import Observer
from repro.interp.interpreter import RuntimeHooks
from repro.interp.profiler import Profiler
from repro.ir.printer import format_module

EXEC_BACKEND_ENV = "REPRO_EXEC_BACKEND"
CODEGEN_CACHE_ENV = "REPRO_CODEGEN_CACHE_DIR"

CORPUS = sorted(
    glob.glob(
        os.path.join(os.path.dirname(__file__), "fuzz", "corpus", "*.mc")
    )
)


def _zero():
    return 0.0


def _outcome(executor, entry, args):
    try:
        result = executor.run(entry, args)
        return ("ok", result, executor.output_text(), executor.steps)
    except MiniCRuntimeError as exc:
        return ("fault", str(exc), executor.output_text(), executor.steps)


def assert_parity(source, entry="main", args=None, max_steps=None):
    module = compile_program(source)
    interp = Interpreter(module, max_steps=max_steps)
    codegen = CodegenExecutor(module, max_steps=max_steps)
    oi = _outcome(interp, entry, list(args or []))
    oc = _outcome(codegen, entry, list(args or []))
    assert oi == oc, f"backend divergence:\ninterp  {oi}\ncodegen {oc}"
    return oi


# -- result / output / step / fault parity -----------------------------------


def test_arithmetic_parity():
    kind, result, out, steps = assert_parity(
        """
        func int main() {
            int acc = 0;
            for (int i = 0; i < 10; i = i + 1) { acc = acc + i * i; }
            print(acc, 7 / 2, -7 / 2, 7 % 3, -7 % 3, 1.0 / 4.0);
            return acc;
        }
        """
    )
    assert kind == "ok" and result == 285


def test_heap_program_parity():
    assert_parity(
        """
        struct Node { int value; Node* next; }
        func int main() {
            Node* head = null;
            for (int i = 0; i < 8; i = i + 1) {
                Node* n = new Node; n.value = i; n.next = head; head = n;
            }
            int total = 0;
            while (head != null) { total = total + head.value; head = head.next; }
            int[] a = new int[5];
            for (int i = 0; i < len(a); i = i + 1) { a[i] = total + i; }
            print(total, a[0], a[4]);
            return total;
        }
        """
    )


def test_step_counts_identical():
    src = """
    func int work(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
        return acc;
    }
    func int main() { return work(50) + work(7); }
    """
    kind, result, _out, steps = assert_parity(src)
    assert kind == "ok" and result == 1225 + 21 and steps > 0


def test_call_chain_step_parity():
    src = """
    func int leaf(int x) { return x * 3 + 1; }
    func int mid(int x) { return leaf(x) + leaf(x - 1); }
    func int main() {
        int acc = 0;
        for (int i = 0; i < 20; i = i + 1) { acc = acc + mid(i); }
        return acc;
    }
    """
    module = compile_program(src)
    interp = Interpreter(module)
    codegen = CodegenExecutor(module)
    assert interp.run("main", []) == codegen.run("main", [])
    assert interp.steps == codegen.steps


FAULT_PROGRAMS = [
    ("null deref read", "struct P { int x; }\nfunc int main() { P* p = null; return p.x; }"),
    ("null deref write", "struct P { int x; }\nfunc void main() { P* p = null; p.x = 1; }"),
    ("null array read", "func int main() { int[] a = null; return a[0]; }"),
    ("null array write", "func void main() { int[] a = null; a[0] = 1; }"),
    ("oob read", "func int main() { int[] a = new int[3]; return a[3]; }"),
    ("oob write", "func void main() { int[] a = new int[3]; a[0 - 1] = 9; }"),
    ("int div by zero", "func int main() { int z = 0; return 1 / z; }"),
    ("int mod by zero", "func int main() { int z = 0; return 1 % z; }"),
    ("float div by zero", "func float main() { float z = 0.0; return 1.0 / z; }"),
    ("len of null", "func int main() { int[] a = null; return len(a); }"),
    ("negative array length", "func void main() { int n = 0 - 2; int[] a = new int[n]; }"),
    ("builtin domain error", "func float main() { float x = 0.0 - 1.0; return sqrt(x); }"),
]


@pytest.mark.parametrize(
    "source", [p[1] for p in FAULT_PROGRAMS], ids=[p[0] for p in FAULT_PROGRAMS]
)
def test_fault_message_parity(source):
    kind, message, _out, _steps = assert_parity(source)
    assert kind == "fault"


def test_fault_messages_include_line_numbers():
    src = "struct P { int x; }\nfunc int main() { P* p = null;\n    return p.x; }"
    kind, message, _o, _s = assert_parity(src)
    assert kind == "fault"
    assert "null dereference reading .x (line 3)" == message


def test_undefined_register_message_parity():
    # A loop body that reads a register only written on a path the
    # schedule never took surfaces as the interpreter's undefined-read
    # fault; codegen maps the natural UnboundLocalError back to the
    # same message.
    src = """
    func int main() {
        int acc = 0;
        for (int i = 0; i < 4; i = i + 1) {
            int v = 0;
            if (i > 1) { v = i; }
            acc = acc + v;
        }
        return acc;
    }
    """
    assert_parity(src)


def test_step_limit_parity():
    src = "func void main() { while (true) { } }"
    kind, message, _o, steps = assert_parity(src, max_steps=500)
    assert kind == "fault"
    assert message == "step limit exceeded"


def test_step_limit_fires_at_same_step():
    src = """
    func int main() {
        int acc = 0;
        for (int i = 0; i < 100; i = i + 1) { acc = acc + 1; }
        return acc;
    }
    """
    module = compile_program(src)
    baseline = Interpreter(module)
    baseline.run("main", [])
    for budget in (baseline.steps - 1, baseline.steps // 2, 7):
        oi = _outcome(Interpreter(module, max_steps=budget), "main", [])
        oc = _outcome(CodegenExecutor(module, max_steps=budget), "main", [])
        assert oi == oc
        assert oi[0] == "fault" and oi[1] == "step limit exceeded"


def test_step_limit_exhausts_mid_nested_loop():
    # The step_burner fuzz archetype shape: a nested busy loop where a
    # small budget dies mid-inner-loop; interp and codegen must agree on
    # the exact step count at the fault.
    src = """
    func int main() {
        int acc = 0;
        for (int i = 0; i < 12; i = i + 1) {
            int t = 0;
            while (t < 15) { acc = acc + (t * i) % 7; t = t + 1; }
        }
        return acc;
    }
    """
    for budget in (11, 50, 333):
        assert_parity(src, max_steps=budget)


def test_missing_entry_and_arity_messages():
    src = "func int add(int a, int b) { return a + b; }"
    module = compile_program(src)
    for make in (lambda: Interpreter(module), lambda: CodegenExecutor(module)):
        with pytest.raises(MiniCRuntimeError, match=r"no function named 'nope'"):
            make().run("nope", [])
        with pytest.raises(MiniCRuntimeError, match=r"add expects 2 args, got 1"):
            make().run("add", [1])
    assert Interpreter(module).run("add", [2, 3]) == CodegenExecutor(
        module
    ).run("add", [2, 3])


def test_intrinsic_without_runtime_message_parity():
    # Intrinsics only appear in instrumented modules; fabricate one.
    from repro.core.instrument import build_observe_module, compute_verify_spec
    from repro.analysis.purity import EffectAnalysis

    src = """
    func int main() {
        int acc = 0;
        for (int i = 0; i < 4; i = i + 1) { acc = acc + i; }
        return acc;
    }
    """
    module = compile_program(src)
    effects = EffectAnalysis(module)
    label = next(iter(next(iter(module.functions.values())).loops))
    func = module.functions["main"]
    specs = {label: compute_verify_spec(module, func, label, effects)}
    observe = build_observe_module(module, specs)
    msgs = []
    for make in (
        lambda: Interpreter(observe),
        lambda: CodegenExecutor(observe),
    ):
        with pytest.raises(MiniCRuntimeError) as exc:
            make().run("main", [])
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1]
    assert "executed without a runtime" in msgs[0]


def test_fast_intrinsics_flag_contract():
    # DcaRuntime opts into direct intrinsic dispatch; the base hook and
    # any custom runtime default to the handle_intrinsic path.
    assert DcaRuntime.fast_intrinsics is True
    assert RuntimeHooks.fast_intrinsics is False


# -- backend selection seam --------------------------------------------------


def test_codegen_in_exec_backends():
    assert EXEC_BACKENDS == ("interp", "codegen")


def test_resolve_exec_backend_codegen(monkeypatch):
    # create_executor's exec_backend=None asks the environment.
    module = compile_program("func int main() { return 41 + 1; }")

    def executor(explicit=None):
        return create_executor(module, exec_backend=explicit,
                               obs_enabled=False)

    monkeypatch.delenv(EXEC_BACKEND_ENV, raising=False)
    assert isinstance(executor(), CodegenExecutor)
    assert type(executor("interp")) is Interpreter
    monkeypatch.setenv(EXEC_BACKEND_ENV, "interp")
    assert type(executor()) is Interpreter
    # Explicit flag beats the env var.
    assert isinstance(executor("codegen"), CodegenExecutor)
    with pytest.raises(ValueError):
        executor("jit")
    monkeypatch.setenv(EXEC_BACKEND_ENV, "bogus")
    with pytest.raises(ValueError, match=EXEC_BACKEND_ENV):
        executor()


def test_create_executor_codegen_and_fallback():
    module = compile_program("func int main() { return 41 + 1; }")
    codegen = create_executor(module, exec_backend="codegen")
    assert isinstance(codegen, CodegenExecutor)
    assert codegen.run("main", []) == 42
    # Observers, profilers, and enabled obs need the interpreter's event
    # stream, so codegen falls back to it.
    assert isinstance(
        create_executor(module, observers=[Observer()], exec_backend="codegen"),
        Interpreter,
    )
    assert isinstance(
        create_executor(module, profiler=Profiler(), exec_backend="codegen"),
        Interpreter,
    )
    assert isinstance(
        create_executor(module, exec_backend="codegen", obs_enabled=True),
        Interpreter,
    )


def test_create_profiling_executor_backend_and_fallback():
    from repro.analysis.dynamic_deps import DynamicDepProfiler
    from repro.interp import create_profiling_executor

    module = compile_program("func int main() { return 41 + 1; }")

    def make(**kwargs):
        return create_profiling_executor(
            module, DynamicDepProfiler(module), **kwargs
        )

    assert isinstance(make(exec_backend="codegen", obs_enabled=False),
                      CodegenExecutor)
    # The interp backend and an enabled obs context interpret.
    for kwargs in ({"exec_backend": "interp"},
                   {"exec_backend": "codegen", "obs_enabled": True}):
        assert isinstance(make(**kwargs), Interpreter)


def test_run_program_codegen_backend():
    src = 'func void main() { print("hi", 1 + 1); }'
    assert run_program(src, exec_backend="codegen") == (None, "hi 2\n")
    assert run_program(src, exec_backend="interp") == (None, "hi 2\n")


# -- disk artifact cache -----------------------------------------------------


def _fresh(src):
    """A fresh Module object (new id) for the same source text."""
    return compile_program(src)


def _new_process():
    """Empty the in-process program cache, as a new process starts."""
    _PROGRAM_CACHE.clear()


SRC = """
func int main() {
    int acc = 0;
    for (int i = 0; i < 9; i = i + 1) { acc = acc + i * 2; }
    print(acc);
    return acc;
}
"""


def test_disk_cache_cold_then_warm(tmp_path):
    cache_dir = str(tmp_path)
    before = dict(codegen_stats())
    compile_module_codegen(_fresh(SRC), cache_dir=cache_dir)
    mid = dict(codegen_stats())
    assert mid["compiles"] - before["compiles"] == 1
    assert mid["disk_misses"] - before["disk_misses"] == 1
    digest = module_source_digest(_fresh(SRC))
    assert os.path.exists(_artifact_path(cache_dir, digest))

    # In a new process, the digest-keyed artifact serves the compile.
    _new_process()
    program = compile_module_codegen(_fresh(SRC), cache_dir=cache_dir)
    after = dict(codegen_stats())
    assert after["compiles"] == mid["compiles"]
    assert after["disk_hits"] - mid["disk_hits"] == 1
    executor = CodegenExecutor(program)
    assert executor.run("main", []) == 72
    assert executor.output_text() == "72\n"


def test_disk_cache_env_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path / "fromenv"))
    assert codegen_cache_dir(None) == str(tmp_path / "fromenv")
    # Explicit argument beats the env; empty string disables.
    assert codegen_cache_dir(str(tmp_path / "arg")) == str(tmp_path / "arg")
    assert codegen_cache_dir("") is None
    monkeypatch.delenv(CODEGEN_CACHE_ENV, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "base"))
    assert codegen_cache_dir(None) == str(tmp_path / "base" / "codegen")
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert codegen_cache_dir(None) is None


@pytest.mark.parametrize(
    "tamper",
    ["flip-payload", "truncate", "garbage", "wrong-magic"],
)
def test_disk_cache_tamper_recompiles_never_wrong(tmp_path, tamper):
    cache_dir = str(tmp_path)
    _new_process()
    compile_module_codegen(_fresh(SRC), cache_dir=cache_dir)
    digest = module_source_digest(_fresh(SRC))
    path = _artifact_path(cache_dir, digest)
    blob = open(path, "rb").read()
    if tamper == "flip-payload":
        corrupted = blob[:-3] + bytes([blob[-3] ^ 0xFF]) + blob[-2:]
    elif tamper == "truncate":
        corrupted = blob[: len(blob) // 2]
    elif tamper == "garbage":
        corrupted = b"\x00" * len(blob)
    else:
        corrupted = b"XXXX" + blob[4:]
    with open(path, "wb") as fh:
        fh.write(corrupted)

    _new_process()
    before = dict(codegen_stats())
    program = compile_module_codegen(_fresh(SRC), cache_dir=cache_dir)
    after = dict(codegen_stats())
    # The corrupt artifact is rejected (a miss, never an exception or a
    # wrong program) and the module recompiles from source.
    assert after["compiles"] - before["compiles"] == 1
    assert after["disk_misses"] - before["disk_misses"] == 1
    executor = CodegenExecutor(program)
    assert executor.run("main", []) == 72
    assert executor.output_text() == "72\n"
    # The rewrite repaired the artifact for the next cold process.
    assert open(path, "rb").read() == blob


def test_memo_from_unpersisted_compile_still_writes_artifact(
    tmp_path, monkeypatch
):
    # A program compiled while persistence was off must still leave its
    # artifact on disk once an artifact directory is configured, without
    # recompiling: the in-process hit writes the cached code through.
    import pickle

    from repro.core.schedule_engine import SerialScheduleEngine, execute_task

    monkeypatch.delenv(CODEGEN_CACHE_ENV, raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    plans = []
    run = SerialScheduleEngine.run
    monkeypatch.setattr(
        SerialScheduleEngine, "run",
        lambda engine, batch: plans.extend(batch) or run(engine, batch),
    )
    DcaAnalyzer(
        _fresh(SRC.replace("i < 9", "i < 7")), static_filter=False,
        clock=_zero, backend="serial", exec_backend="codegen",
    ).analyze()
    task = plans[0].tasks[0]
    module = _fresh(SRC)
    create_executor(module, exec_backend="codegen")
    assert execute_task(task).status == "ok"
    monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path))
    before = dict(codegen_stats())
    create_executor(module, exec_backend="codegen")
    assert execute_task(task).status == "ok"
    after = dict(codegen_stats())
    assert after["compiles"] == before["compiles"]
    assert after["memo_hits"] - before["memo_hits"] == 2
    digest = module_source_digest(module)
    assert os.path.exists(_artifact_path(str(tmp_path), digest))
    assert os.path.exists(_artifact_path(str(tmp_path), task.module_digest))
    blob_module = pickle.loads(task.module_blob)
    assert task.module_digest == module_source_digest(blob_module)


def test_profiling_lowering_has_its_own_artifact(tmp_path):
    cache_dir = str(tmp_path)
    plain = compile_module_codegen(_fresh(SRC), cache_dir=cache_dir)
    before = dict(codegen_stats())
    profiling = compile_module_codegen(
        _fresh(SRC), cache_dir=cache_dir, profiling=True
    )
    mid = dict(codegen_stats())
    assert mid["compiles"] - before["compiles"] == 1
    assert profiling.profiling and not plain.profiling
    digest = module_source_digest(_fresh(SRC))
    assert os.path.exists(_artifact_path(cache_dir, digest + "-profile"))
    assert "_p_enter" in codegen_source(_fresh(SRC), profiling=True)
    assert "_p_" not in codegen_source(_fresh(SRC))

    # Warm, in a new process: both variants load from disk, nothing
    # recompiles.
    _new_process()
    compile_module_codegen(_fresh(SRC), cache_dir=cache_dir)
    compile_module_codegen(_fresh(SRC), cache_dir=cache_dir, profiling=True)
    after = dict(codegen_stats())
    assert after["compiles"] == mid["compiles"]
    assert after["disk_hits"] - mid["disk_hits"] == 2

    # A profiling program runs with a profiler, and only then.
    from repro.analysis.dynamic_deps import DynamicDepProfiler

    with pytest.raises(ValueError):
        CodegenExecutor(profiling)
    with pytest.raises(ValueError):
        CodegenExecutor(plain, profiler=DynamicDepProfiler(plain.module))
    profiler = DynamicDepProfiler(profiling.module)
    executor = CodegenExecutor(profiling, profiler=profiler)
    assert executor.run("main", []) == 72
    assert profiler.max_trips == {"main.L0": 9}


def test_analyzer_profiles_on_codegen_and_tiering_picks_full_profile():
    # Untiered codegen analyses profile on the codegen lowering and keep
    # flow pairs only; tiering keeps the full profile for its SCC-DAG.
    src = open(next(p for p in CORPUS if "chase_cursor" in p)).read()
    reports = {}
    for tiering in (False, True):
        analyzer = DcaAnalyzer(
            compile_program(src), static_filter=False, clock=_zero,
            exec_backend="codegen", tiering=tiering,
        )
        reports[tiering] = analyzer.analyze()
        assert analyzer._dep_profiler.full is tiering
    interp = DcaAnalyzer(
        compile_program(src), static_filter=False, clock=_zero,
        exec_backend="interp", tiering=True,
    ).analyze()
    assert reports[True].to_json() == interp.to_json()
    assert {l: r.verdict for l, r in reports[False].results.items()} == {
        l: r.verdict for l, r in interp.results.items()
    }


def test_compile_module_is_cached_per_module(tmp_path):
    cache_dir = str(tmp_path)
    module = compile_program("func int main() { return 7; }")
    program = compile_module_codegen(module, cache_dir=cache_dir)
    key = (module_source_digest(module), False)
    assert key in _PROGRAM_CACHE
    # A distinct but printed-identical module gets the same program from
    # memory, without reading the disk artifact.
    twin = compile_program("func int main() { return 7; }")
    assert twin is not module
    before = dict(codegen_stats())
    assert compile_module_codegen(twin, cache_dir=cache_dir) is program
    after = dict(codegen_stats())
    assert after["memo_hits"] - before["memo_hits"] == 1
    for stat in ("compiles", "disk_hits", "disk_misses"):
        assert after[stat] == before[stat]
    # The LRU is bounded: flooding it with other modules evicts ours.
    for i in range(_PROGRAM_CACHE_MAX):
        other = compile_program(f"func int main() {{ return {i + 100}; }}")
        compile_module_codegen(other, cache_dir="")
    assert key not in _PROGRAM_CACHE
    assert len(_PROGRAM_CACHE) == _PROGRAM_CACHE_MAX
    # Recompilation after eviction still works and re-caches.
    before = dict(codegen_stats())
    again = compile_module_codegen(module, cache_dir="")
    assert codegen_stats()["compiles"] - before["compiles"] == 1
    assert again is not program
    assert CodegenExecutor(again).run("main", []) == 7
    assert key in _PROGRAM_CACHE
    assert compile_module_codegen(twin, cache_dir="") is again


def test_source_lines_are_part_of_the_digest(tmp_path):
    # Two layouts of one program print identically but fault on
    # different lines; neither may serve the other's program, from
    # memory or from disk.
    one = "struct P { int x; }\nfunc int main() { P* p = null; return p.x; }"
    two = one.replace("null; ", "null;\n    ")
    assert format_module(compile_program(one)) == format_module(
        compile_program(two)
    )
    assert module_source_digest(compile_program(one)) != module_source_digest(
        compile_program(two)
    )
    compile_module_codegen(compile_program(one), cache_dir=str(tmp_path))
    for cached in (True, False):
        if not cached:
            _new_process()
        program = compile_module_codegen(
            compile_program(two), cache_dir=str(tmp_path)
        )
        with pytest.raises(MiniCRuntimeError, match=r"\(line 3\)"):
            CodegenExecutor(program).run("main", [])


def test_program_cache_is_thread_safe():
    # More threads than cores compile overlapping modules past the LRU
    # bound with a short switch interval: every program must run right
    # and the bound must hold.
    import sys
    import threading

    errors = []

    def work(offset):
        try:
            for i in range(_PROGRAM_CACHE_MAX // 2):
                value = (offset + i) % (_PROGRAM_CACHE_MAX + 8)
                module = compile_program(
                    f"func int main() {{ return {value}; }}"
                )
                program = compile_module_codegen(module, cache_dir="")
                assert CodegenExecutor(program).run("main", []) == value
        except Exception as exc:  # reported below, with the thread's input
            errors.append((offset, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(n * 17,)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(_PROGRAM_CACHE) <= _PROGRAM_CACHE_MAX


def test_codegen_source_is_deterministic():
    a = codegen_source(compile_program(SRC))
    b = codegen_source(compile_program(SRC))
    assert a == b
    assert "def _fn_0_main" in a


def test_compile_error_for_unknown_shape():
    class Bogus:
        pass

    module = compile_program(SRC)
    module.functions["main"].blocks[
        module.functions["main"].entry
    ].instrs.insert(0, Bogus())
    with pytest.raises(CompileError):
        compile_module_codegen(module, cache_dir="")


# -- analyzer integration ----------------------------------------------------


def test_codegen_analyzer_report_matches_interp():
    src = """
    func int main() {
        int[] data = new int[16];
        int acc = 0;
        for (int i = 0; i < len(data); i = i + 1) { data[i] = i * 3; }
        for (int i = 0; i < len(data); i = i + 1) { acc = acc + data[i]; }
        print(acc);
        return acc;
    }
    """
    ri = DcaAnalyzer(
        compile_program(src), static_filter=False, clock=_zero,
        exec_backend="interp",
    ).analyze()
    rc = DcaAnalyzer(
        compile_program(src), static_filter=False, clock=_zero,
        exec_backend="codegen",
    ).analyze()
    assert ri.to_json() == rc.to_json()
    # The backend choice is run metadata, never serialized.
    assert "exec_backend" not in ri.to_json()
    assert ri.exec_backend == "interp" and rc.exec_backend == "codegen"


def test_codegen_pickles_into_process_workers():
    # Process workers receive the module as a pickled blob and compile
    # codegen programs worker-side; the report must match serial interp.
    src = open(CORPUS[0]).read()
    serial = DcaAnalyzer(
        compile_program(src), static_filter=False, clock=_zero,
        backend="serial", exec_backend="interp",
    ).analyze()
    process = DcaAnalyzer(
        compile_program(src), static_filter=False, clock=_zero,
        backend="process", jobs=2, exec_backend="codegen",
    ).analyze()
    assert serial.to_json() == process.to_json()


def test_corpus_warm_disk_replay_byte_identical(tmp_path, monkeypatch):
    # Corpus program, cold then warm artifact cache: the warm analysis
    # compiles zero modules and its report stays byte-identical to the
    # interpreter's.
    monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path))
    path = next(p for p in CORPUS if "permuted_fault" in p)
    src = open(path).read()
    interp = DcaAnalyzer(
        compile_program(src), static_filter=False, clock=_zero,
        exec_backend="interp",
    ).analyze()
    cold = DcaAnalyzer(
        compile_program(src), static_filter=False, clock=_zero,
        exec_backend="codegen",
    ).analyze()
    _new_process()
    before = dict(codegen_stats())
    warm = DcaAnalyzer(
        compile_program(src), static_filter=False, clock=_zero,
        exec_backend="codegen",
    ).analyze()
    after = dict(codegen_stats())
    assert interp.to_json() == cold.to_json() == warm.to_json()
    assert after["compiles"] == before["compiles"]
    assert after["disk_hits"] > before["disk_hits"]


def test_profile_falls_back_to_interp_on_corpus_program():
    # --profile needs the interpreter's event stream; with the codegen
    # backend requested the session must still produce correct verdicts
    # (execution falls back, analysis does not degrade).
    import repro.obs as obs
    from repro.api import AnalysisConfig, AnalysisSession

    path = CORPUS[0]
    src = open(path).read()
    with open(path.replace(".mc", ".expect.json")) as fh:
        expected = json.load(fh)
    config = AnalysisConfig(
        static_filter=False, exec_backend="codegen", obs=True,
        cache_mode="off",
    )
    try:
        with AnalysisSession(config) as session:
            report, _ctx = session.profile(src)
    finally:
        obs.disable()
    got = {label: report.results[label].verdict for label in report.results}
    assert got == expected
