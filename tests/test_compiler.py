"""The executor seam end to end: every compiling backend vs the interpreter.

``tests/test_codegen.py`` drives :class:`CodegenExecutor` directly.
These tests instead reach executors only through the public entry
points that hold the selection policy — :func:`create_executor`,
:func:`run_program` and ``DcaAnalyzer(exec_backend=...)`` — and check,
for every backend in :data:`EXEC_BACKENDS` other than the reference
interpreter, that what the seam hands out compiles the program (no
silent fallback) and is observably identical to the interpreter: same
results, printed output, step accounting and fault messages.
"""

import re

import pytest

from repro.core.dca import DcaAnalyzer
from repro.driver import compile_program, run_program
from repro.env import EXEC_BACKENDS
from repro.interp import Interpreter, MiniCRuntimeError, create_executor
from repro.interp.events import Observer
from repro.interp.profiler import Profiler

from test_codegen import FAULT_PROGRAMS

EXEC_BACKEND = "REPRO_EXEC_BACKEND"

#: Every backend the seam can select besides the reference interpreter.
COMPILING_BACKENDS = tuple(b for b in EXEC_BACKENDS if b != "interp")


def _zero():
    return 0.0


def _compiled(module, backend, max_steps=None):
    """The executor the seam builds for ``backend``; never the fallback."""
    executor = create_executor(
        module, max_steps=max_steps, exec_backend=backend, obs_enabled=False
    )
    assert not isinstance(executor, Interpreter), backend
    return executor


def _outcome(executor, entry, args):
    try:
        result = executor.run(entry, args)
        return ("ok", result, executor.output_text(), executor.steps)
    except MiniCRuntimeError as exc:
        return ("fault", str(exc), executor.output_text(), executor.steps)


def assert_parity(source, entry="main", args=None, max_steps=None):
    module = compile_program(source)
    oi = _outcome(Interpreter(module, max_steps=max_steps), entry,
                  list(args or []))
    for backend in COMPILING_BACKENDS:
        oc = _outcome(_compiled(module, backend, max_steps), entry,
                      list(args or []))
        assert oi == oc, f"divergence:\ninterp  {oi}\n{backend} {oc}"
    return oi


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
    # Any budget below the full run must fault at the identical count.
    for budget in (baseline.steps - 1, baseline.steps // 2, 7):
        kind, message, _o, _s = assert_parity(src, max_steps=budget)
        assert kind == "fault" and message == "step limit exceeded"


def test_missing_entry_and_arity_messages():
    module = compile_program("func int add(int a, int b) { return a + b; }")
    makers = [lambda: Interpreter(module)] + [
        (lambda b=b: _compiled(module, b)) for b in COMPILING_BACKENDS
    ]
    for make in makers:
        with pytest.raises(MiniCRuntimeError, match=r"no function named 'nope'"):
            make().run("nope", [])
        with pytest.raises(MiniCRuntimeError, match=r"add expects 2 args, got 1"):
            make().run("add", [1])
        assert make().run("add", [2, 3]) == 5


# -- backend selection seam --------------------------------------------------


def test_resolve_exec_backend_explicit_env_default(monkeypatch):
    # The analyzer's exec_backend=None asks the environment.
    module = compile_program("func int main() { return 1; }")

    def analyzer_backend(explicit):
        return DcaAnalyzer(module, exec_backend=explicit).exec_backend

    monkeypatch.delenv(EXEC_BACKEND, raising=False)
    assert analyzer_backend(None) == "codegen"
    monkeypatch.setenv(EXEC_BACKEND, "  ")
    assert analyzer_backend(None) == "codegen"
    # Explicit beats env for every (explicit, env) pair; env beats default.
    for env in EXEC_BACKENDS:
        monkeypatch.setenv(EXEC_BACKEND, env)
        assert analyzer_backend(None) == env
        for explicit in EXEC_BACKENDS:
            assert analyzer_backend(explicit) == explicit
    # A bad env value is never read when an explicit name is given.
    monkeypatch.setenv(EXEC_BACKEND, "bogus")
    assert analyzer_backend("interp") == "interp"
    with pytest.raises(ValueError, match="bogus"):
        analyzer_backend(None)
    # The retired closure backend is rejected like any unknown name.
    for bad in ("compiled", "jit"):
        with pytest.raises(ValueError, match=re.escape(repr(EXEC_BACKENDS))):
            analyzer_backend(bad)


def test_create_executor_backend_and_fallback(monkeypatch):
    monkeypatch.delenv(EXEC_BACKEND, raising=False)
    module = compile_program("func int main() { return 41 + 1; }")
    reference = create_executor(module, exec_backend="interp")
    assert type(reference) is Interpreter
    assert reference.run("main", []) == 42
    # The default is a compiling backend.
    default = create_executor(module, obs_enabled=False)
    assert not isinstance(default, Interpreter)
    assert default.run("main", []) == 42
    for backend in COMPILING_BACKENDS:
        assert _compiled(module, backend).run("main", []) == 42
        # Observers, profilers and enabled obs need the interpreter's
        # event stream, whichever backend was asked for.
        for kwargs in ({"observers": [Observer()]},
                       {"profiler": Profiler()},
                       {"obs_enabled": True}):
            fallback = create_executor(module, exec_backend=backend, **kwargs)
            assert type(fallback) is Interpreter, (backend, kwargs)
            assert fallback.run("main", []) == 42


def test_run_program_exec_backend_threading(monkeypatch):
    monkeypatch.delenv(EXEC_BACKEND, raising=False)
    src = 'func void main() { print("hi", 1 + 1); }'
    expected = (None, "hi 2\n")
    assert run_program(src) == expected
    for backend in EXEC_BACKENDS:
        assert run_program(src, exec_backend=backend) == expected
        monkeypatch.setenv(EXEC_BACKEND, backend)
        assert run_program(src) == expected
    monkeypatch.setenv(EXEC_BACKEND, "compiled")
    with pytest.raises(ValueError):
        run_program(src)
    # The step budget reaches the executor on every backend.
    spin = "func void main() { while (true) { } }"
    for backend in EXEC_BACKENDS:
        with pytest.raises(MiniCRuntimeError, match="step limit exceeded"):
            run_program(spin, max_steps=200, exec_backend=backend)


def test_compiled_analyzer_report_matches_interp():
    src = """
    struct Node { int value; Node* next; }
    func int main() {
        int[] data = new int[16];
        int acc = 0;
        for (int i = 0; i < len(data); i = i + 1) { data[i] = i * 3; }
        for (int i = 0; i < len(data); i = i + 1) { acc = acc + data[i]; }
        Node* head = null;
        for (int i = 0; i < 6; i = i + 1) {
            Node* n = new Node; n.value = i; n.next = head; head = n;
        }
        while (head != null) { acc = acc + head.value; head = head.next; }
        print(acc);
        return acc;
    }
    """
    ri = DcaAnalyzer(
        compile_program(src), static_filter=False, clock=_zero,
        exec_backend="interp",
    ).analyze()
    assert ri.exec_backend == "interp"
    for backend in COMPILING_BACKENDS:
        rc = DcaAnalyzer(
            compile_program(src), static_filter=False, clock=_zero,
            exec_backend=backend,
        ).analyze()
        assert rc.exec_backend == backend
        assert ri.to_json() == rc.to_json()
