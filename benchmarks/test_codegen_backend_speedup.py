"""Codegen execution backend gate over the PLDS + NPB suite.

Two properties of ``--exec-backend codegen``:

* **Zero drift** — with timing injected to zero, the codegen backend's
  report is byte-for-byte identical to the interpreter's on every
  benchmark: same verdicts, same provenance, same step counts, same
  snapshot digests, same JSON.  This runs at the default schedule
  preset and each benchmark's own liveout policy.
* **Wall speedup** — the whole-suite analyze pipeline must run at least
  5x faster than on the reference interpreter.  The timed configuration is replay-rich
  (identity + reverse + 16 random schedules), skips the static
  pre-filter, and uses the ``eventual`` liveout policy so the replay
  loop — the part the backend accelerates — dominates instead of the
  per-``rt_verify`` heap-snapshot capture that ``strict`` pays equally
  on every backend.  The warmup pass also populates the on-disk
  artifact cache, so the timed codegen pass loads marshalled code
  objects instead of re-lowering each module (the cache is keyed by
  module digest, and ``bench.compile(fresh=True)`` builds fresh module
  objects each pass, which defeats the in-memory memo by design).
"""

from __future__ import annotations

import time

from conftest import format_table

from repro.benchsuite import ALL_BENCHMARKS
from repro.core import DcaAnalyzer
from repro.core.schedules import ScheduleConfig

MIN_SPEEDUP = 5.0
#: Testing schedules for the timed gate: identity + reverse + 16 randoms.
GATE_RANDOM_SCHEDULES = 16


def _zero():
    return 0.0


def _analyze_suite(exec_backend=None, clock=None, schedules=None,
                   static_filter=True, liveout_policy=None):
    reports = {}
    for bench in ALL_BENCHMARKS:
        analyzer = DcaAnalyzer(
            bench.compile(fresh=True),
            rtol=bench.rtol,
            liveout_policy=liveout_policy or bench.liveout_policy,
            clock=clock,
            static_filter=static_filter,
            exec_backend=exec_backend,
            schedules=schedules,
        )
        reports[bench.name] = analyzer.analyze()
    return reports


def test_codegen_backend_zero_drift(capsys):
    interp = _analyze_suite(exec_backend="interp", clock=_zero)
    codegen = _analyze_suite(exec_backend="codegen", clock=_zero)
    rows = []
    for name, report in interp.items():
        other = codegen[name]
        drift = "identical" if report.to_json() == other.to_json() else "DRIFT"
        rows.append((name, len(report.results), report.schedule_executions, drift))
    with capsys.disabled():
        print("\n== Exec backend: interp vs codegen ==")
        print(format_table(("Benchmark", "loops", "executions", "report"), rows))
    drifted = [name for name, *_, drift in rows if drift != "identical"]
    assert not drifted, f"codegen backend drifted on: {drifted}"


def test_codegen_backend_wall_speedup(capsys, tmp_path, monkeypatch):
    from repro.interp.codegen import codegen_stats

    monkeypatch.setenv("REPRO_CODEGEN_CACHE_DIR", str(tmp_path / "artifacts"))

    def gate_config():
        return ScheduleConfig.default(n_random=GATE_RANDOM_SCHEDULES)

    # Warm both paths (pyc, analysis caches, codegen disk artifacts)
    # before timing.  The warmup must use the gate config: with the
    # static pre-filter off, the analyzer instruments loops the filter
    # would have skipped, and those instrumented modules need their
    # artifacts on disk before the timed pass.
    _analyze_suite(
        exec_backend="interp", clock=_zero, schedules=gate_config(),
        static_filter=False, liveout_policy="eventual",
    )
    _analyze_suite(
        exec_backend="codegen", clock=_zero, schedules=gate_config(),
        static_filter=False, liveout_policy="eventual",
    )

    start = time.perf_counter()
    _analyze_suite(
        exec_backend="interp", clock=_zero, schedules=gate_config(),
        static_filter=False, liveout_policy="eventual",
    )
    interp_s = time.perf_counter() - start

    before = dict(codegen_stats())
    start = time.perf_counter()
    _analyze_suite(
        exec_backend="codegen", clock=_zero, schedules=gate_config(),
        static_filter=False, liveout_policy="eventual",
    )
    codegen_s = time.perf_counter() - start
    after = codegen_stats()

    speedup = interp_s / codegen_s if codegen_s else float("inf")
    with capsys.disabled():
        print(
            "\n== Codegen backend wall speedup: interp %.2fs / codegen %.2fs "
            "= %.2fx (gate %.1fx, %d testing schedules, eventual liveout) =="
            % (interp_s, codegen_s, speedup, MIN_SPEEDUP,
               2 + GATE_RANDOM_SCHEDULES)
        )
    # The warmup pass populated the artifact store; the timed pass must
    # have been replay-bound, not compile-bound.
    compiles = after["compiles"] - before["compiles"]
    assert compiles == 0, (
        f"timed codegen pass recompiled {compiles} modules despite a warm "
        f"artifact cache"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"--exec-backend codegen delivered only {speedup:.2f}x over the "
        f"interpreter (interp {interp_s:.2f}s, codegen {codegen_s:.2f}s)"
    )
