"""One measured unit of work, run in a fresh interpreter.

    python3 dcabench/child.py suite  JOB.json OUT.json
    python3 dcabench/child.py check  JOB.json OUT.json
    python3 dcabench/child.py batch  JOB.json OUT.json
    python3 dcabench/child.py serve  JOB.json OUT.json

``suite`` analyzes suite programs in the given order through
``AnalysisSession.analyze``; ``check`` re-analyzes them with a zero
clock and compares report digests with the checked-in goldens (and can
fill a cache on the way); ``batch`` runs ``AnalysisSession.batch`` over
a directory of program files; ``serve`` hosts ``AnalysisServer``,
prints its port and serves until standard input closes.  Each writes
one JSON result to OUT.json.  The job file names the directories and
knobs; the environment carries ``REPRO_CODEGEN_CACHE_DIR`` only.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.use_source_tree()

from repro.api import AnalysisConfig, AnalysisSession  # noqa: E402
from repro.benchsuite import by_name  # noqa: E402
from repro.interp.codegen import codegen_stats  # noqa: E402

import spans as bench_trace  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

STAGES = ("selection", "profile", "static", "golden", "dynamic", "tiering")


def suite_config(**changes) -> AnalysisConfig:
    """The pinned analysis config: all 24 programs share rtol 1e-6, the
    strict live-out policy and ``main`` (checked in :func:`pinned`)."""
    base = AnalysisConfig(
        entry="main",
        rtol=1e-6,
        liveout_policy="strict",
        specs=False,
        tiering=False,
        exec_backend="codegen",
        backend="serial",
        ledger_dir="off",
    )
    return base.replace(**changes)


def pinned(name: str) -> None:
    bench = by_name(name)
    if (bench.rtol, bench.liveout_policy, bench.entry) != (
        1e-6, "strict", "main"
    ):
        raise SystemExit(f"{name}: unpinned rtol/policy/entry")


def report_counts(data, cache=None):
    """Per-layer counts read from one serialized report (plus the
    never-serialized cache accounting, when the object is at hand)."""
    metrics = data["metrics"]
    loops = data["loops"]
    counts = {f"dca.{s}_ms": metrics["stage_times_ms"].get(s, 0.0)
              for s in STAGES}
    skipped = sum(metrics["schedule_executions_skipped"].values())
    counts.update({
        "interp.instructions": metrics["interp_instructions"],
        "interp.executions": metrics["executions"],
        "schedule_engine.executions": metrics["schedule_executions"],
        "schedule_engine.skipped": skipped,
        "schedule_engine.saved_static": metrics[
            "schedule_executions_saved_static"],
        "liveout.snapshots": metrics["snapshots_taken"],
        "liveout.snapshot_nodes": metrics["snapshot_nodes"],
        "liveout.snapshot_bytes": metrics["snapshot_bytes"],
        "liveout.verify_comparisons": metrics["verify_comparisons"],
        "analysis.static_decided": sum(
            n for k, n in data["decided_by"].items() if k.startswith("static")
        ),
        "sccdag.pipeline_loops": data.get("tier_counts", {}).get(
            "PIPELINE", 0),
        "sccdag.candidates": sum(
            1 for v in common.verdict_map(data).values()
            if v in ("non-commutative", "runtime-fault")
        ) if "tier_counts" in data else 0,
        "loops": len(loops),
    })
    if cache is not None:
        counts.update({
            "cache.hits": cache.hits,
            "cache.misses": cache.misses,
            "cache.stores": cache.stores,
            "schedule_engine.cache_avoided": cache.schedule_executions_avoided,
        })
    return counts


def replayed_counts(report):
    """Counts a warm report carries over from its cached cold twin: cache
    replays keep report bytes identical, so the work they stand for is
    subtracted to count only what this run executed."""
    costs = [r.cost for r in report.results.values() if r.from_cache]
    executions = sum(c.schedule_executions for c in costs)
    return {
        "interp.instructions": -sum(c.interp_instructions for c in costs),
        "interp.executions": -executions,
        "schedule_engine.executions": -executions,
        "liveout.snapshots": -sum(c.snapshots_taken for c in costs),
        "liveout.snapshot_nodes": -sum(c.snapshot_nodes for c in costs),
        "liveout.snapshot_bytes": -sum(c.snapshot_bytes for c in costs),
        "liveout.verify_comparisons": -sum(
            c.verify_comparisons for c in costs),
    }


def add_counts(total, counts):
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def start_tracer(job, layers=None):
    if not job.get("trace"):
        return None
    tracer = bench_trace.Tracer()
    bench_trace.install(tracer, layers)
    return tracer


def run_suite(job):
    """One pass over suite programs, in the order given."""
    tracer = start_tracer(job)
    config = suite_config(cache_dir=job["cache_dir"])
    sources = []
    for name in job["order"]:
        pinned(name)
        sources.append((name, by_name(name).source))
    stats_before = codegen_stats()
    reports = []
    clock = time.monotonic  # the speed probe's clock
    pass_start = clock()
    for name, source in sources:
        start = clock()
        with AnalysisSession(config) as session:
            report = session.analyze(source, source_path=name)
        reports.append((name, report, (start, clock())))
    pass_s = clock() - pass_start
    stats = codegen_stats()
    totals = {}
    programs = {}
    for name, report, window in reports:
        data = report.to_dict()
        add_counts(totals, report_counts(data, report.cache))
        add_counts(totals, replayed_counts(report))
        programs[name] = {
            "wall_ms": (window[1] - window[0]) * 1000.0,
            "window": window,
            "verdicts": common.verdict_map(data),
        }
    for key in ("compiles", "disk_hits", "memo_hits"):
        totals[f"interp.codegen_{key}"] = stats[key] - stats_before[key]
    return {
        "import_s": _IMPORT_S,
        "pass_s": pass_s,
        "programs": programs,
        "counts": totals,
        "trace": bench_trace.summarize(tracer) if tracer else None,
        "peak_rss_mb": common.peak_rss_mb(),
    }


def run_check(job):
    """Zero-clock reports of the named programs against the goldens.

    With a cache directory, the same analyses fill it (set-up for the
    warm and served workloads)."""
    import hashlib

    from repro.cache import open_cache
    from repro.core import DcaAnalyzer

    goldens = common.load_json(common.GOLDEN_DIGESTS)
    cache = open_cache(job["cache_dir"]) if job.get("cache_dir") else None
    mismatches = []
    programs = {}
    try:
        for name in job["names"]:
            pinned(name)
            bench = by_name(name)
            analyzer = DcaAnalyzer(
                bench.compile(fresh=True), rtol=bench.rtol, liveout_policy=bench.liveout_policy,
                specs=False, tiering=False, exec_backend="codegen",
                backend="serial", clock=lambda: 0.0, cache=cache,
                source_text=bench.source, source_path=name,
            )
            report = analyzer.analyze()
            text = report.to_json()
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != goldens[name]["report_sha256"]:
                mismatches.append(name)
            programs[name] = {
                "verdicts": common.verdict_map(report.to_dict()),
            }
    finally:
        if cache is not None:
            cache.close()
    return {"mismatches": mismatches, "programs": programs,
            "peak_rss_mb": common.peak_rss_mb()}


def run_batch(job):
    """One ``AnalysisSession.batch`` pass over a directory of programs,
    tiered, fanned out over ``jobs`` pool workers."""
    import multiprocessing

    from repro.core.schedule_engine import shutdown_shared_pools

    # Only the coordinator's layer: the analyses run in pool workers,
    # whose spans would stay there.
    tracer = start_tracer(job, layers=("batch",))
    config = suite_config(
        cache_dir=job["cache_dir"], tiering=True, backend="process",
        jobs=job["jobs"],
    )
    clock = time.perf_counter
    start = clock()
    with AnalysisSession(config) as session:
        result = session.batch([job["dir"]])
    pass_s = clock() - start
    # Reap the pool workers so their peak resident sets reach rusage.
    shutdown_shared_pools()
    for child in multiprocessing.active_children():
        child.join(30)
    totals = {}
    programs = {}
    statuses = {}
    for outcome in result.outcomes:
        name = os.path.basename(outcome.path)[: -len(".mc")]
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
        entry = {"status": outcome.status, "wall_ms": outcome.wall_ms,
                 "error": outcome.error}
        if outcome.report is not None:
            add_counts(totals, report_counts(outcome.report))
            totals["cache.hits"] = totals.get("cache.hits", 0) + (
                outcome.cache_hits)
            totals["cache.misses"] = totals.get("cache.misses", 0) + (
                outcome.cache_misses)
            entry["verdicts"] = common.verdict_map(outcome.report)
            entry["tier_counts"] = outcome.report.get("tier_counts", {})
        programs[name] = entry
    return {
        "import_s": _IMPORT_S,
        "pass_s": pass_s,
        "programs": programs,
        "statuses": statuses,
        "counts": totals,
        "trace": bench_trace.summarize(tracer) if tracer else None,
        "peak_rss_mb": common.peak_rss_mb(),
    }


def run_serve(job):
    """Host the daemon until standard input closes."""
    from repro.serve import AnalysisServer, ServeConfig, serving

    tracer = start_tracer(job)
    server = AnalysisServer(
        ServeConfig(host="127.0.0.1", port=0, workers=job["workers"],
                    queue_depth=job["queue_depth"]),
        base=suite_config(
            cache_dir=job["cache_dir"], ledger_dir=job["ledger_dir"]
        ),
    )
    with serving(server):
        print(f"PORT {server.port}", flush=True)
        sys.stdin.read()
    return {
        "trace": bench_trace.summarize(tracer) if tracer else None,
        "counts": {f"interp.codegen_{k}": v
                   for k, v in codegen_stats().items()},
        "peak_rss_mb": common.peak_rss_mb(),
    }


MODES = {"suite": run_suite, "check": run_check, "batch": run_batch,
         "serve": run_serve}


def main(argv):
    mode, job_path, out_path = argv
    result = MODES[mode](common.load_json(job_path))
    common.write_json(out_path, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
