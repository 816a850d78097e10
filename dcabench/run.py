"""Seeded benchmark of the DCA pipeline, end to end and layer by layer.

    python3 dcabench/run.py --workload suite-cold --seed 1 --seconds 16 --trace 0

Workloads (see BENCHMARK.json and dcabench/README.md for why each exists):

* ``suite-cold``   all 24 PLDS+NPB programs through
  ``AnalysisSession.analyze``, each pass in a fresh interpreter with an
  empty analysis cache and codegen artifact directory;
* ``suite-warm``   the same passes against a cache filled during set-up;
* ``batch-tiered`` ``AnalysisSession.batch`` over salted program files,
  tiering on, one pool worker per core, a fresh cache each pass;
* ``serve``        ``AnalysisServer`` in its own process: closed-loop
  rounds of cache reads and misses, plus (traced run) open-loop Poisson
  phases at two fixed rates.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics from benchmark-side
spans, plus the tracing overhead against untraced passes of the same
invocation.  Every time is scaled to a reference host speed (see
``speed.py``).  Every pass is checked against the verdict oracle.  All
scratch files live under ``.dcabench_tmp/`` in the checkout and are
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import speed  # noqa: E402

WORKLOAD_NAMES = ("suite-cold", "suite-warm", "batch-tiered", "serve")
CHILD = os.path.join(common.BENCH_DIR, "child.py")
SETTINGS = os.path.join(common.BENCH_DIR, "workloads.json")
SCRATCH = os.path.join(common.ROOT, ".dcabench_tmp")
CHILD_TIMEOUT_S = 170.0

#: Per-layer metrics every ``--trace 1`` run reports, with their units.
#: A layer a workload does not reach in the benchmark's own process
#: reads 0 there (see README.md).
LAYER_METRICS = {
    "lang.compile_ms": "ms", "lang.compile_calls": "count",
    "ir.instructions": "count",
    "dca.selection_ms": "ms", "dca.profile_ms": "ms", "dca.static_ms": "ms",
    "dca.golden_ms": "ms", "dca.dynamic_ms": "ms", "dca.tiering_ms": "ms",
    "interp.instructions": "count", "interp.executions": "count",
    "interp.codegen_compiles": "count", "interp.codegen_compile_ms": "ms",
    "interp.codegen_disk_hits": "count",
    "instrument.observe_build_ms": "ms", "instrument.test_build_ms": "ms",
    "payload.outline_ms": "ms",
    "schedule_engine.run_ms": "ms", "schedule_engine.executions": "count",
    "schedule_engine.skipped": "count", "schedule_engine.avoided_share": "ratio",
    "liveout.capture_calls": "count", "liveout.capture_ms": "ms",
    "liveout.digest_ms": "ms", "liveout.compare_ms": "ms",
    "liveout.snapshot_nodes": "count", "liveout.snapshot_bytes": "bytes",
    "liveout.verify_comparisons": "count",
    "analysis.static_ms": "ms", "analysis.defuse_builds": "count",
    "analysis.loop_forest_builds": "count",
    "analysis.liveness_builds": "count", "analysis.static_decided": "count",
    "sccdag.build_ms": "ms", "sccdag.builds": "count",
    "sccdag.pipeline_loops": "count",
    "cache.lookup_ms": "ms", "cache.store_ms": "ms", "cache.hits": "count",
    "cache.misses": "count", "cache.hit_ratio": "ratio", "cache.stores": "count",
    "batch.program_wall_ms.p50": "ms", "batch.parallel_efficiency": "ratio",
    "batch.status.ok": "count", "batch.status.fault": "count",
    "batch.status.parse-error": "count", "batch.status.worker-lost": "count",
    "serve.analysis_ms.p95": "ms", "serve.overhead_ms.p95": "ms",
    "serve.analyses": "count", "serve.coalesced": "count",
    "serve.rejected": "count",
    "ledger.record_ms": "ms",
    "client.sent": "count", "client.ok": "count", "client.failed": "count",
    "client.generator_lag_ms.p95": "ms",
    "client.light_p50_ms": "ms", "client.light_p95_ms": "ms",
    "client.heavy_p50_ms": "ms", "client.heavy_p95_ms": "ms",
    "client.goodput_heavy_rps": "1/s",
    "oracle.verdict_errors": "count", "oracle.digest_mismatches": "count",
    "trace.overhead_share": "ratio", "trace.spans": "count",
}
SELF_LAYERS = ("api", "lang", "interp", "instrument", "payload",
               "schedule_engine", "liveout", "analysis", "sccdag", "cache",
               "batch", "ledger")
for _layer in SELF_LAYERS:
    LAYER_METRICS[f"self_ms.{_layer}"] = "ms"

E2E_UNITS = {
    "setup_s": "s", "programs_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p75_ms": "ms", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


# -- plumbing -----------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(common.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """One invocation: seed, budget, scratch space and child processes."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.nproc = os.cpu_count() or 1
        self.rng = random.Random(f"{args.workload}/{args.seed}")
        self.settings = common.load_json(SETTINGS)
        self.work = os.path.join(SCRATCH, f"{os.getpid()}-{self.workload}")
        self.tmp = os.path.join(self.work, "tmp")
        os.makedirs(self.tmp)
        self._dirs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.peak_rss = []
        self.digest_mismatches = 0
        common.use_source_tree()
        from repro.benchsuite import ALL_BENCHMARKS

        self.names = [b.name for b in ALL_BENCHMARKS]
        self.sources = {b.name: b.source for b in ALL_BENCHMARKS}
        self.ground_truth = {b.name: b.ground_truth for b in ALL_BENCHMARKS}
        self.probe = speed.SpeedProbe(
            os.path.join(self.work, "speed.json"), common.clean_env(),
            self.settings["probe_ref_ms"],
        )
        self.speed: Optional[speed.Speed] = None

    def stop_probe(self) -> None:
        """End speed sampling; call once the measured work is done."""
        self.speed = self.probe.stop()

    def scale(self, window) -> float:
        """Factor that takes a time measured over ``window`` (monotonic
        start, end) to the reference host speed."""
        return self.speed.factor(*window)

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"{self._dirs:03d}-{label}")
        os.makedirs(path)
        return path

    def spawn(self, mode: str, job: Dict[str, object], codegen_dir: str,
              **popen) -> "Child":
        jobdir = self.fresh_dir(mode)
        job_path = os.path.join(jobdir, "job.json")
        common.write_json(job_path, job)
        env = common.clean_env(
            REPRO_CODEGEN_CACHE_DIR=codegen_dir, TMPDIR=self.tmp
        )
        out_path = os.path.join(jobdir, "out.json")
        proc = subprocess.Popen(
            [sys.executable, CHILD, mode, job_path, out_path],
            env=env, cwd=common.ROOT, stderr=subprocess.PIPE, **popen,
        )
        return Child(proc, out_path, mode)

    def run_child(self, mode, job, codegen_dir):
        """Run one child to completion; its result records the window."""
        start = time.monotonic()
        out = self.spawn(mode, job, codegen_dir,
                         stdout=subprocess.DEVNULL).result()
        out["window"] = (start, time.monotonic())
        return out

    def problem(self, text: str) -> None:
        """An output the oracle rejects: the run is not correct."""
        self.problems.append(text)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def close(self) -> None:
        self.probe.kill()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


class Child:
    def __init__(self, proc, out_path, mode):
        self.proc, self.out_path, self.mode = proc, out_path, mode

    def result(self, timeout: float = CHILD_TIMEOUT_S):
        try:
            _, err = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError(f"{self.mode} child timed out")
        if self.proc.returncode != 0:
            tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
            raise BenchError(
                f"{self.mode} child exited {self.proc.returncode}: "
                + " | ".join(tail)
            )
        return common.load_json(self.out_path)


def run_parallel_check(bench: Bench, cache_dir: Optional[str],
                       codegen_dir: str) -> Dict[str, Dict[str, str]]:
    """Zero-clock golden-digest check of all programs, split over
    ``nproc`` children; returns the reference verdict maps."""
    parts = max(1, min(bench.nproc, 4))
    names = list(bench.names)
    children = [
        bench.spawn(
            "check", {"names": names[i::parts], "cache_dir": cache_dir},
            codegen_dir, stdout=subprocess.DEVNULL,
        )
        for i in range(parts)
    ]
    reference = {}
    try:
        for child in children:
            out = child.result()
            bench.digest_mismatches += len(out["mismatches"])
            for name in out["mismatches"]:
                bench.problem(f"zero-clock report digest differs: {name}")
            reference.update(
                {n: p["verdicts"] for n, p in out["programs"].items()}
            )
    finally:
        for child in children:
            if child.proc.poll() is None:
                child.proc.kill()
                child.proc.communicate()
    return reference


def oracle_errors(bench: Bench, verdicts: Dict[str, str], name: str) -> int:
    errors = common.table4_errors(verdicts, bench.ground_truth[name])
    for error in errors:
        bench.problem(f"{name}: verdict contradicts ground truth ({error})")
    return len(errors)


def check_pass_verdicts(bench, programs, reference) -> int:
    """Oracle errors in one pass; drift from the reference is a problem."""
    errors = 0
    for name, entry in programs.items():
        verdicts = entry.get("verdicts")
        if verdicts is None:
            continue
        errors += oracle_errors(bench, verdicts, name)
        if verdicts != reference[name]:
            bench.problem(f"{name}: verdicts differ from the reference run")
    return errors


# -- pass-based workloads -------------------------------------------------------


def run_passes(bench: Bench, one_pass) -> List[Dict[str, object]]:
    """Passes until ``--seconds`` have elapsed (the last one completes);
    with tracing, untraced and traced passes alternate, one of each at
    least."""
    passes = []
    start = time.monotonic()
    while (not passes or (bench.trace and len(passes) < 2)
           or time.monotonic() - start < bench.seconds):
        passes.append(one_pass(bench.trace and len(passes) % 2 == 1))
    return passes


def scale_passes(bench, passes) -> None:
    """Attach each pass's speed factor and its scaled times."""
    for p in passes:
        f = p["f"] = bench.scale(p["window"])
        p["rate"] = len(p["programs"]) / (p["pass_s"] * f)
        # Programs analyzed in this process carry their own window; pool
        # workers' programs take the pass's factor.
        p["walls_ms"] = [
            e["wall_ms"] * (bench.scale(e["window"]) if "window" in e else f)
            for e in p["programs"].values()
        ]
        p["import_s"] *= f


def pass_metrics(bench, passes, setup_s) -> Dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    rates = [p["rate"] for p in plain]
    walls = [w for p in plain for w in p["walls_ms"]]
    summary = common.timing_summary(walls)
    if not bench.trace and (summary["tail_pct"] or 0.0) < 75.0:
        bench.note(f"only {len(walls)} latency samples for p75")
    return {
        "setup_s": setup_s,
        "programs_per_s": common.median(rates),
        "latency_p50_ms": summary["p50"],
        "latency_p75_ms": common.percentile(walls, 75.0),
        "peak_rss_mb": common.median(bench.peak_rss),
        "_samples": len(walls),
    }


def layer_metrics(traced: List[Dict[str, object]],
                  plain_rate: Optional[float] = None) -> Dict[str, float]:
    """Median over traced passes of each per-layer metric."""
    rows = [layers_of_pass(p) for p in traced]
    out = {name: common.median(r.get(name, 0.0) for r in rows)
           for name in LAYER_METRICS}
    if plain_rate:
        traced_rate = common.median(p["rate"] for p in traced)
        out["trace.overhead_share"] = (plain_rate - traced_rate) / plain_rate
    return out


def layers_of_pass(p: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, times at reference speed."""
    row = raw_layers(p)
    return {k: v * p["f"] if "_ms" in k else v for k, v in row.items()}


def raw_layers(p: Dict[str, object]) -> Dict[str, float]:
    counts = p["counts"]
    trace = p.get("trace") or {"total_ms": {}, "calls": {}, "counts": {},
                               "self_ms": {}, "spans": 0}
    total, calls, tcounts = trace["total_ms"], trace["calls"], trace["counts"]
    row = {k: v for k, v in counts.items() if k in LAYER_METRICS}
    row.update({
        "lang.compile_ms": total.get("lang.compile", 0.0),
        "lang.compile_calls": calls.get("lang.compile", 0),
        "ir.instructions": tcounts.get("ir.instructions", 0),
        "interp.codegen_compile_ms": total.get("interp.codegen_compile", 0.0),
        "instrument.observe_build_ms": total.get("instrument.observe_build", 0.0),
        "instrument.test_build_ms": total.get("instrument.test_build", 0.0),
        "payload.outline_ms": total.get("payload.outline", 0.0),
        "schedule_engine.run_ms": total.get("schedule_engine.run", 0.0),
        "liveout.capture_calls": calls.get("liveout.capture", 0),
        "liveout.capture_ms": total.get("liveout.capture", 0.0),
        "liveout.digest_ms": total.get("liveout.digest", 0.0),
        "liveout.compare_ms": total.get("liveout.compare", 0.0),
        "analysis.static_ms": total.get("analysis.static", 0.0),
        "analysis.defuse_builds": tcounts.get("analysis.defuse_builds", 0),
        "analysis.loop_forest_builds": tcounts.get(
            "analysis.loop_forest_builds", 0),
        "analysis.liveness_builds": tcounts.get("analysis.liveness_builds", 0),
        "cache.lookup_ms": total.get("cache.lookup", 0.0),
        "cache.store_ms": total.get("cache.store", 0.0),
        "ledger.record_ms": total.get("ledger.record", 0.0),
        "trace.spans": trace["spans"],
    })
    # Tiering runs inside pool workers in the batch workload, out of the
    # benchmark's reach; the reports' tiering stage stands in there.
    if "sccdag.build" in calls:
        row["sccdag.build_ms"] = total["sccdag.build"]
        row["sccdag.builds"] = calls["sccdag.build"]
    else:
        row["sccdag.build_ms"] = counts.get("dca.tiering_ms", 0.0)
        row["sccdag.builds"] = counts.get("sccdag.candidates", 0)
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    row["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    done = counts.get("schedule_engine.executions", 0)
    avoided = (counts.get("schedule_engine.saved_static", 0)
               + counts.get("schedule_engine.cache_avoided", 0)
               + counts.get("schedule_engine.skipped", 0))
    row["schedule_engine.avoided_share"] = (
        avoided / (avoided + done) if avoided + done else 0.0
    )
    for layer in SELF_LAYERS:
        row[f"self_ms.{layer}"] = trace["self_ms"].get(layer, 0.0)
    row.update(p.get("extra_layers", {}))
    return row


def suite_workload(bench: Bench, warm: bool):
    setup = (time.monotonic(),)
    if warm:
        fill = bench.fresh_dir("fill")
        fill_cache = os.path.join(fill, "cache")
        fill_codegen = os.path.join(fill, "codegen")
        reference = run_parallel_check(bench, fill_cache, fill_codegen)
    setup += (time.monotonic(),)

    def one_pass(traced):
        pdir = bench.fresh_dir("pass")
        cache_dir = os.path.join(pdir, "cache")
        codegen_dir = os.path.join(pdir, "codegen")
        if warm:
            shutil.copytree(fill_cache, cache_dir)
            shutil.copytree(fill_codegen, codegen_dir)
        order = common.seeded_order(bench.names, bench.rng)
        bench.attempted += len(order)
        try:
            out = bench.run_child(
                "suite",
                {"order": order, "cache_dir": cache_dir, "trace": traced},
                codegen_dir,
            )
        finally:
            shutil.rmtree(pdir, ignore_errors=True)
        bench.peak_rss.append(out["peak_rss_mb"])
        out["traced"] = traced
        counts = out["counts"]
        if warm and (counts.get("cache.misses", 0)
                     or counts.get("interp.codegen_compiles", 0)):
            bench.failed += len(order)
            bench.problem("warm pass missed the analysis or codegen cache")
        return out

    passes = run_passes(bench, one_pass)
    bench.stop_probe()
    if not warm:
        # The oracle runs after the timed passes, untimed.
        codegen = bench.fresh_dir("check-codegen")
        reference = run_parallel_check(bench, None, codegen)
    errors = sum(check_pass_verdicts(bench, p["programs"], reference)
                 for p in passes)
    scale_passes(bench, passes)
    fill_s = (setup[1] - setup[0]) * bench.scale(setup)
    setup_s = fill_s + common.median(p["import_s"] for p in passes)
    return finish_passes(bench, passes, setup_s, errors)


def finish_passes(bench, passes, setup_s, errors):
    e2e = pass_metrics(bench, passes, setup_s)
    if not bench.trace:
        return e2e, None
    layers = layer_metrics([p for p in passes if p["traced"]],
                           e2e["programs_per_s"])
    layers["oracle.verdict_errors"] = errors
    layers["oracle.digest_mismatches"] = bench.digest_mismatches
    return e2e, layers


def batch_workload(bench: Bench):
    golden = common.load_json(common.TIER_GOLDEN)

    def one_pass(traced):
        start = time.monotonic()
        pdir = bench.fresh_dir("batch")
        programs = os.path.join(pdir, "programs")
        os.makedirs(programs)
        for name in bench.names:
            salt = bench.rng.getrandbits(40)
            with open(os.path.join(programs, f"{name}.mc"), "w") as handle:
                handle.write(common.salt_source(bench.sources[name], salt))
        write = (start, time.monotonic())
        bench.attempted += len(bench.names)
        try:
            out = bench.run_child(
                "batch",
                {"dir": programs, "cache_dir": os.path.join(pdir, "cache"),
                 "jobs": bench.nproc, "trace": traced},
                os.path.join(pdir, "codegen"),
            )
        finally:
            shutil.rmtree(pdir, ignore_errors=True)
        out["write"] = write
        bench.peak_rss.append(out["peak_rss_mb"])
        out["traced"] = traced
        for name, entry in out["programs"].items():
            if entry["status"] != "ok":
                bench.failed += 1
                bench.problem(f"{name}: batch status {entry['status']} "
                              f"{entry['error']}")
            elif entry["tier_counts"] != golden[name]:
                bench.problem(f"{name}: tier counts {entry['tier_counts']} "
                              f"differ from golden {golden[name]}")
        walls = [e["wall_ms"] for e in out["programs"].values()]
        statuses = out["statuses"]
        out["extra_layers"] = {
            "batch.program_wall_ms.p50": common.percentile(walls, 50.0),
            "batch.parallel_efficiency": sum(walls) / 1000.0
            / (out["pass_s"] * bench.nproc),
            **{f"batch.status.{s}": statuses.get(s, 0)
               for s in ("ok", "fault", "parse-error", "worker-lost")},
        }
        return out

    passes = run_passes(bench, one_pass)
    bench.stop_probe()
    reference = run_parallel_check(bench, None, bench.fresh_dir("codegen"))
    errors = sum(check_pass_verdicts(bench, p["programs"], reference)
                 for p in passes)
    scale_passes(bench, passes)
    setup_s = common.median(
        (p["write"][1] - p["write"][0]) * bench.scale(p["write"])
        + p["import_s"] for p in passes
    )
    return finish_passes(bench, passes, setup_s, errors)


# -- served workload ------------------------------------------------------------


class Server:
    """``AnalysisServer`` in its own process over the shared cache."""

    def __init__(self, bench: Bench, cache_dir: str, codegen_dir: str,
                 traced: bool):
        from repro.serve import ServeClient

        start = time.monotonic()
        self.ledger_dir = bench.fresh_dir("ledger")
        self.child = bench.spawn(
            "serve",
            {"cache_dir": cache_dir, "ledger_dir": self.ledger_dir,
             "workers": bench.nproc,
             "queue_depth": bench.settings["serve"]["queue_depth"],
             "trace": traced},
            codegen_dir, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = self.child.proc.stdout.readline().decode().strip()
        if not line.startswith("PORT "):
            self.kill()
            raise BenchError(f"server did not start: {line!r}")
        self.client = ServeClient(f"http://127.0.0.1:{line.split()[1]}",
                                  timeout=120.0)
        self.start_window = (start, time.monotonic())

    def kill(self) -> None:
        self.child.proc.kill()
        self.child.proc.communicate()

    def stop(self):
        """Stop the server (closing its stdin) and read its ledger rows."""
        from repro.obs.export import parse_openmetrics
        from repro.obs.ledger import RunLedger

        families = parse_openmetrics(self.client.metrics())
        out = self.child.result()
        with RunLedger(self.ledger_dir) as ledger:
            rows = {r["program"]: r for r in ledger.runs(kind="serve-analyze")}
        return out, rows, families


def serve_rounds(bench: Bench) -> int:
    """Closed-loop rounds per run.  The daemon's resident set grows with
    every distinct program it analyzes, so a run is a fixed number of
    rounds (``--seconds`` over the nominal round time in
    ``workloads.json``), not a fixed time."""
    return max(1, round(bench.seconds / bench.settings["serve"]["round_s"]))


def serve_workload(bench: Bench):
    import load

    common.use_source_tree()
    settings = bench.settings["serve"]
    mix = settings["mix"]
    fill = (time.monotonic(),)
    state = bench.fresh_dir("serve")
    cache_dir = os.path.join(state, "cache")
    codegen_dir = os.path.join(state, "codegen")
    reference = run_parallel_check(bench, cache_dir, codegen_dir)
    fill += (time.monotonic(),)

    def closed(server, rounds, stream):
        items, responses, window = load.run_closed(
            server.client,
            load.closed_rounds(bench.seed * 4 + stream, bench.names, mix,
                               rounds),
            bench.sources,
        )
        errors = check_responses(bench, responses, items, reference)
        return {"responses": responses, "window": window, "errors": errors}

    def hosted(traced, work):
        server = Server(bench, cache_dir, codegen_dir, traced)
        try:
            result = work(server)
        except BaseException:
            server.kill()
            raise
        out, rows, families = server.stop()
        bench.peak_rss.append(out["peak_rss_mb"])
        return server.start_window, result, out, rows, families

    def scaled(run):
        """Latencies and the closed-loop rate at reference speed."""
        ok = [r for r in run["responses"] if r.status == 200]
        start, end = run["window"]
        return (
            [r.latency_ms * bench.scale((r.due, r.done)) for r in ok],
            len(ok) / ((end - start) * bench.scale(run["window"])),
        )

    if not bench.trace:
        started, run, _out, _rows, _fam = hosted(
            False, lambda server: closed(server, serve_rounds(bench), 0)
        )
        bench.stop_probe()
        bench.peak_rss.append(common.peak_rss_mb())
        lat, rate = scaled(run)
        if common.tail_percentile(len(lat)) is None:
            bench.note(f"only {len(lat)} closed-loop samples for p75")
        setup_s = sum((w[1] - w[0]) * bench.scale(w) for w in (fill, started))
        return {
            "setup_s": setup_s,
            "programs_per_s": rate,
            "latency_p50_ms": common.percentile(lat, 50.0),
            "latency_p75_ms": common.percentile(lat, 75.0),
            "peak_rss_mb": max(bench.peak_rss),
            "_samples": len(lat),
        }, None

    # Traced invocation: an untraced server runs one closed-loop round as
    # the baseline and the open-loop phases at the two fixed rates; a
    # traced server then runs one round for the spans and the overhead.
    quarter = bench.seconds / 4.0
    rates = settings["rates_rps"]
    phases = [(name, rates[name], quarter) for name in ("light", "heavy")]

    def untraced_work(server):
        base = closed(server, 1, 1)
        arrivals = load.arrival_schedule(bench.seed, phases, bench.names, mix)
        responses = load.run_open(server.client, arrivals, bench.sources,
                                  bench.nproc)
        errors = check_responses(bench, responses, arrivals, reference)
        return base, arrivals, responses, errors

    _s, (base, arrivals, responses, open_errors), _out, rows, families = (
        hosted(False, untraced_work)
    )
    _s, traced, server_out, traced_rows, _f = hosted(
        True, lambda server: closed(server, 1, 2)
    )
    bench.stop_probe()
    counts = dict(server_out["counts"])
    for row in traced_rows.values():
        for stage, ms in row["stage_times"].items():
            key = f"dca.{stage}_ms"
            counts[key] = counts.get(key, 0.0) + ms
        for key, field in (("cache.hits", "cache_hits"),
                           ("cache.misses", "cache_misses")):
            counts[key] = counts.get(key, 0) + row[field]
    row = layers_of_pass({"counts": counts, "trace": server_out["trace"],
                          "f": bench.scale(traced["window"])})
    layers = {name: row.get(name, 0.0) for name in LAYER_METRICS}
    layers.update(open_loop_layers(bench, arrivals, responses, rows,
                                   families, phases,
                                   settings["latency_limit_ms"]))
    layers["oracle.verdict_errors"] = (
        base["errors"] + traced["errors"] + open_errors
    )
    layers["oracle.digest_mismatches"] = bench.digest_mismatches
    base_rate, traced_rate = scaled(base)[1], scaled(traced)[1]
    layers["trace.overhead_share"] = (base_rate - traced_rate) / base_rate
    return {"_samples": len(traced["responses"])}, layers


def open_loop_layers(bench, arrivals, responses, rows, families, phases,
                     limit_ms):
    """Client-side and daemon-side numbers of the open-loop phases, times
    at reference speed."""
    by_phase = {"light": [], "heavy": []}
    overhead = []
    walls = []
    for resp in responses:
        if resp.status != 200:
            continue
        f = bench.scale((resp.due, resp.done))
        by_phase[arrivals[resp.arrival].phase].append(resp.latency_ms * f)
        row = rows.get(resp.name)
        if row is not None:
            walls.append(row["wall_ms"] * f)
            overhead.append(
                (resp.latency_ms - resp.lag_ms - row["wall_ms"]) * f)
    heavy_s = phases[1][2]
    ok = sum(len(v) for v in by_phase.values())
    zero = [0.0]

    def read(name: str) -> float:
        fam = families.get(name) or families.get(name + "_total") or {}
        return sum(value for _n, _l, value in fam.get("samples", ()))

    return {
        "serve.analysis_ms.p95": common.percentile(walls or zero, 95.0),
        "serve.overhead_ms.p95": common.percentile(overhead or zero, 95.0),
        "serve.analyses": read("repro_serve_analyses"),
        "serve.coalesced": read("repro_serve_coalesced"),
        "serve.rejected": read("repro_serve_rejected"),
        "client.sent": len(responses),
        "client.ok": ok,
        "client.failed": len(responses) - ok,
        "client.generator_lag_ms.p95": common.percentile(
            [r.lag_ms * bench.scale((r.due, r.done)) for r in responses]
            or zero, 95.0),
        "client.light_p50_ms": common.percentile(
            by_phase["light"] or zero, 50.0),
        "client.light_p95_ms": common.percentile(
            by_phase["light"] or zero, 95.0),
        "client.heavy_p50_ms": common.percentile(
            by_phase["heavy"] or zero, 50.0),
        "client.heavy_p95_ms": common.percentile(
            by_phase["heavy"] or zero, 95.0),
        "client.goodput_heavy_rps": sum(
            1 for v in by_phase["heavy"] if v <= limit_ms) / heavy_s,
    }


def check_responses(bench, responses, arrivals, reference) -> int:
    """Served verdicts against the local reference; coalesced pair bodies
    must be byte-identical."""
    errors = 0
    pairs: Dict[int, list] = {}
    for resp in responses:
        bench.attempted += 1
        arrival = arrivals[resp.arrival]
        if resp.status != 200:
            bench.failed += 1
            bench.problem(f"request {resp.name}: HTTP {resp.status}")
            continue
        errors += oracle_errors(bench, resp.verdicts, arrival.program)
        if resp.verdicts != reference[arrival.program]:
            bench.problem(f"{resp.name}: served verdicts differ from local")
        if arrival.kind == "pair":
            pairs.setdefault(resp.arrival, []).append(resp)
    for members in pairs.values():
        if len(members) == 2 and any(m.coalesced for m in members):
            if members[0].body != members[1].body:
                bench.problem("coalesced pair bodies differ")
    return errors


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_source_tree():
        print("dcabench: no source tree (src/repro) next to the benchmark",
              file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        runner = {
            "suite-cold": lambda: suite_workload(bench, warm=False),
            "suite-warm": lambda: suite_workload(bench, warm=True),
            "batch-tiered": lambda: batch_workload(bench),
            "serve": lambda: serve_workload(bench),
        }[args.workload]
        try:
            e2e, layers = runner()
        except BenchError as exc:
            print(f"dcabench: {exc}", file=sys.stderr)
            return 1
    finally:
        bench.close()
    return report(bench, args, e2e, layers)


def report(bench, args, e2e, layers) -> int:
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} nproc={bench.nproc} "
          f"python={platform.python_version()} commit={git_commit()}")
    print(f"# latency samples={e2e['_samples']}")
    probes = [ms for _t, ms in bench.speed.samples]
    print(f"# speed probe: median {common.median(probes):.3f} ms over "
          f"{len(probes)} samples, min {min(probes):.3f}, max "
          f"{max(probes):.3f}; times scaled to {bench.speed.ref_ms} ms")
    for note in bench.notes:
        print(f"# NOTE {note}")
    for problem in bench.problems:
        print(f"# PROBLEM {problem}")
    if layers is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    else:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
