"""Tests of the benchmark's own machinery (run: python3 -m pytest dcabench)."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import load  # noqa: E402
import spans  # noqa: E402

common.use_source_tree()

MIX = {"repeat": 0.7, "fresh": 0.2, "pair": 0.1}
PHASES = [("light", 1.25, 8.0), ("heavy", 2.9, 20.0)]
NAMES = [f"p{i}" for i in range(24)]


def test_salted_program_keeps_loops_and_verdicts():
    from repro.api import AnalysisSession
    from repro.benchsuite import by_name
    from repro.cache.keys import module_workload_digest

    from child import suite_config

    source = by_name("mcf").source
    salted = common.salt_source(source, 0x5EED)
    with AnalysisSession(suite_config()) as session:
        plain_mod = session.compile(source)
        salted_mod = session.compile(salted)
        assert module_workload_digest(plain_mod, "main", []) != (
            module_workload_digest(salted_mod, "main", [])
        )
        assert plain_mod.all_loop_labels() == salted_mod.all_loop_labels()
        plain = session.analyze(source).to_dict()
        other = session.analyze(salted).to_dict()
    assert common.verdict_map(plain) == common.verdict_map(other)


def test_arrival_schedule_is_a_function_of_the_seed():
    one = load.arrival_schedule(7, PHASES, NAMES, MIX)
    assert one == load.arrival_schedule(7, PHASES, NAMES, MIX)
    assert one != load.arrival_schedule(8, PHASES, NAMES, MIX)


def test_arrival_schedule_offers_fixed_work():
    for seed in range(5):
        arrivals = load.arrival_schedule(seed, PHASES, NAMES, MIX)
        light = [a for a in arrivals if a.phase == "light"]
        heavy = [a for a in arrivals if a.phase == "heavy"]
        assert len(light) == 10 and len(heavy) == 58
        assert all(0.0 <= a.due < 8.0 for a in light)
        assert all(8.0 <= a.due < 28.0 for a in heavy)
        assert [a.due for a in arrivals] == sorted(a.due for a in arrivals)
        kinds = [a.kind for a in heavy]
        assert (kinds.count("fresh"), kinds.count("pair")) == (12, 6)
        assert all((a.salt is None) == (a.kind != "fresh") for a in arrivals)
        # The program deck deals every program before repeating one.
        assert len({a.program for a in heavy[:24]}) == 24


def test_closed_rounds_read_every_program_once():
    rounds = load.closed_rounds(3, NAMES, MIX, 2)
    assert rounds == load.closed_rounds(3, NAMES, MIX, 2)
    for block in rounds:
        assert len(block) == 31
        repeats = [a.program for a in block if a.kind == "repeat"]
        assert sorted(repeats) == sorted(NAMES)
        assert sum(a.kind == "fresh" for a in block) == 7


def test_tail_percentile_keeps_ten_samples_beyond():
    assert common.tail_percentile(39) is None
    assert common.tail_percentile(40) == 75.0
    assert common.tail_percentile(99) == 75.0
    assert common.tail_percentile(100) == 90.0
    assert common.tail_percentile(200) == 95.0
    assert common.tail_percentile(1000) == 99.0
    assert common.tail_percentile(10000) == 99.9
    summary = common.timing_summary([float(v) for v in range(1, 101)])
    assert summary["n"] == 100 and summary["tail_pct"] == 90.0
    assert abs(summary["p50"] - 50.5) < 1e-6
    assert 89.5 < summary["tail"] < 91.0


def test_harrell_davis_percentile():
    assert common.percentile([7.0], 75.0) == 7.0
    assert abs(common.percentile([3.0] * 9, 90.0) - 3.0) < 1e-9
    # One outlier moves the estimate a little, not to the outlier.
    data = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    base = common.percentile(data, 50.0)
    assert abs(base - 14.5) < 1e-6
    assert base < common.percentile(data[:-1] + [1000.0], 50.0) < 15.5
    assert common.percentile(data, 25.0) < base < common.percentile(data, 75.0)


def test_self_time_subtracts_covered_child_intervals():
    # Parent 0..10; children overlap (1..3, 2..5) and one runs past the
    # parent's end (8..12): covered = 4 + 2, self = 10 - 6.
    trace = [
        (1, 0, "api.analyze", 0.0, 10.0),
        (2, 1, "liveout.capture", 1.0, 3.0),
        (3, 1, "liveout.digest", 2.0, 5.0),
        (4, 1, "cache.lookup", 8.0, 12.0),
        (5, 2, "lang.compile", 1.5, 2.0),
    ]
    self_ms = spans.self_times_ms(trace)
    assert self_ms["api"] == 4000.0
    assert self_ms["liveout"] == (2.0 - 0.5 + 3.0) * 1000.0
    assert self_ms["cache"] == 4000.0
    assert self_ms["lang"] == 500.0
    assert spans.covered_length([], 0.0, 1.0) == 0.0


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("lang.inner", lambda x: x + 1)
    outer = tracer.span("api.outer", lambda x: inner(x) * 2)
    counted = tracer.counter("analysis.builds", lambda: None)
    assert outer(1) == 4
    counted()
    counted()
    (sid_in, parent_in, name_in, _, _), (sid_out, parent_out, _, _, _) = (
        tracer.spans
    )
    assert name_in == "lang.inner" and parent_in == sid_out
    assert parent_out == 0
    summary = spans.summarize(tracer)
    assert summary["calls"] == {"lang.inner": 1, "api.outer": 1}
    assert summary["counts"] == {"analysis.builds": 2}
    assert summary["self_ms"] == {"lang": 1000.0, "api": 2000.0}


def test_table4_rule():
    truth = {"f.L0": True, "f.L1": False, "f.L2": True, "f.L3": True}
    verdicts = {"f.L0": "commutative", "f.L1": "commutative-vacuous",
                "f.L2": "non-commutative", "f.L3": "excluded-io"}
    assert common.table4_errors(verdicts, truth) == ["fp:f.L1", "fn:f.L2"]


def test_speed_factor_is_robust_to_a_descheduled_probe():
    import speed

    samples = [(i * 0.05, 0.6) for i in range(40)]
    samples[20] = (1.0, 12.0)
    probe = speed.Speed(samples, ref_ms=0.6)
    # Widened to 5 samples, the outlier clipped to 3 ms.
    assert abs(probe.factor(0.99, 1.01) - 0.6 / ((4 * 0.6 + 3.0) / 5)) < 1e-9
    assert probe.factor(0.0, 2.0) > 0.9
    # Half the window at each speed: the work took the mean time.
    mixed = speed.Speed([(i * 0.05, 0.6 if i < 20 else 1.2)
                         for i in range(40)], ref_ms=0.6)
    assert abs(mixed.factor(0.0, 2.0) - 0.6 / 0.9) < 1e-9
