"""Shared pieces of the DCA benchmark: paths, environment hygiene,
program salting, the verdict oracle and the statistics rules.

Stdlib only.  Nothing here imports :mod:`repro` at module level, so the
orchestrator can fail cleanly when the source tree is missing.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIGESTS = os.path.join(
    ROOT, "benchmarks", "goldens", "pre_tiering_digests.json"
)
TIER_GOLDEN = os.path.join(BENCH_DIR, "goldens", "tier_counts.json")

#: Verdicts that mean "not tested" in the paper's Table IV rule.
UNTESTED = ("excluded-io", "iterator-only", "not-exercised", "untestable")
COMMUTATIVE = ("commutative", "commutative-vacuous")

#: Percentiles the tail rule may choose from, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def have_source_tree() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "api.py"))


def use_source_tree() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def clean_env(**settings: str) -> Dict[str, str]:
    """The process environment with every ``REPRO_*`` variable removed,
    then ``settings`` applied: env knobs must not shift what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(settings)
    return env


# -- programs -----------------------------------------------------------------


def salt_source(source: str, salt: int) -> str:
    """``source`` with one unused global prepended.

    The global changes the printed module, hence the workload digest
    (a cache miss), but no loop, label or verdict."""
    return f"int bench_salt_{salt:x} = {salt % 1000003};\n" + source


def seeded_order(names: Sequence[str], rng: random.Random) -> List[str]:
    order = list(names)
    rng.shuffle(order)
    return order


# -- verdict oracle -----------------------------------------------------------


def verdict_map(report: Dict[str, object]) -> Dict[str, str]:
    """label -> verdict string from a serialized report (schema 1 or 2)."""
    out = {}
    for label, loop in report["loops"].items():
        verdict = loop["verdict"]
        out[label] = verdict["value"] if isinstance(verdict, dict) else verdict
    return out


def table4_errors(
    verdicts: Dict[str, str], ground_truth: Dict[str, bool]
) -> List[str]:
    """Loops whose verdict contradicts expert ground truth (paper Table IV):
    false positives are commutative loops the expert keeps sequential;
    false negatives are parallel loops found neither commutative nor
    untested."""
    commutative = {l for l, v in verdicts.items() if v in COMMUTATIVE}
    untested = {l for l, v in verdicts.items() if v in UNTESTED}
    gt_true = {l for l, v in ground_truth.items() if v}
    gt_false = {l for l, v in ground_truth.items() if not v}
    false_pos = commutative & gt_false
    false_neg = (gt_true - commutative) - untested
    return sorted(f"fp:{l}" for l in false_pos) + sorted(
        f"fn:{l}" for l in false_neg
    )


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics
    (q = pct/100), where interpolating between the two nearest ones
    would let one noisy program decide a run's median.  The weight of the
    i-th order statistic is the Beta mass on [i/n, (i+1)/n], integrated
    by the midpoint rule."""
    data = sorted(values)
    n = len(data)
    if not n:
        raise ValueError("percentile of no samples")
    if n == 1:
        return data[0]
    q = pct / 100.0
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64 * n
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(
            (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_norm
        )
    return sum(w * v for w, v in zip(weights, data)) / sum(weights)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it, or None when even the lowest rung lacks support."""
    for pct in PERCENTILE_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


def timing_summary(values: Sequence[float]) -> Dict[str, object]:
    """Median plus the supported tail percentile, with the sample count."""
    tail = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0) if values else 0.0,
        "tail_pct": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: str, data) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True)
    os.replace(tmp, path)
