"""Request streams for the serving workload.

Requests are repeats of suite programs (cache reads), salted copies of
them (misses that write the cache) and, in the open loop, pairs of
identical repeats sent together (coalescing).  Kinds are dealt from a
deck in the exact mix proportions and programs from a deck that deals
every program before repeating one, so seeds change order, timing and
salts but not how much work is offered.

* :func:`arrival_schedule` + :func:`run_open`: Poisson arrivals at a
  fixed rate, each sent when due over at most ``connections``
  connections and timed from when it was due, so a stall also counts
  against the requests queued behind it.
* :func:`closed_rounds` + :func:`run_closed`: one client that sends its
  next request when the previous one returns.
"""

from __future__ import annotations

import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import common

KINDS = ("repeat", "fresh", "pair")


@dataclass(frozen=True)
class Arrival:
    due: float  # seconds after the stream starts (0 in a closed loop)
    phase: str
    kind: str  # one of KINDS
    program: str
    salt: Optional[int]  # set for "fresh" only

    @property
    def copies(self) -> int:
        return 2 if self.kind == "pair" else 1


def _deal(rng: random.Random, times: Sequence[float], phase: str,
          programs: Sequence[str], mix: Dict[str, float]) -> List[Arrival]:
    count = len(times)
    kinds = [k for k in KINDS[1:] for _ in range(round(mix[k] * count))]
    kinds += ["repeat"] * (count - len(kinds))
    rng.shuffle(kinds)
    deck: List[str] = []
    out = []
    for due, kind in zip(times, kinds):
        if not deck:
            deck = list(programs)
            rng.shuffle(deck)
        salt = rng.getrandbits(40) if kind == "fresh" else None
        out.append(Arrival(due, phase, kind, deck.pop(), salt))
    return out


def arrival_schedule(
    seed: int,
    phases: Sequence[Tuple[str, float, float]],
    programs: Sequence[str],
    mix: Dict[str, float],
) -> List[Arrival]:
    """Open-loop arrivals for ``phases`` of (name, rate per s, duration s),
    run back to back.  Each phase holds exactly ``round(rate * duration)``
    arrivals at uniformly drawn times: a Poisson process conditioned on
    its count."""
    rng = random.Random(f"serve-open/{seed}")
    arrivals: List[Arrival] = []
    start = 0.0
    for name, rate, duration in phases:
        count = max(1, round(rate * duration))
        times = sorted(start + rng.random() * duration for _ in range(count))
        arrivals += _deal(rng, times, name, programs, mix)
        start += duration
    return arrivals


def closed_rounds(seed: int, programs: Sequence[str], mix: Dict[str, float],
                  rounds: int) -> List[List[Arrival]]:
    """Requests for the closed loop, in rounds: each round is every
    program once as a repeat plus salted copies in the mix's fresh to
    repeat proportion, dealt from a deck of all programs; pairs need an
    open loop to arrive together."""
    rng = random.Random(f"serve-closed/{seed}")
    n_fresh = round(len(programs) * mix["fresh"] / mix["repeat"])
    out: List[List[Arrival]] = []
    deck: List[str] = []
    for _ in range(rounds):
        batch = [Arrival(0.0, "closed", "repeat", p, None) for p in programs]
        for _ in range(n_fresh):
            if not deck:
                deck = list(programs)
                rng.shuffle(deck)
            batch.append(Arrival(0.0, "closed", "fresh", deck.pop(),
                                 rng.getrandbits(40)))
        rng.shuffle(batch)
        out.append(batch)
    return out


@dataclass
class Response:
    arrival: int
    copy: int
    status: int
    latency_ms: float  # open loop: from due time; closed loop: from send
    lag_ms: float  # from due time to send
    coalesced: bool
    verdicts: Optional[Dict[str, str]]
    body: Optional[bytes]  # kept for pairs only
    name: str
    due: float  # time.monotonic() when due, and at the full response
    done: float


def post(client, sources: Dict[str, str], index: int, copy: int,
         arrival: Arrival, due_at: float) -> Response:
    """Send one analysis request and time it from ``due_at`` (monotonic)."""
    source = sources[arrival.program]
    if arrival.salt is not None:
        source = common.salt_source(source, arrival.salt)
    name = f"{arrival.phase}{index}.{copy}"
    sent = time.monotonic()
    try:
        status, headers, body = client.request(
            "POST", "/v1/analyze", {"source": source, "name": name}
        )
    except OSError:
        status, headers, body = 0, {}, b""
    done = time.monotonic()
    verdicts = None
    if status == 200:
        verdicts = common.verdict_map(json.loads(body)["report"])
    return Response(
        arrival=index, copy=copy, status=status,
        latency_ms=(done - due_at) * 1000.0,
        lag_ms=(sent - due_at) * 1000.0,
        coalesced=headers.get("X-Repro-Coalesced") == "1",
        verdicts=verdicts,
        body=body if arrival.kind == "pair" else None,
        name=name,
        due=due_at,
        done=done,
    )


def run_open(client, arrivals: Sequence[Arrival], sources: Dict[str, str],
             connections: int) -> List[Response]:
    """Send every arrival when due; return all responses."""
    with ThreadPoolExecutor(max_workers=connections) as pool:
        futures = []
        origin = time.monotonic() + 0.05
        for index, arrival in enumerate(arrivals):
            due_at = origin + arrival.due
            delay = due_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            for copy in range(arrival.copies):
                futures.append(pool.submit(
                    post, client, sources, index, copy, arrival, due_at))
        return [future.result() for future in futures]


def run_closed(client, rounds: Sequence[Sequence[Arrival]],
               sources: Dict[str, str]
               ) -> Tuple[List[Arrival], List[Response], Tuple[float, float]]:
    """Closed loop over one connection: each request is sent when the
    previous one returns.  Returns the items sent, their responses and
    the (start, end) window."""
    items = [item for batch in rounds for item in batch]
    start = time.monotonic()
    responses = [post(client, sources, index, 0, item, time.monotonic())
                 for index, item in enumerate(items)]
    return items, responses, (start, responses[-1].done)
