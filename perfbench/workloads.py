"""Seeded job lists for the three traffic mixes.

Each generator turns ``(seed, seconds)`` into a :class:`Plan`: the
warm-up submissions that end set-up, and the job list the measured
window replays.  Only plain JSON request bodies reach the server.

Run-to-run steadiness comes from stratification, not from luck: every
block of jobs holds the same multiset of spec sizes (nodes x rounds x
replicates), and the seed shuffles them and picks fault details, p/r
thresholds, cluster seeds and, on the warm path, which cached specs
combine and when each job is due.  So two seeds give different jobs
with the same total work per block.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, List, Optional

#: Result formats a warm job may ask for (md/html/csv go through the
#: table renderers, json through the document serializer).
FORMATS = ("json", "md", "html", "csv")


@dataclass
class Job:
    """One submission: its body plus what a correct answer looks like."""

    body: Any
    #: "cold" (the server must execute it) or "warm" (cached).
    kind: str
    #: RunSpec results the answer must carry (None for a named
    #: campaign until ``run.py`` expands it).
    tasks: Optional[int]
    label: str
    fmt: str = "json"
    #: Warm jobs: expected result bytes, filled in before set-up.
    expected: Optional[bytes] = None
    payload: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.payload = json.dumps(self.body, sort_keys=True).encode()


@dataclass
class Plan:
    """Everything one run of a workload replays."""

    warmup: List[Job]
    jobs: List[Job]
    #: Closed loop: each client waits for its job before the next.
    #: Open loop: ``offsets`` are due times in seconds from the start.
    closed: bool
    #: Generator threads, hence concurrent connections: at most the
    #: host's cores (2), so the generator never needs more CPU than the
    #: host has.
    clients: int
    offsets: Optional[List[float]] = None
    #: Warm workloads: specs and named campaigns the store must hold.
    fill: List[Any] = field(default_factory=list)


def _spec(n: int, rounds: int, seed: int, scenarios: List[dict],
          penalty: int, reward: int, backend: Optional[str] = None,
          reducer: Optional[str] = None) -> dict:
    spec = {"protocol": {"n_nodes": n, "penalty_threshold": penalty,
                         "reward_threshold": reward,
                         "criticalities": [1] * n},
            "cluster": {"seed": seed},
            "scenarios": scenarios,
            "n_rounds": rounds}
    if backend is not None:
        spec["backend"] = backend
    if reducer is not None:
        spec["reducer"] = reducer
    return spec


def _faults(kind: str, rng: random.Random, n: int, rounds: int) -> list:
    """One fault scenario list of the given kind, details from ``rng``."""
    if kind == "none":
        return []
    if kind in ("benign", "malicious"):
        return [{"type": "SenderFault", "params": {
            "sender": rng.randint(1, n), "kind": kind,
            "from_round": rng.randint(2, rounds // 2)}}]
    if kind == "gilbert-elliott":
        return [{"type": "GilbertElliottChannel", "params": {
            "p_gb": rng.choice((0.02, 0.05, 0.1)), "p_bg": 0.5,
            "error_good": 0.0, "error_bad": 1.0, "rng_stream": "bench-ge"}}]
    if kind == "slot-burst":
        return [{"type": "SlotBurst", "params": {
            "round_index": rng.randint(2, rounds // 2),
            "slot": rng.randint(1, n),
            "n_slots": rng.choice((1, 2, 2 * n))}}]
    raise ValueError(f"unknown fault kind {kind!r}")


#: p/r thresholds: the low penalty thresholds isolate faulty senders
#: within the run, the high ones ride the faults out.
_THRESHOLDS = ((1, 5), (3, 50), (10, 50), (40, 100))
_EVENT_FAULTS = ("none", "benign", "malicious", "gilbert-elliott",
                 "slot-burst")


class _Seeds:
    """Cluster seeds no other job of the run (or run of the seed) uses."""

    def __init__(self, seed: int) -> None:
        self._next = seed * 1_000_000 + 1

    def take(self, count: int = 1) -> int:
        """The first of ``count`` consecutive unused seeds."""
        first = self._next
        self._next += count
        return first


#: The sizes of one cold-event block: six ad-hoc lists of 1..6 specs,
#: 21 specs in all, each pair of 4..10 nodes x 50/75/100 rounds once.
#: The assignment of pairs to lists is fixed, so every block costs the
#: same whatever the seed; the seed picks faults, thresholds, cluster
#: seeds and order.
_COLD_BLOCK = (
    ((8, 75),),
    ((4, 100), (10, 50)),
    ((6, 75), (9, 100), (4, 50)),
    ((7, 50), (5, 100), (10, 75), (6, 50)),
    ((9, 75), (4, 75), (7, 100), (5, 50), (8, 50)),
    ((6, 100), (5, 75), (9, 50), (10, 100), (7, 75), (8, 100)),
)


def cold_event(seed: int, seconds: float) -> Plan:
    """Closed loop of never-seen event-engine jobs (see README)."""
    rng = random.Random(f"cold-event:{seed}")
    fresh = _Seeds(seed)
    jobs: List[Job] = []
    for _block in range(max(4, int(seconds * 3))):
        faults = [_EVENT_FAULTS[i % len(_EVENT_FAULTS)] for i in range(21)]
        rng.shuffle(faults)
        block: List[Job] = []
        for shapes in _COLD_BLOCK:
            specs = []
            for n, rounds in shapes:
                penalty, reward = rng.choice(_THRESHOLDS)
                specs.append(_spec(n, rounds, fresh.take(),
                                   _faults(faults.pop(), rng, n, rounds),
                                   penalty, reward))
            block.append(Job({"specs": specs}, "cold", len(specs), "adhoc"))
        block.append(Job({"campaign": "rare-events", "reps": 2,
                          "seed": fresh.take(2)}, "cold", None,
                         "rare-events"))
        block.append(Job({"campaign": "table2", "seed": fresh.take()},
                         "cold", None, "table2"))
        rng.shuffle(block)
        jobs.extend(block)
    warmup = [Job({"specs": [_spec(4, 20, fresh.take(), [], 3, 50)]},
                  "cold", 1, "warmup")]
    # One client: the server runs every job's Python under one GIL, so
    # a second client added no throughput, only hand-offs between one
    # job's simulation and the other's fsyncs, and runs spread wider
    # (see README, Noise).
    return Plan(warmup, jobs, closed=True, clients=1)


def _vec_faults(rng: random.Random, n: int, rounds: int,
                scripted: bool) -> list:
    if scripted:
        return _faults(rng.choice(("benign", "malicious", "slot-burst")),
                       rng, n, rounds)
    if rng.random() < 0.5:
        return _faults("gilbert-elliott", rng, n, rounds)
    return [{"type": "PoissonTransients", "params": {
        "rate": rng.choice((20.0, 50.0)), "burst_length": 0.0005,
        "start": 0.0, "cause": "transient", "rng_stream": "bench-pt"}}]


def montecarlo_vec(seed: int, seconds: float) -> Plan:
    """Closed loop of never-seen vectorized replicate batches."""
    rng = random.Random(f"montecarlo-vec:{seed}")
    fresh = _Seeds(seed)
    # (nodes, rounds, replicates): each job costs roughly the same
    # kernel time, and one block holds each shape once.
    shapes = [(8, 100, 16), (8, 200, 12), (12, 150, 10), (16, 100, 8),
              (16, 200, 4), (24, 100, 4), (24, 150, 3), (32, 100, 2)]
    jobs: List[Job] = []
    for _block in range(max(4, int(seconds * 3))):
        block: List[Job] = []
        for index, (n, rounds, reps) in enumerate(shapes):
            first = fresh.take(reps)
            penalty, reward = rng.choice(_THRESHOLDS)
            base = _spec(n, rounds, first,
                         _vec_faults(rng, n, rounds, index % 2 == 0),
                         penalty, reward, backend="vectorized",
                         reducer="isolation")
            specs = []
            for rep in range(reps):
                spec = json.loads(json.dumps(base))
                spec["cluster"]["seed"] = first + rep
                specs.append(spec)
            block.append(Job({"specs": specs}, "cold", reps, "replicates"))
        for nodes, reps in ((4, 8), (8, 4)):
            block.append(Job({"campaign": "rare-events", "reps": reps,
                              "nodes": nodes, "seed": fresh.take(reps),
                              "backend": "vectorized"},
                             "cold", None, "rare-events"))
        rng.shuffle(block)
        jobs.extend(block)
    warmup = [Job({"campaign": "rare-events", "reps": 2,
                   "seed": fresh.take(2), "backend": "vectorized"},
                  "cold", None, "warmup")]
    # One client, as on cold-event: with two, the server delivered a
    # third fewer tasks per second (see README, Noise).
    return Plan(warmup, jobs, closed=True, clients=1)


#: Offered load of the warm open loop, in jobs per second.
WARM_RATE = 8.0
#: Specs per new combination: every store-path job and every repeat of
#: one has the same size, so the latency modes stay narrow.
WARM_COMBINATION = 24


def warm_replay(seed: int, seconds: float) -> Plan:
    """Open loop of cached submissions at a fixed Poisson rate."""
    rng = random.Random(f"warm-replay:{seed}")
    fresh = _Seeds(seed)
    pool = []
    for index in range(96):
        n = (4, 5, 6, 8)[index % 4]
        rounds = (30, 60)[index // 4 % 2]
        penalty, reward = rng.choice(_THRESHOLDS)
        pool.append(_spec(n, rounds, fresh.take(),
                          _faults(_EVENT_FAULTS[index % 5], rng, n, rounds),
                          penalty, reward))
    named = [{"campaign": "rare-events", "reps": 8, "seed": fresh.take(8)},
             {"campaign": "validate", "reps": 1},
             {"campaign": "table2", "seed": fresh.take()}]

    count = max(2, int(round(WARM_RATE * seconds)))
    # Poisson arrivals conditioned on their count: sorted uniform times.
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    # Each seeded quartet holds one store-path job (a new combination
    # of cached specs) and three job-table jobs (one repeat of a named
    # campaign, two repeats of earlier combinations).  The store path
    # is about twice as slow, so an even split would put the median in
    # the gap between the two paths.  Formats cycle through shuffled
    # quartets, so every run asks for the same mix.
    kinds: List[str] = []
    formats: List[str] = []
    while len(kinds) < count:
        quartet = ["new", "named", "repeat", "repeat"]
        rng.shuffle(quartet)
        kinds.extend(quartet)
        quartet = list(FORMATS)
        rng.shuffle(quartet)
        formats.extend(quartet)
    seen = set()
    named_jobs = itertools.cycle([Job(body, "warm", None, "named")
                                  for body in named])
    combinations: List[Job] = []
    jobs: List[Job] = []
    for kind, fmt in zip(kinds[:count], formats):
        if kind == "new" or (kind == "repeat" and not combinations):
            while True:
                picks = tuple(rng.sample(range(len(pool)),
                                         WARM_COMBINATION))
                if picks not in seen:
                    break
            seen.add(picks)
            job = Job({"specs": [pool[i] for i in picks]}, "warm",
                      WARM_COMBINATION, "combination", fmt)
            combinations.append(job)
        else:
            earlier = (next(named_jobs) if kind == "named"
                       else rng.choice(combinations))
            job = Job(earlier.body, "warm", earlier.tasks, "repeat", fmt)
        jobs.append(job)
    warmup = [Job(body, "warm", None, "warmup") for body in named]
    return Plan(warmup, jobs, closed=False, clients=2, offsets=offsets,
                fill=[{"specs": pool}] + named)


WORKLOADS = {
    "cold-event": cold_event,
    "montecarlo-vec": montecarlo_vec,
    "warm-replay": warm_replay,
}
