"""Engineering benchmark: simulator and protocol throughput.

Not a paper artefact — this measures the reproduction substrate itself
so regressions in the discrete-event engine or the protocol hot path
are visible: simulated rounds per second for growing cluster sizes,
with the full diagnostic stack running on every node, plus a
sustained-fault point comparing the bitset analysis plane against the
tuple reference plane (same traces, different representation).

``REPRO_BENCH_ROUNDS`` scales the per-point round count down for smoke
runs (CI uses 50; the default 200 is the tracked-artefact setting).
"""

import os
import tempfile
import time

from conftest import emit, emit_json

from repro.analysis.reporting import render_table
from repro.campaign import campaign_tasks, run_campaign, validation_campaign
from repro.core.config import uniform_config
from repro.core.service import DiagnosedCluster
from repro.faults.scenarios import crash
from repro.spec import ClusterSpec, ProtocolSpec, RunSpec, ScenarioSpec
from repro.spec.build import build
from repro.store import ResultStore
from repro.vec import NUMPY_AVAILABLE

ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "200"))

#: N=64 stresses the packed representation where tuple churn hurt most;
#: smaller points track the substrate overheads.
POINTS = (4, 8, 16, 32, 64)
SUSTAINED_N = 16

#: Backend face-off points: N=64 carries the tracked >=10x acceptance
#: target for the vectorized round kernel.
BACKEND_POINTS = (16, 64, 128)
MONTE_CARLO_N = 16
MONTE_CARLO_REPLICATES = 1000

#: Stochastic-channel point: Gilbert-Elliott bursts keep the injection
#: layer busy every round, measuring what the mask-precomputation path
#: costs relative to per-slot event-engine sampling.
GILBERT_ELLIOTT_N = 16


def run_cluster(n_nodes: int, bitset: bool = True,
                sustained_fault: bool = False) -> None:
    config = uniform_config(n_nodes, penalty_threshold=10 ** 6,
                            reward_threshold=10 ** 6)
    dc = DiagnosedCluster(config, seed=0, trace_level=0, bitset=bitset)
    if sustained_fault:
        # A never-isolated crashed sender keeps one ε row in every
        # matrix, defeating the uniform shortcut: every round runs the
        # full column analysis, which is what this point measures.
        dc.cluster.add_scenario(crash(2, from_round=2))
    dc.run_rounds(ROUNDS)
    assert dc.cluster.rounds_completed == ROUNDS


def _rounds_per_s(n_nodes: int, **kwargs) -> float:
    start = time.perf_counter()
    run_cluster(n_nodes, **kwargs)
    return ROUNDS / (time.perf_counter() - start)


def test_throughput_n4(benchmark):
    benchmark(run_cluster, 4)


def test_throughput_n8(benchmark):
    benchmark(run_cluster, 8)


def test_throughput_n16(benchmark):
    benchmark(run_cluster, 16)


def _backend_spec(n_nodes: int) -> RunSpec:
    """The sustained-fault workload as a spec both backends accept."""
    return RunSpec(
        protocol=ProtocolSpec(n_nodes=n_nodes,
                              penalty_threshold=10 ** 6,
                              reward_threshold=10 ** 6,
                              criticalities=(1,) * n_nodes),
        cluster=ClusterSpec(seed=0, trace_level=0),
        scenarios=(ScenarioSpec("SenderFault",
                                {"sender": 2, "kind": "benign",
                                 "from_round": 2}),),
        n_rounds=ROUNDS,
    )


def _gilbert_elliott_spec(n_nodes: int) -> RunSpec:
    """A bursty-channel workload: errors in ~17% of slots."""
    return RunSpec(
        protocol=ProtocolSpec(n_nodes=n_nodes,
                              penalty_threshold=10 ** 6,
                              reward_threshold=10 ** 6,
                              criticalities=(1,) * n_nodes),
        cluster=ClusterSpec(seed=0, trace_level=0),
        scenarios=(ScenarioSpec("GilbertElliottChannel",
                                {"p_gb": 0.1, "p_bg": 0.5,
                                 "error_good": 0.0, "error_bad": 1.0,
                                 "rng_stream": "bench-ge"}),),
        n_rounds=ROUNDS,
    )


def _event_rounds_per_s(spec: RunSpec) -> float:
    start = time.perf_counter()
    dc = build(spec)
    dc.run_rounds(spec.n_rounds)
    return spec.n_rounds / (time.perf_counter() - start)


def _vectorized_rounds_per_s(spec: RunSpec) -> float:
    from repro.vec import run_batch

    start = time.perf_counter()
    run_batch(spec)
    return spec.n_rounds / (time.perf_counter() - start)


def _backend_points() -> dict:
    """Event vs vectorized rounds/s plus the Monte Carlo batch point.

    Timings include each backend's per-run setup (spec build vs
    schedule compilation + injection lowering), i.e. what a campaign
    cache miss actually pays.
    """
    points = []
    for n in BACKEND_POINTS:
        spec = _backend_spec(n)
        event = _event_rounds_per_s(spec)
        vectorized = _vectorized_rounds_per_s(spec)
        points.append({"n_nodes": n, "rounds": ROUNDS,
                       "event_rounds_per_s": round(event, 1),
                       "vectorized_rounds_per_s": round(vectorized, 1),
                       "speedup": round(vectorized / event, 2)})

    from repro.vec import run_batch

    spec = _backend_spec(MONTE_CARLO_N)
    start = time.perf_counter()
    run_batch(spec, replicates=MONTE_CARLO_REPLICATES)
    batch_s = time.perf_counter() - start
    start = time.perf_counter()
    build(spec).run_rounds(spec.n_rounds)
    event_replicate_s = time.perf_counter() - start
    monte_carlo = {
        "n_nodes": MONTE_CARLO_N,
        "replicates": MONTE_CARLO_REPLICATES,
        "rounds_per_replicate": ROUNDS,
        "batch_s": round(batch_s, 3),
        "replicates_per_s": round(MONTE_CARLO_REPLICATES / batch_s, 1),
        "event_replicates_per_s": round(1.0 / event_replicate_s, 2),
        "speedup": round((MONTE_CARLO_REPLICATES / batch_s)
                         * event_replicate_s, 1),
    }
    ge_spec = _gilbert_elliott_spec(GILBERT_ELLIOTT_N)
    ge_event = _event_rounds_per_s(ge_spec)
    ge_vectorized = _vectorized_rounds_per_s(ge_spec)
    gilbert_elliott = {
        "n_nodes": GILBERT_ELLIOTT_N, "rounds": ROUNDS,
        "p_gb": 0.1, "p_bg": 0.5,
        "event_rounds_per_s": round(ge_event, 1),
        "vectorized_rounds_per_s": round(ge_vectorized, 1),
        "speedup": round(ge_vectorized / ge_event, 2),
    }

    n64 = next(p for p in points if p["n_nodes"] == 64)
    return {"points": points, "n64_speedup": n64["speedup"],
            "monte_carlo": monte_carlo,
            "gilbert_elliott": gilbert_elliott}


def _campaign_cache_point() -> dict:
    """Cold vs warm wall time for a small campaign through the store.

    Also times the warm *consultation* both ways — one indexed lookup
    per task (the pre-``get_many`` shape) vs one batched query — since
    on a fully-warm campaign the consultation IS the run.
    """
    definition = validation_campaign(repetitions=1)
    keys = [task.key for task in campaign_tasks(definition.labeled_specs)]
    with tempfile.TemporaryDirectory() as cache_dir:
        with ResultStore(cache_dir) as store:
            start = time.perf_counter()
            cold = run_campaign(definition.labeled_specs, store=store)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            warm = run_campaign(definition.labeled_specs, store=store)
            warm_s = time.perf_counter() - start
            per_key_s = min(
                _timed(lambda: [store.get(key) for key in keys])
                for _ in range(3))
            batched_s = min(
                _timed(lambda: store.get_many(keys)) for _ in range(3))
    assert cold.misses == len(definition.labeled_specs)
    assert warm.hits == len(definition.labeled_specs)
    return {
        "tasks": len(definition.labeled_specs),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_hits": warm.hits,
        "warm_tasks_per_s": round(warm.hits / warm_s, 1),
        "speedup": round(cold_s / warm_s, 2),
        "consult_per_key_tasks_per_s": round(len(keys) / per_key_s, 1),
        "consult_batched_tasks_per_s": round(len(keys) / batched_s, 1),
        "consult_speedup": round(per_key_s / batched_s, 2),
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


DISPATCH_JOBS = 4
DISPATCH_REPEATS = 3


def _dispatch_point() -> dict:
    """The persistent streaming pool, plus a remote-stub smoke run, on
    the 18-task validation campaign."""
    definition = validation_campaign(repetitions=1)
    labeled = definition.labeled_specs
    streaming_s = min(
        _timed(lambda: run_campaign(labeled, jobs=DISPATCH_JOBS,
                                    dispatch="pool"))
        for _ in range(DISPATCH_REPEATS))
    remote_s = _timed(lambda: run_campaign(labeled, jobs=2,
                                           dispatch="remote-stub"))
    return {
        "tasks": len(labeled),
        "jobs": DISPATCH_JOBS,
        "repeats": DISPATCH_REPEATS,
        "persistent_pool_s": round(streaming_s, 4),
        "remote_stub_hosts": 2,
        "remote_stub_s": round(remote_s, 4),
    }


SERVICE_WARM_REQUESTS = 25
SERVICE_CONCURRENT_CLIENTS = 8


def _service_point() -> dict:
    """The HTTP service: warm vs cold request cost, and N-client dedup.

    A cold POST pays one simulation; warm POSTs of the same submission
    are pure store lookups over the wire, and N concurrent identical
    clients dedup onto a single execution — the service counters are
    the proof.
    """
    import json as _json
    import threading
    import urllib.request

    from repro.service import JobManager, ServiceThread, create_app

    def post(url: str, body: bytes) -> dict:
        req = urllib.request.Request(url + "/v1/jobs", data=body)
        with urllib.request.urlopen(req, timeout=60) as resp:
            return _json.loads(resp.read())

    def wait_done(url: str, job_id: str) -> None:
        while True:
            with urllib.request.urlopen(f"{url}/v1/jobs/{job_id}",
                                        timeout=60) as resp:
                if _json.loads(resp.read())["state"] in ("done", "failed"):
                    return
            time.sleep(0.01)

    spec = _backend_spec(4).with_updates(n_rounds=min(ROUNDS, 50))
    body = _json.dumps(spec.to_dict()).encode("utf-8")
    with tempfile.TemporaryDirectory() as cache_dir:
        manager = JobManager(store_root=cache_dir, workers=4,
                             queue_limit=16)
        server = ServiceThread(create_app(manager)).start()
        try:
            url = server.url
            start = time.perf_counter()
            created = post(url, body)
            wait_done(url, created["job_id"])
            cold_s = time.perf_counter() - start

            start = time.perf_counter()
            for _ in range(SERVICE_WARM_REQUESTS):
                response = post(url, body)
                assert response["cached"] is True
            warm_s = time.perf_counter() - start

            # N concurrent identical clients on a fresh submission.
            fresh = _json.dumps(
                spec.with_updates(
                    cluster=ClusterSpec(seed=1, trace_level=0)
                ).to_dict()).encode("utf-8")
            responses = []

            def client():
                responses.append(post(url, fresh))

            threads = [threading.Thread(target=client)
                       for _ in range(SERVICE_CONCURRENT_CLIENTS)]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wait_done(url, responses[0]["job_id"])
            fanin_s = time.perf_counter() - start
            counters = manager.metrics_snapshot()["service"]["counters"]
        finally:
            server.stop()
            manager.shutdown()
    assert len({r["job_id"] for r in responses}) == 1
    # 2 = the cold job + the fan-in job; everything else attached.
    executed = counters["service.created"]
    assert executed == 2, counters
    return {
        "rounds": spec.n_rounds,
        "cold_s": round(cold_s, 4),
        "warm_requests": SERVICE_WARM_REQUESTS,
        "warm_s": round(warm_s, 4),
        "warm_requests_per_s": round(SERVICE_WARM_REQUESTS / warm_s, 1),
        "speedup": round(cold_s / (warm_s / SERVICE_WARM_REQUESTS), 2),
        "concurrent_clients": SERVICE_CONCURRENT_CLIENTS,
        "concurrent_s": round(fanin_s, 4),
        "simulations_executed": executed - 1,
        "submissions": counters["service.submitted"],
    }


def test_throughput_summary(benchmark):
    def measure():
        points = []
        for n in POINTS:
            rps = _rounds_per_s(n)
            points.append({"n_nodes": n, "rounds": ROUNDS,
                           "rounds_per_s": round(rps, 1),
                           "slots_per_s": round(rps * n, 1)})
        sustained = {
            "n_nodes": SUSTAINED_N, "rounds": ROUNDS,
            "scenario": "crash(2) never isolated; one ε row per matrix",
            "tuple_rounds_per_s": round(_rounds_per_s(
                SUSTAINED_N, bitset=False, sustained_fault=True), 1),
            "bitset_rounds_per_s": round(_rounds_per_s(
                SUSTAINED_N, bitset=True, sustained_fault=True), 1),
        }
        sustained["speedup"] = round(
            sustained["bitset_rounds_per_s"]
            / sustained["tuple_rounds_per_s"], 2)
        backends = _backend_points() if NUMPY_AVAILABLE else None
        return (points, sustained, _campaign_cache_point(),
                _dispatch_point(), _service_point(), backends)

    points, sustained, campaign_cache, dispatch, service, backends = \
        benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [(p["n_nodes"], p["rounds"],
             f"{p['rounds_per_s']:,.0f} rounds/s",
             f"{p['slots_per_s']:,.0f} slots/s") for p in points]
    rows.append((f"{SUSTAINED_N} (faulty)", ROUNDS,
                 f"{sustained['bitset_rounds_per_s']:,.0f} rounds/s",
                 f"{sustained['speedup']}x vs tuple plane"))
    rows.append(("campaign (warm)", campaign_cache["tasks"],
                 f"{campaign_cache['warm_tasks_per_s']:,.0f} tasks/s",
                 f"{campaign_cache['speedup']}x vs cold"))
    rows.append(("consult (batched)", campaign_cache["tasks"],
                 f"{campaign_cache['consult_batched_tasks_per_s']:,.0f} "
                 f"tasks/s",
                 f"{campaign_cache['consult_speedup']}x vs per-key gets"))
    rows.append((f"dispatch (jobs={dispatch['jobs']})", dispatch["tasks"],
                 f"{dispatch['persistent_pool_s']:.2f} s campaign",
                 f"remote-stub {dispatch['remote_stub_s']:.2f} s"))
    rows.append(("service (warm)", service["warm_requests"],
                 f"{service['warm_requests_per_s']:,.0f} req/s",
                 f"{service['speedup']}x vs cold POST"))
    rows.append((f"service ({service['concurrent_clients']} clients)",
                 service["concurrent_clients"],
                 f"{service['simulations_executed']} simulation executed",
                 "content-addressed dedup"))
    if backends:
        for p in backends["points"]:
            rows.append((f"{p['n_nodes']} (vectorized)", p["rounds"],
                         f"{p['vectorized_rounds_per_s']:,.0f} rounds/s",
                         f"{p['speedup']}x vs event backend"))
        mc = backends["monte_carlo"]
        rows.append((f"{mc['n_nodes']} (Monte Carlo)", mc["replicates"],
                     f"{mc['replicates_per_s']:,.0f} replicates/s",
                     f"{mc['speedup']}x vs per-task event runs"))
        ge = backends["gilbert_elliott"]
        rows.append((f"{ge['n_nodes']} (GE bursts)", ge["rounds"],
                     f"{ge['vectorized_rounds_per_s']:,.0f} rounds/s",
                     f"{ge['speedup']}x vs event backend"))
    emit("simulator_throughput", render_table(
        ["N", "rounds simulated", "throughput", "slot throughput"],
        rows, title="Substrate throughput (full diagnostic stack)"))
    document = {
        "benchmark": "simulator_throughput",
        "config": {"trace_level": 0, "fault_free": True,
                   "rounds_per_point": ROUNDS},
        "points": points,
        "sustained_fault": sustained,
        "campaign_cache": campaign_cache,
        "dispatch": dispatch,
        "service": service,
    }
    if backends:
        document["backends"] = backends
    emit_json("BENCH_simulator_throughput", document)
