"""Command-line interface: regenerate the paper's experiments.

Installed as ``repro-diag``.  Subcommands map to the evaluation:

* ``repro-diag validate [--reps N]`` — the Sec. 8 fault-injection campaign;
* ``repro-diag table2``              — the Sec. 9 tuning experiment;
* ``repro-diag table4``              — abnormal-transient time-to-isolation;
* ``repro-diag figure3``             — the reward-threshold tradeoff;
* ``repro-diag demo``                — a small annotated cluster run;
* ``repro-diag stats``               — a metered run printing the online
  metrics report (works at trace level 0);
* ``repro-diag spec EXPERIMENT``     — emit an experiment's serialized
  :class:`~repro.spec.RunSpec` JSON (a single object or an array);
* ``repro-diag run PATH``            — execute RunSpec JSON from a file
  or stdin (``-``), e.g.
  ``repro-diag spec validate --reps 1 | repro-diag run -``;
* ``repro-diag campaign run SOURCE`` — run a named campaign
  (``validate``, ``table2``) or a RunSpec JSON file through the
  persistent campaign engine: results cached by content address in the
  store (``--store DIR``), resumable with ``--resume``, failed tasks
  retried with backoff under a per-task ``--task-timeout``;
* ``repro-diag campaign status``     — campaign records with progress
  read from the store, plus its footprint;
* ``repro-diag campaign gc``         — evict old cache entries, compact
  the payload shards, drop campaigns none of whose results remain;
* ``repro-diag results render SOURCE`` — render a campaign ``--out``
  document (or a named campaign's cached store results) as ascii,
  markdown, latex, csv, html or json without re-running anything;
* ``repro-diag results diff A B``    — digest-keyed cross-campaign diff:
  cell-by-cell table comparison plus the diverging spec parameters
  behind every changed task digest;
* ``repro-diag results plot SOURCE`` — matplotlib plot emitters for the
  declared series (soft dependency: exits 2 with an actionable message
  when matplotlib is missing);
* ``repro-diag serve``               — the diagnosis-as-a-service HTTP
  job server (:mod:`repro.service`): POST RunSpec/campaign JSON to
  ``/v1/jobs``, identical submissions dedup onto one run by content
  address, progress streams as replayable SSE, results come back as
  the same documents ``campaign run --out`` writes.

``validate``, ``table2``, ``stats`` and ``run`` accept
``--metrics-out PATH`` to write a deterministic JSON run report (see
:mod:`repro.obs`): the file is byte-identical across repeated runs and
across ``--jobs`` values, so it can be diffed against a checked-in
golden copy.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from . import __version__
from .analysis.reporting import render_table


def _write_metrics_report(path: str, command: str, params: dict,
                          snapshot: dict) -> None:
    """Write a deterministic run report and confirm on stdout.

    ``params`` must stay semantic (seeds, sizes, reps) — never worker
    counts — so the file is byte-diffable across ``--jobs`` values.
    """
    from .obs import run_report, write_report

    write_report(path, run_report(command, params, snapshot))
    print(f"metrics report written to {path}")


def _error(exc: Exception) -> int:
    """Report bad input on stderr; exit status 2."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _cmd_named_campaign(args: argparse.Namespace) -> int:
    """``validate`` / ``table2``: the named campaign, run without a store."""
    from .campaign import CAMPAIGN_KNOBS, build_campaign, run_campaign

    # The verb's own flags among the campaign knobs; they are also the
    # report's params (semantic only, never --jobs).
    knobs = {key: getattr(args, key) for key in CAMPAIGN_KNOBS
             if hasattr(args, key)}
    try:
        definition = build_campaign(args.command, **knobs)
    except ValueError as exc:
        return _error(exc)
    result = run_campaign(definition.labeled_specs, name=definition.name,
                          jobs=args.jobs)
    result.raise_first_error()
    value = definition.aggregate(result.results)
    print(definition.render(value))
    if args.metrics_out:
        _write_metrics_report(args.metrics_out, args.command, knobs,
                              result.merged_snapshot())
    return 0 if getattr(value, "all_passed", True) else 1


def _cmd_table4(args: argparse.Namespace) -> int:
    from .experiments.adverse import TABLE4_TABLE, table4
    from .results.render import render_ascii

    print(render_ascii(TABLE4_TABLE.build(table4(seed=args.seed))))
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from .experiments.figure3 import (
        FIGURE3_TABLE,
        figure3_series,
        paper_choice_line,
    )
    from .results.render import render_ascii

    for series in figure3_series():
        print(render_ascii(FIGURE3_TABLE.build(series)))
        print()
    print(paper_choice_line())
    return 0


def _demo_spec(seed: int):
    """The demo run (4 nodes, 1-slot burst in round 5 / slot 2) as a spec."""
    from .core import uniform_config
    from .spec import ClusterSpec, ProtocolSpec, RunSpec, ScenarioSpec

    config = uniform_config(4, penalty_threshold=3, reward_threshold=50)
    return RunSpec(
        protocol=ProtocolSpec.from_config(config),
        cluster=ClusterSpec(seed=seed),
        scenarios=(ScenarioSpec("SlotBurst",
                                {"round_index": 5, "slot": 2, "n_slots": 1}),),
        n_rounds=14,
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    from .spec import build

    spec = _demo_spec(args.seed)
    dc = build(spec)
    dc.run_rounds(spec.n_rounds)
    rows = []
    for d_round, hv in sorted(dc.health_vectors(1).items()):
        rows.append((d_round, " ".join(map(str, hv))))
    print(render_table(["diagnosed round", "consistent health vector"], rows,
                       title="Demo: 4-node cluster, 1-slot burst in "
                             "round 5 / slot 2"))
    print(f"consistent across nodes: {dc.consistent_health_history()}")
    return 0


def _cmd_portability(args: argparse.Namespace) -> int:
    from .experiments.portability import PORTABILITY_TABLE, portability_sweep
    from .results.render import render_ascii

    print(render_ascii(
        PORTABILITY_TABLE.build(portability_sweep(seed=args.seed))))
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from .experiments.resilience import (
        RESILIENCE_TABLE,
        capacity_frontier,
        resilience_sweep,
    )
    from .results.render import render_ascii

    points = resilience_sweep(seeds=(args.seed,))
    print(render_ascii(
        RESILIENCE_TABLE.build((points, capacity_frontier()))))
    return 0


def _cmd_discrimination(args: argparse.Namespace) -> int:
    from .experiments.discrimination import (
        DISCRIMINATION_TABLE,
        discrimination_study,
    )
    from .results.render import render_ascii

    print(render_ascii(DISCRIMINATION_TABLE.build(
        discrimination_study(repetitions=args.reps))))
    return 0


def _stats_spec(nodes: int, rounds: int, seed: int, scenario: str):
    """The stats run as a spec (trace dark, metrics as the only eyes)."""
    from .core import uniform_config
    from .faults.scenarios import crash
    from .spec import ClusterSpec, ProtocolSpec, RunSpec, ScenarioSpec

    config = uniform_config(nodes, penalty_threshold=3, reward_threshold=50)
    target = 2 if nodes >= 2 else 1
    scenarios = ()
    if scenario == "burst":
        scenarios = (ScenarioSpec("SlotBurst",
                                  {"round_index": 5, "slot": target,
                                   "n_slots": 2}),)
    elif scenario == "crash":
        scenarios = (ScenarioSpec.from_scenario(crash(target, from_round=6)),)
    elif scenario == "noise":
        scenarios = (ScenarioSpec("RandomSlotNoise",
                                  {"probability": 0.05,
                                   "rng_stream": "stats-noise"}),)
    # trace_level=0: the point of this command is that the metrics
    # registry observes the protocol online, with the trace dark.
    return RunSpec(
        protocol=ProtocolSpec.from_config(config),
        cluster=ClusterSpec(seed=seed, trace_level=0),
        scenarios=scenarios,
        n_rounds=rounds,
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry, render_text, render_timings
    from .spec import build

    registry = MetricsRegistry(timing=args.timing)
    spec = _stats_spec(args.nodes, args.rounds, args.seed, args.scenario)
    dc = build(spec, metrics=registry)
    dc.run_rounds(spec.n_rounds)

    snapshot = registry.snapshot()
    print(render_text(snapshot,
                      title=f"stats: N={args.nodes}, {args.rounds} rounds, "
                            f"scenario={args.scenario}, seed={args.seed}"))
    if args.timing:
        print()
        print(render_timings(registry.timings_snapshot()))
    if args.metrics_out:
        _write_metrics_report(args.metrics_out, "stats",
                              {"nodes": args.nodes, "rounds": args.rounds,
                               "seed": args.seed,
                               "scenario": args.scenario}, snapshot)
    return 0


def _timeline_spec(seed: int):
    """The timeline run (node 2 crashes at round 6) as a spec."""
    from .core import uniform_config
    from .faults.scenarios import crash
    from .spec import ClusterSpec, ProtocolSpec, RunSpec, ScenarioSpec

    config = uniform_config(4, penalty_threshold=3, reward_threshold=50)
    return RunSpec(
        protocol=ProtocolSpec.from_config(config),
        cluster=ClusterSpec(seed=seed),
        scenarios=(ScenarioSpec.from_scenario(crash(2, from_round=6)),),
        n_rounds=16,
    )


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .analysis.timeline import render_timeline
    from .spec import build

    spec = _timeline_spec(args.seed)
    dc = build(spec)
    dc.run_rounds(spec.n_rounds)
    print(render_timeline(dc.trace, 4, first_round=4, last_round=14))
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    if args.experiment == "demo":
        sys.stdout.write(_demo_spec(args.seed).to_json())
        return 0
    from .campaign import build_campaign

    try:
        definition = build_campaign(args.experiment, reps=args.reps,
                                    nodes=args.nodes, seed=args.seed)
    except ValueError as exc:
        return _error(exc)
    print(json.dumps([spec.to_dict() for _label, spec
                      in definition.labeled_specs], indent=2, sort_keys=True))
    return 0


def _read_spec_file(path: str):
    """The ad-hoc campaign of a RunSpec JSON file (``-`` = stdin)."""
    from .campaign import specs_campaign

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return specs_campaign(data)


def _cmd_run(args: argparse.Namespace) -> int:
    from .campaign import run_campaign, with_backend

    try:
        definition = with_backend(_read_spec_file(args.path),
                                  args.backend)
    except (OSError, ValueError) as exc:
        return _error(exc)
    # No store and no retries: a failing spec (e.g. UnsupportedSpecError,
    # a feature only the event engine models) is reported at once.
    result = run_campaign(definition.labeled_specs, jobs=args.jobs,
                          retries=0)
    if result.errors:
        error = result.errors[0]
        print(f"error: {error.error_type}: {error.message}",
              file=sys.stderr)
        return 2
    # A result scores a run when it carries a ``passed`` verdict.
    verdicts = [outcome.get("passed") if isinstance(outcome, dict) else None
                for outcome in result.results]
    for outcome in result.results:
        print(outcome)
    scored = sum(v is not None for v in verdicts)
    failed = sum(v is False for v in verdicts)
    print(f"{len(result.results)} run(s), {scored} scored, {failed} failed")
    if args.metrics_out:
        _write_metrics_report(args.metrics_out, "run", definition.params,
                              result.merged_snapshot())
    return 1 if failed else 0


def _open_store(args, metrics):
    """The result store the campaign commands operate on (or None)."""
    from .store import ResultStore

    if getattr(args, "no_store", False):
        return None
    return ResultStore(args.store, metrics=metrics)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    import os

    from .campaign import (
        NAMED_CAMPAIGNS,
        InterruptedCampaignError,
        build_campaign,
        result_document,
        run_campaign,
        with_backend,
    )
    from .obs import MetricsRegistry, render_text

    try:
        if args.source in NAMED_CAMPAIGNS:
            definition = build_campaign(args.source, reps=args.reps,
                                        nodes=args.nodes, seed=args.seed)
        elif os.path.isfile(args.source) or args.source == "-":
            definition = _read_spec_file(args.source)
        else:
            raise ValueError(f"{args.source!r} is neither a named campaign "
                             f"{NAMED_CAMPAIGNS} nor a spec file")
        definition = with_backend(definition, args.backend)
    except (OSError, ValueError) as exc:
        return _error(exc)

    engine_metrics = MetricsRegistry()
    store = _open_store(args, engine_metrics)
    try:
        result = run_campaign(
            definition.labeled_specs, name=definition.name, store=store,
            jobs=args.jobs, retries=args.retries,
            task_timeout=args.task_timeout, resume=args.resume,
            metrics=engine_metrics, dispatch=args.dispatch)
    except InterruptedCampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if store is not None:
            store.close()

    errors = result.errors
    if not errors:
        print(definition.render(definition.aggregate(result.results)))
    else:
        for error in errors:
            label = result.tasks[error.index].label
            print(f"task {error.index} [{label}] failed: "
                  f"{error.error_type}: {error.message}")
    print(f"{len(result.tasks)} task(s): {result.hits} cached, "
          f"{result.misses} executed, {result.retried} retried, "
          f"{len(errors)} failed")
    if args.verbose_stats:
        print()
        print(render_text(engine_metrics.snapshot(),
                          title="campaign engine counters"))
    if args.out:
        from .obs.export import render_json

        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_json(result_document(definition, result)))
        print(f"campaign results written to {args.out}")
    if args.metrics_out:
        _write_metrics_report(args.metrics_out, "campaign",
                              dict(definition.params,
                                   campaign=definition.name),
                              result.merged_snapshot())
    return 1 if errors else 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry

    store = _open_store(args, MetricsRegistry(enabled=False))
    try:
        rows = [(c["campaign_id"], c["name"], c["status"],
                 f"{c['done']}/{c['total']}", c["failed"])
                for c in store.campaigns()]
        if rows:
            print(render_table(
                ["campaign", "name", "status", "done", "failed"], rows,
                title=f"campaigns in {store.root}"))
        else:
            print(f"no campaigns in {store.root}")
        stats = store.stats()
        print(f"store: {stats['entries']} cached result(s), "
              f"{stats['shard_bytes']} payload byte(s) in {stats['root']}")
    finally:
        store.close()
    return 0


def _cmd_campaign_gc(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry

    store = _open_store(args, MetricsRegistry(enabled=False))
    try:
        max_age = args.max_age_days * 86400.0 \
            if args.max_age_days is not None else None
        stats = store.gc(max_entries=args.max_entries,
                         max_age_seconds=max_age)
    finally:
        store.close()
    print(f"gc: evicted {stats.evicted} entrie(s), dropped "
          f"{stats.orphans_dropped} stale record(s) and "
          f"{stats.campaigns_dropped} campaign(s), kept {stats.kept}; "
          f"shards {stats.bytes_before} -> {stats.bytes_after} bytes")
    return 0


#: ``results render --format`` spellings -> canonical renderer names.
_FORMAT_ALIASES = {"md": "markdown", "tex": "latex"}


def _cmd_results_render(args: argparse.Namespace) -> int:
    from .campaign import NAMED_CAMPAIGNS, build_campaign
    from .results import source
    from .results.render import render_tables

    fmt = _FORMAT_ALIASES.get(args.format, args.format)

    def select(tables):
        if not args.table:
            return tables
        chosen = [t for t in tables if t.name == args.table]
        if not chosen:
            names = ", ".join(t.name for t in tables)
            raise source.DocumentError(
                f"no table named {args.table!r}; available: {names}")
        return chosen

    try:
        if args.source in NAMED_CAMPAIGNS:
            # Live store lookups by content address: render what the
            # campaign engine already cached, executing nothing.
            from .obs import MetricsRegistry

            definition = build_campaign(args.source, reps=args.reps,
                                        nodes=args.nodes, seed=args.seed)
            store = _open_store(args, MetricsRegistry(enabled=False))
            try:
                tables = source.tables_from_store(definition, store)
            finally:
                store.close()
            text = render_tables(select(tables), fmt)
        else:
            doc = source.load_document(args.source)
            text = _render_document(doc, fmt, select, args.store)
    except (OSError, ValueError) as exc:
        return _error(exc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"rendered results written to {args.out}")
    else:
        print(text)
    return 0


def _render_document(doc, fmt: str, select, store_dir: str) -> str:
    """Render one document, memoizing in the store when one is given."""
    from .results import source
    from .results.render import render_tables

    def compute() -> str:
        return render_tables(select(source.tables_for_document(doc)), fmt)

    if not store_dir:
        return compute()
    from .obs import MetricsRegistry
    from .results.cache import DerivedCache
    from .store import ResultStore

    store = ResultStore(store_dir, metrics=MetricsRegistry(enabled=False))
    try:
        cache = DerivedCache(store)
        fingerprint = source.document_fingerprint(doc)
        return cache.get_or_compute(fingerprint, f"render.{fmt}", compute)
    finally:
        store.close()


def _cmd_results_diff(args: argparse.Namespace) -> int:
    from .results import source
    from .results.diff import diff_documents, render_diff

    try:
        doc_a = source.load_document(args.a)
        doc_b = source.load_document(args.b)
        diff = diff_documents(doc_a, doc_b)
    except (OSError, ValueError) as exc:
        return _error(exc)
    store = None
    if args.store:
        from .obs import MetricsRegistry
        from .store import ResultStore

        store = ResultStore(args.store,
                            metrics=MetricsRegistry(enabled=False))
    try:
        print(render_diff(diff, store=store))
    finally:
        if store is not None:
            store.close()
    return 0 if diff.identical else 1


def _cmd_results_plot(args: argparse.Namespace) -> int:
    from .results.plots import PlotUnavailableError, require_matplotlib

    try:
        # Gate before any document work, mirroring the numpy check of
        # --backend vectorized: missing matplotlib is a clean exit 2.
        require_matplotlib()
    except PlotUnavailableError as exc:
        return _error(exc)
    from .results import source
    from .results.plots import emit_plots

    try:
        if args.source == "figure3":
            from .experiments.figure3 import FIGURE3_SERIES, figure3_series

            series = [FIGURE3_SERIES.build(figure3_series())]
        else:
            doc = source.load_document(args.source)
            series = source.series_for_document(doc)
            if not series:
                print(f"error: campaign {doc.campaign!r} declares no plot "
                      f"series", file=sys.stderr)
                return 2
        paths = emit_plots(series, args.out_dir, fmt=args.format)
    except (OSError, ValueError) as exc:
        return _error(exc)
    for path in paths:
        print(f"plot written to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import JobManager, create_app
    from .service.asgi import ServiceUnavailableError, require_uvicorn

    if args.impl == "uvicorn":
        try:
            # Gate before building anything, mirroring the numpy /
            # matplotlib soft-dependency checks: exit 2 with the
            # install hint when the `service` extra is missing.
            require_uvicorn()
        except ServiceUnavailableError as exc:
            return _error(exc)
    manager = JobManager(
        store_root=args.store,
        workers=args.workers,
        queue_limit=args.queue_limit,
        engine_jobs=args.jobs,
        retries=args.retries,
        task_timeout=args.task_timeout,
    )
    app = create_app(manager)
    try:
        if args.impl == "uvicorn":
            from .service.asgi import run_uvicorn

            run_uvicorn(app, args.host, args.port)
            return 0
        from .service.http import ServiceThread

        server = ServiceThread(app, host=args.host, port=args.port)
        try:
            server.start()
        except OSError as exc:
            print(f"error: cannot bind {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"repro-diag service listening on {server.url}")
        print("POST /v1/jobs to submit; ctrl-c to drain and stop")
        sys.stdout.flush()
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down: draining in-flight jobs...")
        finally:
            server.stop()
        return 0
    finally:
        manager.shutdown()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-diag",
        description="Reproduction of the DSN'07 tunable add-on diagnostic "
                    "protocol for time-triggered systems.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the Sec. 8 validation campaign")
    p.add_argument("--reps", type=int, default=5,
                   help="repetitions per experiment class (paper: 100)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = serial; results are "
                        "identical for any value)")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write a deterministic JSON metrics report "
                        "(byte-identical across runs and --jobs values)")
    p.set_defaults(func=_cmd_named_campaign)

    p = sub.add_parser("stats", help="run a metered cluster and print the "
                                     "online metrics report")
    p.add_argument("--nodes", type=int, default=4, help="cluster size")
    p.add_argument("--rounds", type=int, default=50,
                   help="TDMA rounds to simulate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", choices=("fault-free", "burst", "crash",
                                          "noise"), default="fault-free",
                   help="optional fault process to inject")
    p.add_argument("--timing", action="store_true",
                   help="also collect wall-clock phase timings "
                        "(nondeterministic; excluded from --metrics-out)")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write a deterministic JSON metrics report")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("discrimination",
                       help="healthy/unhealthy filter comparison")
    p.add_argument("--reps", type=int, default=10,
                   help="generated populations")
    p.set_defaults(func=_cmd_discrimination)

    p = sub.add_parser("spec", help="emit an experiment's serialized "
                                    "RunSpec JSON")
    p.add_argument("experiment", choices=("demo", "validate", "table2"),
                   help="experiment to serialize (demo: one spec; "
                        "validate/table2: an array)")
    p.add_argument("--reps", type=int, default=1,
                   help="repetitions per class (validate only)")
    p.add_argument("--nodes", type=int, default=4,
                   help="cluster size (validate only)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_spec)

    p = sub.add_parser("campaign",
                       help="persistent campaigns: cached, resumable, "
                            "fault-tolerant sweeps")
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    p = campaign_sub.add_parser(
        "run", help="run a named campaign (validate, table2, rare-events) "
                    "or a RunSpec JSON file through the campaign engine")
    p.add_argument("source",
                   help="campaign name (validate, table2, rare-events), "
                        "a RunSpec JSON file, or - for stdin")
    p.add_argument("--reps", type=int, default=5,
                   help="repetitions per class (validate) or replicates "
                        "per rate (rare-events)")
    p.add_argument("--nodes", type=int, default=4,
                   help="cluster size (validate, rare-events)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed (table2, rare-events)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (results identical for any value)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="result store directory (default: REPRO_CACHE_DIR "
                        "or ~/.cache/repro-diag)")
    p.add_argument("--no-store", action="store_true",
                   help="run without the persistent store (no caching, "
                        "no resume)")
    p.add_argument("--resume", action="store_true",
                   help="continue a campaign whose record in the store "
                        "says it never finished")
    p.add_argument("--retries", type=int, default=2,
                   help="re-dispatch rounds for failed tasks")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-task deadline enforced inside the worker")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the deterministic campaign result JSON "
                        "(byte-identical across --jobs, cache state and "
                        "kill/resume cycles)")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write a deterministic JSON metrics report")
    p.add_argument("--verbose-stats", action="store_true",
                   help="also print the engine's store/retry counters")
    p.add_argument("--backend", choices=("event", "vectorized"), default=None,
                   help="override the simulation backend on every spec; "
                        "vectorized Monte Carlo replicates dispatch as "
                        "lockstep kernel batches")
    p.add_argument("--dispatch", choices=("pool", "remote-stub"),
                   default="pool",
                   help="dispatch backend: one persistent process pool "
                        "or subprocess-per-host remote stub (results "
                        "identical for either choice)")
    p.set_defaults(func=_cmd_campaign_run)

    p = campaign_sub.add_parser(
        "status", help="show campaigns, their progress and the store "
                       "footprint")
    p.add_argument("--store", metavar="DIR", default=None)
    p.set_defaults(func=_cmd_campaign_status)

    p = campaign_sub.add_parser(
        "gc", help="evict old cache entries and compact payload shards")
    p.add_argument("--store", metavar="DIR", default=None)
    p.add_argument("--max-entries", type=int, default=None,
                   help="keep at most this many entries (LRU eviction)")
    p.add_argument("--max-age-days", type=float, default=None,
                   help="evict entries unused for this many days")
    p.set_defaults(func=_cmd_campaign_gc)

    p = sub.add_parser("results",
                       help="render, diff and plot campaign results "
                            "without re-running anything")
    results_sub = p.add_subparsers(dest="results_command", required=True)

    p = results_sub.add_parser(
        "render", help="render a campaign document (or a named campaign's "
                       "cached results) as ascii/markdown/latex/csv/"
                       "html/json")
    p.add_argument("source",
                   help="campaign result JSON (--out document), - for "
                        "stdin, or a named campaign (validate, table2, "
                        "rare-events) to read live from the store")
    p.add_argument("--format", choices=("ascii", "md", "markdown", "latex",
                                        "tex", "csv", "html", "json"),
                   default="ascii",
                   help="output format (md/tex are aliases)")
    p.add_argument("--table", metavar="NAME", default=None,
                   help="render only the named table")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write to a file instead of stdout")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="result store directory; required for named "
                        "campaigns, enables the derived-value cache for "
                        "documents")
    p.add_argument("--reps", type=int, default=5,
                   help="named campaigns: repetitions per class/rate")
    p.add_argument("--nodes", type=int, default=4,
                   help="named campaigns: cluster size")
    p.add_argument("--seed", type=int, default=0,
                   help="named campaigns: seed")
    p.set_defaults(func=_cmd_results_render)

    p = results_sub.add_parser(
        "diff", help="compare two campaign documents cell-by-cell and "
                     "name the spec parameters behind diverging digests")
    p.add_argument("a", help="first campaign result JSON")
    p.add_argument("b", help="second campaign result JSON")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="result store directory: annotate diverging "
                        "digests with their cached store keys")
    p.set_defaults(func=_cmd_results_diff)

    p = results_sub.add_parser(
        "plot", help="emit matplotlib plots for a campaign document's "
                     "declared series (requires matplotlib)")
    p.add_argument("source",
                   help="campaign result JSON, - for stdin, or 'figure3' "
                        "for the Fig. 3 tradeoff curves")
    p.add_argument("--out-dir", metavar="DIR", default=".",
                   help="directory the plot files are written to")
    p.add_argument("--format", choices=("png", "svg", "pdf"), default="png",
                   help="image format")
    p.set_defaults(func=_cmd_results_plot)

    p = sub.add_parser("serve",
                       help="serve diagnosis campaigns over HTTP: "
                            "content-addressed job dedup, SSE progress, "
                            "store-first caching (repro.service)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback)")
    p.add_argument("--port", type=int, default=8377,
                   help="bind port (0 = pick a free port)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="result store directory (default: REPRO_CACHE_DIR "
                        "or ~/.cache/repro-diag)")
    p.add_argument("--workers", type=int, default=2,
                   help="campaign worker threads")
    p.add_argument("--queue-limit", type=int, default=8,
                   help="max queued+running jobs before HTTP 429")
    p.add_argument("--jobs", type=int, default=1,
                   help="engine worker processes per campaign (1 = serial "
                        "and fully deterministic event streams)")
    p.add_argument("--retries", type=int, default=2,
                   help="re-dispatch rounds for failed tasks")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-task deadline enforced inside the worker")
    p.add_argument("--impl", choices=("stdlib", "uvicorn"),
                   default="stdlib",
                   help="HTTP host: the built-in stdlib asyncio server, "
                        "or uvicorn (requires the `service` extra)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("run", help="execute RunSpec JSON from a file "
                                   "or stdin (-)")
    p.add_argument("path", help="spec file (a single object or an array), "
                                "or - for stdin")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (results identical for any value)")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write a deterministic JSON metrics report")
    p.add_argument("--backend", choices=("event", "vectorized"), default=None,
                   help="override the simulation backend on every spec "
                        "(vectorized = numpy round kernel, bit-identical "
                        "observables)")
    p.set_defaults(func=_cmd_run)

    for name, func, help_text in (
            ("table2", _cmd_named_campaign,
             "reproduce Table 2 (p/r tuning)"),
            ("table4", _cmd_table4, "reproduce Table 4 (time to isolation)"),
            ("figure3", _cmd_figure3, "reproduce Fig. 3 (reward tradeoff)"),
            ("portability", _cmd_portability,
             "run the protocol across TT platform profiles"),
            ("resilience", _cmd_resilience,
             "empirical Lemma 2 fault-allocation sweep"),
            ("timeline", _cmd_timeline,
             "render an annotated round/slot timeline"),
            ("demo", _cmd_demo, "run a small annotated demo cluster")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0)
        if name == "table2":
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes (results identical "
                                "for any value)")
            p.add_argument("--metrics-out", metavar="PATH", default=None,
                           help="write a deterministic JSON metrics report")
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
