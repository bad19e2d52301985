"""The one build path: spec -> cluster -> result.

:func:`build` assembles the exact stack a hand-wired experiment would —
:class:`~repro.core.service.DiagnosedCluster`,
:class:`~repro.core.service.MembershipCluster` or
:class:`~repro.core.service.LowLatencyCluster` — from a
:class:`~repro.spec.model.RunSpec`, attaching every scenario (slot
bursts resolve their windows at attach, stochastic scenarios draw from
the cluster's named streams).

:func:`execute` drives the built cluster for ``spec.n_rounds`` and
applies a reducer (the spec's named one by default).  When a metrics
registry is supplied, the run additionally increments the provenance
counter ``spec.run.<digest>``, so merged observability reports say
exactly which serialized runs produced them.

:func:`run_spec_dict` is the generic, picklable worker the parallel
runner fans out: specs travel between processes as the plain dicts
``RunSpec.to_dict`` emits, which keeps ``jobs=N`` byte-identical to
``jobs=1``.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..core.service import (
    DiagnosedCluster,
    LowLatencyCluster,
    MembershipCluster,
)
from .model import RunSpec
from .reducers import resolve_reducer

#: Metrics namespace for the per-run provenance counters.
PROVENANCE_PREFIX = "spec.run."

AnyCluster = Union[DiagnosedCluster, LowLatencyCluster]


def build(spec: RunSpec, metrics: Optional[Any] = None) -> AnyCluster:
    """Assemble the cluster a spec describes (without running it).

    The returned object is the same facade the hand-wired path would
    produce, with all scenarios attached; callers drive it with
    ``run_rounds`` and query it exactly as before.
    """
    config = spec.protocol.to_config()
    c, s, v = spec.cluster, spec.schedule, spec.variant
    common = dict(round_length=c.round_length, tx_fraction=c.tx_fraction,
                  seed=c.seed, n_channels=c.n_channels,
                  trace_level=c.trace_level, metrics=metrics)
    if v.service == "lowlatency":
        target: AnyCluster = LowLatencyCluster(
            config, membership=v.lowlatency_membership, **common)
    else:
        cluster_cls = (DiagnosedCluster if v.service == "diagnostic"
                       else MembershipCluster)
        if s.kind == "dynamic":
            common["dynamic_schedules"] = True
        elif s.kind == "static":
            exec_after = s.exec_after
            common["exec_after"] = (exec_after if isinstance(exec_after, int)
                                    else list(exec_after))
        target = cluster_cls(config, byzantine_nodes=v.byzantine_nodes,
                             **common)
    for scenario_spec in spec.scenarios:
        scenario = scenario_spec.build(streams=target.cluster.streams)
        target.cluster.add_scenario(scenario)
        # Adaptive scenarios (e.g. AdaptiveSaboteur) read live protocol
        # state; hand them the facade they are attached to.
        bind_observer = getattr(scenario, "bind_observer", None)
        if callable(bind_observer):
            bind_observer(target)
    return target


def execute(spec: RunSpec, reducer: Union[None, str, Any] = None,
            metrics: Optional[Any] = None) -> Any:
    """Build, run and reduce one spec.

    ``reducer`` overrides the spec's own ``reducer`` name; with neither,
    the default summary reducer applies.  The reducer's optional
    ``prepare`` hook runs between assembly and driving, so it can
    install probes whose observations ``reduce`` scores afterwards.

    ``spec.backend`` picks the execution engine: ``"event"`` (default)
    drives the discrete-event cluster below; ``"vectorized"`` dispatches
    to the numpy round kernel (:mod:`repro.vec`), which produces the
    same result and metrics for the spec shapes it supports.
    """
    if spec.backend == "vectorized":
        from ..vec import execute_vectorized

        return execute_vectorized(spec, reducer=reducer, metrics=metrics)
    resolved = resolve_reducer(reducer if reducer is not None
                               else spec.reducer)
    target = build(spec, metrics=metrics)
    prepare = getattr(resolved, "prepare", None)
    state = prepare(target, spec) if prepare is not None else None
    target.run_rounds(spec.n_rounds)
    if metrics is not None and metrics.enabled:
        metrics.counter(PROVENANCE_PREFIX + spec.digest()).inc()
    return resolved.reduce(target, spec, state)


def run_spec_dict(spec_dict: dict, collect_metrics: bool = False):
    """Generic worker: execute a spec shipped as a plain dict.

    This is the only callable the parallel sweeps submit to the process
    pool.  Without ``collect_metrics`` it returns the reduced result;
    with it, the run is metered through a fresh in-process registry and
    the worker returns ``(result, snapshot)``.
    """
    spec = RunSpec.from_dict(spec_dict)
    if not collect_metrics:
        return execute(spec)
    from ..obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    result = execute(spec, metrics=registry)
    return result, registry.snapshot()


def strip_provenance(snapshot: dict) -> dict:
    """A copy of a metrics snapshot without the ``spec.run.*`` counters.

    Differential tests compare spec-built runs against hand-wired
    reference runs; the provenance counters are the one deliberate
    difference, so they are stripped before byte comparison.
    """
    counters = {name: value
                for name, value in snapshot.get("counters", {}).items()
                if not name.startswith(PROVENANCE_PREFIX)}
    stripped = dict(snapshot)
    stripped["counters"] = counters
    return stripped


__all__ = [
    "PROVENANCE_PREFIX",
    "build",
    "execute",
    "run_spec_dict",
    "strip_provenance",
]
