"""Pre-built parallel sweeps, now thin wrappers over the campaign engine.

Each sweep names a campaign definition from
:mod:`repro.campaign.definitions` — the exact serial loop order, the
same experiment-class names, the same per-repetition seeds — and hands
it to :func:`repro.campaign.run_campaign`, which dispatches the specs
through its persistent process pool (every task is the same generic
metered worker) and merges results back in task-submission order.
Consequences, unchanged from the pre-campaign sweeps:

* ``run_validation_sweep(reps, jobs=1)`` reproduces
  :func:`repro.experiments.validation.run_validation_campaign`
  exactly, and any ``jobs > 1`` reproduces ``jobs=1`` exactly;
* likewise ``run_table2_sweep(jobs=N)`` vs
  :func:`repro.experiments.table2.table2`.

What the campaign engine adds on top: pass a
:class:`~repro.store.ResultStore` as ``store`` and the sweep becomes
persistent — completed repetitions are cached by content address and a
re-run replays them (results *and* merged metrics byte-identical)
without simulating anything.  With ``with_metrics`` the sweep returns
``(aggregate, merged_snapshot)``; snapshot merging is commutative
integer addition, so the merged report is identical for every ``jobs``
value and every cache state.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from ..experiments.validation import PAPER_N_NODES
from ..spec import RunSpec
from ..store import ResultStore
from ..tt.cluster import PAPER_ROUND_LENGTH


def run_validation_sweep(repetitions: int = 100,
                         n_nodes: int = PAPER_N_NODES,
                         jobs: int = 1,
                         with_metrics: bool = False,
                         store: Optional[ResultStore] = None):
    """The Sec. 8 validation campaign, optionally fanned across workers.

    The aggregate :class:`CampaignSummary` is identical for every
    ``jobs`` value (and identical to the serial
    ``run_validation_campaign``): the specs carry explicit seeds and
    the results are merged in task order.  A worker failure raises
    (after the engine's bounded retries), matching serial behaviour.

    With ``with_metrics`` the call returns ``(summary, snapshot)``;
    with ``store`` the sweep consults/fills the persistent result
    store first.
    """
    # Imported lazily: repro.campaign imports the dispatch backends
    # from this package, so a module-level import here would be
    # circular.
    from ..campaign import run_campaign, validation_campaign

    definition = validation_campaign(repetitions=repetitions,
                                     n_nodes=n_nodes)
    result = run_campaign(definition.labeled_specs, name=definition.name,
                          store=store, jobs=jobs)
    result.raise_first_error()
    summary = definition.aggregate(result.results)
    if with_metrics:
        return summary, result.merged_snapshot()
    return summary


def run_table2_sweep(seed: int = 0,
                     round_length: float = PAPER_ROUND_LENGTH,
                     jobs: int = 1,
                     with_metrics: bool = False,
                     store: Optional[ResultStore] = None):
    """The Sec. 9 tuning experiment, one worker per (domain, class).

    Decomposes :func:`~repro.experiments.table2.table2` into its
    independent penalty-budget specs and assembles the identical row
    list.  With ``with_metrics`` returns ``(rows, merged_snapshot)``;
    the budget measurements run at ``trace_level=0``, so the metrics
    snapshot is the only online observability these runs have.
    """
    from ..campaign import run_campaign, table2_campaign

    definition = table2_campaign(seed=seed, round_length=round_length)
    result = run_campaign(definition.labeled_specs, name=definition.name,
                          store=store, jobs=jobs)
    result.raise_first_error()
    rows = definition.aggregate(result.results)
    if with_metrics:
        return rows, result.merged_snapshot()
    return rows


def monte_carlo_specs(spec: RunSpec, replicates: int) -> List[RunSpec]:
    """Seed-shifted replicate specs ``seed, seed + 1, ...`` of one spec."""
    base_seed = spec.cluster.seed
    return [replace(spec, cluster=replace(spec.cluster, seed=base_seed + i))
            for i in range(replicates)]


def run_monte_carlo_sweep(spec: RunSpec, replicates: int,
                          jobs: int = 1,
                          with_metrics: bool = False,
                          store: Optional[ResultStore] = None,
                          reducer: Optional[str] = None):
    """Monte Carlo: one spec across ``replicates`` seed-shifted copies.

    Results come back in replicate order, cached per replicate by
    content address when a ``store`` is given.  The backend decides the
    dispatch shape: event-backend replicates run one pool task each,
    while ``backend="vectorized"`` replicates that miss the cache are
    simulated as a single lockstep kernel batch per retry round —
    identical results and store bytes, one simulation instead of N.
    With ``with_metrics`` the call returns
    ``(results, merged_snapshot)``.  ``reducer`` overrides the spec's
    named reducer on every replicate (e.g. ``"isolation"`` for the
    rare-event estimators in :mod:`repro.analysis.rare`).
    """
    from ..campaign import run_campaign

    if reducer is not None:
        spec = replace(spec, reducer=reducer)
    specs = monte_carlo_specs(spec, replicates)
    result = run_campaign(
        [(f"replicate-{i}", replicate) for i, replicate in enumerate(specs)],
        name="monte-carlo", store=store, jobs=jobs)
    result.raise_first_error()
    if with_metrics:
        return result.results, result.merged_snapshot()
    return result.results


__all__ = [
    "monte_carlo_specs",
    "run_monte_carlo_sweep",
    "run_validation_sweep",
    "run_table2_sweep",
]
