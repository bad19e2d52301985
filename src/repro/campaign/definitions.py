"""Named campaign definitions: the paper's sweeps as campaign inputs.

A :class:`CampaignDefinition` bundles what the engine needs (ordered,
labelled specs), what reports need (the semantic parameters), and what
humans need (an ``aggregate`` over task-order results plus a ``render``
to text).

This module is also the campaign front door shared by the CLI
(``validate``, ``table2``, ``spec``, ``run``, ``campaign run``,
``results render``) and ``POST /v1/jobs``:

* :func:`build_campaign` — one name -> builder table, fed either the
  CLI / HTTP knobs (:data:`CAMPAIGN_KNOBS`) or a result document's
  ``params``;
* :func:`specs_campaign` — the one parser for RunSpec JSON lists;
* :func:`with_backend` — the one ``--backend`` / ``"backend"`` override.

Each raises :class:`ValueError` with a client-facing message on bad
input, including a request that enumerates no tasks; the CLI reports
it as exit 2 and the service as HTTP 400.

:func:`result_document` serializes a finished campaign into the stable
JSON document the CLI's ``--out`` writes: per-task results through the
store codec plus the task-order merged metrics snapshot, with no
execution details (worker counts, cache hits, timings) — so the file
is byte-identical across ``--jobs`` values, across cold/warm caches,
and across kill/resume cycles.  That file *is* the acceptance check
for the checkpoint/resume path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..results.render import render_ascii
from ..results.tables import Column, SeriesSpec, TableSpec
from ..runner.backends import TaskError
from ..spec import RunSpec
from ..spec.model import BACKENDS
from ..store.result_store import encode_value
from .engine import CampaignResult

#: Schema tag of the ``campaign run --out`` document.  ``/2`` embeds
#: the campaign's built tables so the document is self-describing;
#: readers accept both tags (``/1`` documents simply carry no tables).
CAMPAIGN_RESULT_SCHEMA = "repro-campaign-result/2"

#: Document schema tags the results pipeline accepts.
COMPATIBLE_RESULT_SCHEMAS = ("repro-campaign-result/1",
                             "repro-campaign-result/2")


@dataclass(frozen=True)
class CampaignDefinition:
    """One named campaign: labelled specs plus aggregation/rendering."""

    name: str
    labeled_specs: List[Tuple[str, RunSpec]]
    #: Semantic parameters only (seeds, sizes, reps) — never worker
    #: counts — so reports derived from them stay byte-diffable.
    params: Dict[str, Any]
    #: Task-order results -> aggregate value.
    aggregate: Callable[[List[Any]], Any]
    #: Declarative tables over the aggregate (may be empty for ad-hoc
    #: spec-file campaigns, which fall back to ``str()`` per result).
    tables: Tuple[TableSpec, ...] = ()
    #: Declarative plot series over the aggregate.
    series: Tuple[SeriesSpec, ...] = ()

    def build_tables(self, value: Any) -> List[Any]:
        """Materialise every declared table against one aggregate."""
        return [spec.build(value) for spec in self.tables]

    def render(self, value: Any) -> str:
        """Aggregate value -> human-readable text (ASCII tables)."""
        if not self.tables:
            return "\n".join(str(result) for result in value)
        return "\n\n".join(render_ascii(table)
                           for table in self.build_tables(value))


def validation_campaign(repetitions: int = 5,
                        n_nodes: int = 4) -> CampaignDefinition:
    """The Sec. 8 fault-injection campaign as a campaign definition."""
    from ..experiments.validation import (
        VALIDATION_TABLE,
        CampaignSummary,
        validation_specs,
    )

    labeled = validation_specs(repetitions, n_nodes)

    def aggregate(results: List[Any]) -> "CampaignSummary":
        summary = CampaignSummary()
        for (cls, _spec), result in zip(labeled, results):
            summary.add(cls, result["passed"])
        return summary

    return CampaignDefinition(
        name="validate", labeled_specs=labeled,
        params={"reps": repetitions, "nodes": n_nodes},
        aggregate=aggregate, tables=(VALIDATION_TABLE,))


def table2_campaign(seed: int = 0,
                    round_length: float = None) -> CampaignDefinition:
    """The Sec. 9 tuning experiment as a campaign definition."""
    from ..core.config import (
        AEROSPACE_TOLERATED_OUTAGE,
        AUTOMOTIVE_TOLERATED_OUTAGE,
        PAPER_REWARD_THRESHOLD,
    )
    from ..experiments.table2 import (
        TABLE2_TABLE,
        Table2Row,
        penalty_budget_spec,
    )
    from ..tt.cluster import PAPER_ROUND_LENGTH

    if round_length is None:
        round_length = PAPER_ROUND_LENGTH
    # A result document's params arrive here unchecked.
    if not (isinstance(round_length, (int, float))
            and 0 < round_length < math.inf):
        raise ValueError(f"'round_length' must be a positive number, "
                         f"got {round_length!r}")
    domains = (("Automotive", AUTOMOTIVE_TOLERATED_OUTAGE),
               ("Aerospace", AEROSPACE_TOLERATED_OUTAGE))
    labeled: List[Tuple[str, RunSpec]] = []
    keys: List[Tuple[str, Any, float]] = []
    for domain, outages in domains:
        for cls, outage in outages.items():
            keys.append((domain, cls, outage))
            labeled.append((
                f"{domain}:{cls.name}",
                penalty_budget_spec(outage, seed=seed,
                                    round_length=round_length)))

    def aggregate(results: List[Any]) -> List["Table2Row"]:
        measured = {(domain, cls): budget
                    for (domain, cls, _outage), budget in
                    zip(keys, results)}
        rows: List[Table2Row] = []
        for domain, outages in domains:
            penalty_threshold = max(measured[(domain, cls)]
                                    for cls in outages)
            for cls, outage in outages.items():
                budget = measured[(domain, cls)]
                rows.append(Table2Row(
                    domain=domain,
                    criticality_class=cls,
                    tolerated_outage=outage,
                    measured_budget=budget,
                    criticality=math.ceil(penalty_threshold / budget),
                    penalty_threshold=penalty_threshold,
                    reward_threshold=PAPER_REWARD_THRESHOLD,
                    round_length=round_length,
                ))
        return rows

    return CampaignDefinition(
        name="table2", labeled_specs=labeled,
        params={"seed": seed, "round_length": round_length},
        aggregate=aggregate, tables=(TABLE2_TABLE,))


def monte_carlo_specs(spec: RunSpec, replicates: int) -> List[RunSpec]:
    """Seed-shifted replicate specs ``seed, seed + 1, ...`` of one spec."""
    base_seed = spec.cluster.seed
    return [replace(spec, cluster=replace(spec.cluster, seed=base_seed + i))
            for i in range(replicates)]


#: Gilbert-Elliott good->bad rates swept by the rare-events campaign.
RARE_EVENT_RATES = (0.02, 0.05, 0.1)

#: The rare-events aggregate — ``[(rate, MonteCarloEstimate), ...]`` —
#: as a declarative table.
RARE_EVENTS_TABLE = TableSpec(
    name="rare-events",
    title="False-alarm probability under Gilbert-Elliott bursts",
    columns=(
        Column("p_gb", lambda row: f"{row[0]:g}"),
        Column("replicates", lambda row: row[1].trials),
        Column("false-alarm p", lambda row: f"{row[1].p_hat:.3f}"),
        Column("95% CI",
               lambda row: f"[{row[1].ci_low:.3f}, {row[1].ci_high:.3f}]"),
    ),
)

#: The same aggregate as a plot: the estimate with its CI envelope.
RARE_EVENTS_SERIES = SeriesSpec(
    name="rare-events",
    title="False-alarm probability under Gilbert-Elliott bursts",
    x_label="good->bad rate p_gb",
    y_label="false-alarm probability",
    curves=lambda curve: {
        "p_hat": [(rate, est.p_hat) for rate, est in curve],
        "95% CI low": [(rate, est.ci_low) for rate, est in curve],
        "95% CI high": [(rate, est.ci_high) for rate, est in curve],
    },
)


def rare_events_campaign(replicates: int = 5, n_nodes: int = 4,
                         seed: int = 0) -> CampaignDefinition:
    """False-alarm estimation under Gilbert-Elliott bursty channels.

    For each good->bad rate the campaign runs ``replicates``
    seed-shifted runs of an all-healthy cluster behind a bursty
    channel and estimates the probability that the protocol *falsely*
    isolates any node, with a Wilson confidence interval per rate
    (:mod:`repro.analysis.rare`).  Every task is an ordinary RunSpec
    with the ``"isolation"`` reducer, so the campaign store caches
    replicates by content address like any other campaign.
    """
    from ..analysis.rare import MonteCarloEstimate, estimate_probability
    from ..spec import ClusterSpec, ProtocolSpec, ScenarioSpec

    protocol = ProtocolSpec(
        n_nodes=n_nodes, penalty_threshold=2, reward_threshold=5,
        criticalities=(1,) * n_nodes)
    labeled: List[Tuple[str, RunSpec]] = []
    for rate in RARE_EVENT_RATES:
        spec = RunSpec(
            protocol=protocol,
            cluster=ClusterSpec(seed=seed, trace_level=1),
            scenarios=(ScenarioSpec("GilbertElliottChannel", {
                "p_gb": rate, "p_bg": 0.5,
                "error_good": 0.0, "error_bad": 1.0,
                "rng_stream": "rare-ge"}),),
            n_rounds=20,
            reducer="isolation",
        )
        labeled.extend((f"p_gb={rate}:replicate-{i}", replicate)
                       for i, replicate in
                       enumerate(monte_carlo_specs(spec, replicates)))

    def aggregate(results: List[Any]
                  ) -> List[Tuple[float, "MonteCarloEstimate"]]:
        curve = []
        for j, rate in enumerate(RARE_EVENT_RATES):
            chunk = results[j * replicates:(j + 1) * replicates]
            hits = sum(bool(r["isolated"]) for r in chunk)
            curve.append((rate, estimate_probability(hits, replicates)))
        return curve

    return CampaignDefinition(
        name="rare-events", labeled_specs=labeled,
        params={"reps": replicates, "nodes": n_nodes, "seed": seed},
        aggregate=aggregate, tables=(RARE_EVENTS_TABLE,),
        series=(RARE_EVENTS_SERIES,))


def specs_campaign(data: Any) -> CampaignDefinition:
    """An ad-hoc campaign from RunSpec JSON: one object or an array.

    This is the one parser behind ``repro-diag run FILE``, ``campaign
    run FILE`` and the spec shapes of ``POST /v1/jobs``.  Tasks are
    labelled by spec digest.  Raises :class:`ValueError` on an empty
    list and names the first malformed entry (``spec #i: ...``).
    """
    spec_dicts = data if isinstance(data, list) else [data]
    if not spec_dicts:
        raise ValueError("submission contains no specs")
    labeled = []
    for index, spec_dict in enumerate(spec_dicts):
        if not isinstance(spec_dict, dict):
            raise ValueError(
                f"spec #{index} must be a JSON object, got "
                f"{type(spec_dict).__name__}")
        try:
            spec = RunSpec.from_dict(spec_dict)
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"spec #{index}: {exc}") from exc
        labeled.append((spec.digest(), spec))

    def aggregate(results: List[Any]) -> List[Any]:
        return results

    return CampaignDefinition(
        name="spec-file", labeled_specs=labeled,
        params={"specs": len(labeled)},
        aggregate=aggregate)


#: The knobs a named campaign is built from on the CLI and in
#: ``POST /v1/jobs``, with their shared defaults.
CAMPAIGN_KNOBS = {"reps": 5, "nodes": 4, "seed": 0}

#: Inclusive ranges of the size knobs.  :func:`build_campaign` rejects
#: a value above its range before building anything: a submission is
#: parsed by building and digesting every spec, and ``validate``
#: enumerates 18 tasks per rep, so the ranges cap a named campaign at
#: 18,000 tasks.  A value below its range is rejected by the campaign
#: having no tasks (``reps``) or by the protocol (``nodes``).
CAMPAIGN_KNOB_RANGES = {"reps": (1, 1000), "nodes": (2, 64)}

#: Named campaigns: name -> builder over the campaign's ``params`` (the
#: keys :func:`result_document` writes); other knobs are ignored.
_BUILDERS: Dict[str, Callable[..., CampaignDefinition]] = {
    "validate": lambda reps, nodes, **_: validation_campaign(reps, nodes),
    "table2": lambda seed, round_length=None, **_: table2_campaign(
        seed, round_length),
    "rare-events": lambda reps, nodes, seed, **_: rare_events_campaign(
        reps, nodes, seed),
}

#: Campaigns addressable by name from the CLI and the service.
NAMED_CAMPAIGNS = tuple(_BUILDERS)


def build_campaign(name: str, /, **params: Any) -> CampaignDefinition:
    """Build a named campaign from knobs or a document's ``params``.

    ``params`` are CLI / ``POST /v1/jobs`` knobs (missing ones take
    their :data:`CAMPAIGN_KNOBS` defaults) or the ``params`` of a
    result document, which rebuild the same labels in the same order —
    the results pipeline's compat path for ``/1`` documents and the
    digest-keyed diff's source of per-label specs.  Raises
    :class:`ValueError` for an unknown name, a non-integer knob, a knob
    above its :data:`CAMPAIGN_KNOB_RANGES` range, a value the protocol
    rejects, or a campaign with no tasks.
    """
    if name not in NAMED_CAMPAIGNS:
        raise ValueError(
            f"unknown campaign {name!r}; named campaigns: "
            f"{NAMED_CAMPAIGNS}")
    params = dict(CAMPAIGN_KNOBS, **params)
    for key in CAMPAIGN_KNOBS:
        if not isinstance(params[key], int) or isinstance(params[key], bool):
            raise ValueError(f"{key!r} must be an integer")
    for key, (low, high) in CAMPAIGN_KNOB_RANGES.items():
        if params[key] > high:
            raise ValueError(
                f"{key!r} must be in {low}..{high}, got {params[key]}")
    definition = _BUILDERS[name](**params)
    if not definition.labeled_specs:
        raise ValueError(
            f"campaign {name!r} with {definition.params} has no tasks")
    return definition


def with_backend(definition: CampaignDefinition,
                 backend: Optional[str]) -> CampaignDefinition:
    """Force ``backend`` onto every spec (``None`` keeps each spec's own).

    Raises :class:`ValueError` for an unknown backend, and for
    ``vectorized`` without numpy — reported before any dispatch.
    """
    if backend is None:
        return definition
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; backends: "
                         f"{', '.join(BACKENDS)}")
    if backend == "vectorized":
        from ..vec import BackendUnavailableError, require_numpy

        try:
            require_numpy()
        except BackendUnavailableError as exc:
            raise ValueError(str(exc)) from exc
    return replace(definition, labeled_specs=[
        (label, replace(spec, backend=backend))
        for label, spec in definition.labeled_specs])


def result_document(definition: CampaignDefinition,
                    result: CampaignResult) -> Dict[str, Any]:
    """The deterministic ``--out`` document for a finished campaign.

    Execution details (jobs, hit counts, retry counts) are deliberately
    absent; see the module docstring.  When the definition declares
    tables and every task succeeded, the built tables are embedded
    (schema ``/2``) so the document renders without re-running
    aggregation code — the self-describing form the future HTTP
    service will hand out.
    """
    tasks = []
    failed = False
    for task, value in zip(result.tasks, result.results):
        entry: Dict[str, Any] = {"label": task.label,
                                 "digest": task.spec.digest(),
                                 "key": task.key}
        if isinstance(value, TaskError):
            entry["error"] = {"type": value.error_type,
                              "message": value.message,
                              "timed_out": value.timed_out}
            failed = True
        else:
            enc, payload = encode_value(value)
            entry["result"] = {"enc": enc, "payload": payload}
        tasks.append(entry)
    document = {
        "schema": CAMPAIGN_RESULT_SCHEMA,
        "campaign": definition.name,
        "params": dict(definition.params),
        "tasks": tasks,
        "metrics": result.merged_snapshot(),
    }
    if definition.tables and not failed:
        value = definition.aggregate(result.results)
        document["tables"] = [t.to_dict()
                              for t in definition.build_tables(value)]
    return document


__all__ = [
    "CAMPAIGN_KNOBS",
    "CAMPAIGN_KNOB_RANGES",
    "CAMPAIGN_RESULT_SCHEMA",
    "COMPATIBLE_RESULT_SCHEMAS",
    "NAMED_CAMPAIGNS",
    "RARE_EVENTS_SERIES",
    "RARE_EVENTS_TABLE",
    "RARE_EVENT_RATES",
    "CampaignDefinition",
    "build_campaign",
    "monte_carlo_specs",
    "rare_events_campaign",
    "result_document",
    "specs_campaign",
    "table2_campaign",
    "validation_campaign",
    "with_backend",
]
