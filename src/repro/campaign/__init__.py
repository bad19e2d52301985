"""Persistent campaigns: store-first, resumable, fault-tolerant sweeps.

This package turns a list of :class:`~repro.spec.RunSpec` values into
a production-grade campaign run::

    from repro.campaign import run_campaign, validation_campaign
    from repro.store import ResultStore

    definition = validation_campaign(repetitions=100)
    with ResultStore("/var/cache/repro") as store:
        result = run_campaign(definition.labeled_specs, store=store,
                              jobs=8, task_timeout=300.0)
    result.raise_first_error()
    print(definition.render(definition.aggregate(result.results)))

* :mod:`repro.campaign.engine` — the engine: consult the store first,
  dispatch only misses, commit each completed task to the store, retry
  failures with bounded backoff, enforce per-task deadlines;
* :mod:`repro.campaign.state` — the campaign record in the store's
  index behind ``--resume`` and ``campaign status``;
* :mod:`repro.campaign.definitions` — the paper's sweeps as named
  campaign definitions, the front door the CLI and ``POST /v1/jobs``
  share (named-campaign registry, RunSpec list parser, backend
  override), plus the deterministic result document.

The CLI surface is ``repro-diag campaign run|status|gc``.
"""

from .definitions import (
    CAMPAIGN_KNOBS,
    CAMPAIGN_KNOB_RANGES,
    CAMPAIGN_RESULT_SCHEMA,
    COMPATIBLE_RESULT_SCHEMAS,
    NAMED_CAMPAIGNS,
    RARE_EVENT_RATES,
    CampaignDefinition,
    build_campaign,
    monte_carlo_specs,
    rare_events_campaign,
    result_document,
    specs_campaign,
    table2_campaign,
    validation_campaign,
    with_backend,
)
from .engine import (
    CampaignFailedError,
    CampaignResult,
    CampaignTask,
    InterruptedCampaignError,
    TaskTimeout,
    campaign_tasks,
    execute_spec_task,
    run_campaign,
)
from .state import CampaignState, campaign_id

__all__ = [
    "CAMPAIGN_KNOBS",
    "CAMPAIGN_KNOB_RANGES",
    "CAMPAIGN_RESULT_SCHEMA",
    "COMPATIBLE_RESULT_SCHEMAS",
    "NAMED_CAMPAIGNS",
    "CampaignDefinition",
    "CampaignFailedError",
    "CampaignResult",
    "CampaignState",
    "CampaignTask",
    "InterruptedCampaignError",
    "RARE_EVENT_RATES",
    "TaskTimeout",
    "build_campaign",
    "monte_carlo_specs",
    "rare_events_campaign",
    "campaign_id",
    "campaign_tasks",
    "execute_spec_task",
    "result_document",
    "run_campaign",
    "specs_campaign",
    "table2_campaign",
    "validation_campaign",
    "with_backend",
]
