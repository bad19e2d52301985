"""Job-request parsing: client JSON in, campaign definition + identity out.

``POST /v1/jobs`` accepts exactly the inputs ``repro-diag campaign
run`` does, as JSON, and builds them with the same front door
(:mod:`repro.campaign.definitions`):

* ``{"campaign": "rare-events", "reps": 2, "nodes": 4, "seed": 0}`` —
  a named campaign with its CLI knobs (defaults match the CLI);
* ``{"spec": {...}}`` / a bare RunSpec object — one spec;
* ``{"specs": [...]}`` / a bare array — an ad-hoc spec-file campaign;
* an optional ``"backend": "event" | "vectorized"`` override applied
  to every spec, mirroring ``campaign run --backend``.

The **job id is a content address**: :func:`repro.spec.RunSpec.
full_digest` pins each task's inputs, :func:`repro.store.store_key`
adds reducer + package version, and the job id is the digest of the
ordered key list (:func:`repro.campaign.state.campaign_id`).  Two
clients POSTing semantically identical submissions therefore compute
the same job id before any work happens — which is what lets the job
manager attach them to one in-flight run, and lets a warm store answer
without executing anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..campaign.definitions import (
    CAMPAIGN_KNOBS,
    CampaignDefinition,
    build_campaign,
    specs_campaign,
    with_backend,
)
from ..campaign.state import campaign_id
from ..store import store_key


class BadRequestError(ValueError):
    """The request body is not a valid job submission (HTTP 400)."""


@dataclass(frozen=True)
class JobRequest:
    """One parsed submission: definition, content identity, echo data."""

    job_id: str
    definition: CampaignDefinition
    #: The store key of every task, in task order (the dedup identity).
    keys: List[str]
    #: What the client asked for, echoed back in responses.
    request: Dict[str, Any]


def _definition(data: Any) -> CampaignDefinition:
    """The campaign a submission body names (``ValueError`` if none)."""
    if isinstance(data, list):
        return specs_campaign(data)
    if not isinstance(data, dict):
        raise ValueError(
            "submission must be a JSON object or an array of RunSpec "
            "objects")
    if "campaign" in data:
        knobs = {k: v for k, v in data.items()
                 if k not in ("campaign", "backend")}
        unknown = set(knobs) - set(CAMPAIGN_KNOBS)
        if unknown:
            raise ValueError(
                f"unknown field(s) {sorted(unknown)} in a named-campaign "
                f"submission; accepted: {sorted(CAMPAIGN_KNOBS)}")
        return build_campaign(data["campaign"], **knobs)
    if "specs" in data:
        if not isinstance(data["specs"], list):
            raise ValueError('"specs" must be an array')
        return specs_campaign(data["specs"])
    if isinstance(data.get("spec"), dict):
        # {"spec": {...}} wrapper — NOT a bare RunSpec, whose own
        # "spec" key is the schema-tag *string*.
        return specs_campaign(data["spec"])
    # A bare RunSpec object (the `repro-diag run` input shape).
    return specs_campaign({k: v for k, v in data.items() if k != "backend"})


def parse_job_request(data: Any) -> JobRequest:
    """Parse one ``POST /v1/jobs`` body into a :class:`JobRequest`.

    Raises :class:`BadRequestError` with a client-facing message on
    any malformed input — the app maps it to HTTP 400 exactly like the
    CLI maps the same :class:`ValueError` from the shared campaign
    front door (:mod:`repro.campaign.definitions`) to exit 2.
    """
    backend = data.get("backend") if isinstance(data, dict) else None
    try:
        definition = with_backend(_definition(data), backend)
    except ValueError as exc:
        raise BadRequestError(str(exc)) from exc
    keys = [store_key(spec) for _label, spec in definition.labeled_specs]
    request_echo = {"campaign": definition.name,
                    "params": dict(definition.params)}
    if backend is not None:
        request_echo["backend"] = backend
    return JobRequest(job_id=campaign_id(keys), definition=definition,
                      keys=keys, request=request_echo)


__all__ = [
    "BadRequestError",
    "JobRequest",
    "parse_job_request",
]
