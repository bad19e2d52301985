"""Campaign checkpoint state: tiny, atomic, resume-validating.

The heavy lifting of checkpointing is the result store itself — every
completed task's payload is committed there individually, so a killed
campaign loses at most the tasks in flight.  What this module adds is
the small state file that makes resumption *safe and observable*:

* the campaign's identity (a digest over its ordered store keys), so
  ``--resume`` can refuse to continue a *different* campaign into the
  same state slot;
* progress counters and a status (``running`` / ``completed`` /
  ``failed``), which is what ``repro-diag campaign status`` renders;
* atomic persistence (write temp + ``os.replace``), so a SIGKILL
  during a checkpoint leaves the previous consistent state.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, List, Optional

#: Schema tag for campaign state files; bump on layout changes.
CAMPAIGN_STATE_SCHEMA = "repro-campaign-state/1"

_STATUSES = ("running", "completed", "failed")


def campaign_id(keys: Iterable[str]) -> str:
    """Stable identity of a campaign: sha256 over its ordered keys."""
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


@dataclass
class CampaignState:
    """One campaign's checkpoint record (JSON on disk)."""

    campaign_id: str
    name: str
    total: int
    completed: int = 0
    failed: int = 0
    status: str = "running"
    updated: float = 0.0
    errors: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(
                f"status must be one of {_STATUSES}, got {self.status!r}")

    def to_dict(self) -> dict:
        """JSON-native form, schema-tagged."""
        data = asdict(self)
        data["schema"] = CAMPAIGN_STATE_SCHEMA
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignState":
        """Rebuild a state from :meth:`to_dict` output."""
        data = dict(data)
        schema = data.pop("schema", CAMPAIGN_STATE_SCHEMA)
        if schema != CAMPAIGN_STATE_SCHEMA:
            raise ValueError(
                f"unsupported campaign state schema {schema!r} "
                f"(this build reads {CAMPAIGN_STATE_SCHEMA!r})")
        return cls(**data)

    def save(self, path: str) -> None:
        """Atomically persist the state (temp file + rename)."""
        self.updated = time.time()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> Optional["CampaignState"]:
        """The state at ``path``, or None if absent/unreadable.

        An unreadable state file is treated like a missing one — the
        store still holds every committed result, so the worst case is
        re-checking the store for each task.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, ValueError, TypeError):
            return None


def load_all_states(campaign_dir: str) -> List[CampaignState]:
    """Every readable campaign state under ``campaign_dir``."""
    states = []
    try:
        names = sorted(os.listdir(campaign_dir))
    except OSError:
        return states
    for name in names:
        if not name.endswith(".json"):
            continue
        state = CampaignState.load(os.path.join(campaign_dir, name))
        if state is not None:
            states.append(state)
    return states


__all__ = [
    "CAMPAIGN_STATE_SCHEMA",
    "CampaignState",
    "campaign_id",
    "load_all_states",
]
