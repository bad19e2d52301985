"""Campaign records: a campaign's identity and status in the store.

The result store is the checkpoint: every completed task's payload is
committed there as it finishes, so a killed campaign loses at most the
tasks in flight.  What a campaign record adds, in the store's index,
is what makes resumption *safe and observable*:

* the campaign's identity (a digest over its ordered store keys), so
  ``--resume`` can refuse to continue a *different* campaign into the
  same slot;
* a status (``running`` / ``completed`` / ``failed``) and the ordered
  keys, from which ``repro-diag campaign status`` reads progress.

A record is written twice per campaign, whatever its task count: at
start (``running``, with the keys) and at its terminal status (with
the failed count).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    """One campaign's record in a :class:`~repro.store.ResultStore`."""

    campaign_id: str
    name: str
    keys: Sequence[str]
    status: str = "running"
    failed: int = 0

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(
                f"status must be one of {_STATUSES}, got {self.status!r}")

    def save(self, store) -> None:
        """Write the record to ``store``'s index (one commit).

        A ``running`` record is written whole, keys included; a terminal
        one updates the status and failed count only.
        """
        store.put_campaign(
            self.campaign_id, self.name, self.status, self.failed,
            keys=self.keys if self.status == "running" else None)


__all__ = [
    "CampaignState",
    "campaign_id",
]
