"""Structured trace recording and querying.

A :class:`Trace` is an append-only log of :class:`TraceRecord` entries,
each stamped with simulation time and a category.  The experiment
harnesses (Sec. 8 validation, Sec. 9 tuning) work by querying traces:
"when did node 2 first appear as faulty in a consistent health vector?",
"at which time was node 1 isolated?", and so on.

Categories used throughout the library:

``tx``          a frame transmission (sender, round, slot, outcome)
``rx``          a frame delivery at one receiver (validity bit)
``syndrome``    a local syndrome formed by a diagnostic job
``cons_hv``     a consistent health vector computed by a node
``penalty``     a penalty/reward counter update
``isolation``   a node isolated another node
``view``        a membership view change
``clique``      a minority-clique accusation
``reintegration``  an isolated node readmitted
``fault``       a fault-injection directive taking effect
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional)


class TraceRecord(NamedTuple):
    """One trace entry (immutable).

    A named tuple: a simulation appends one record per transmission,
    syndrome, health vector and counter update, and a tuple is the
    cheapest immutable record to build.

    Attributes
    ----------
    time:
        Simulation time in seconds.
    category:
        One of the category strings documented in the module docstring.
    node:
        The node observing/producing the record, or ``None`` for
        system-level records (e.g. bus-level fault injections).
    data:
        Category-specific payload (kept as a plain dict so traces can be
        serialised trivially).
    """

    time: float
    category: str
    node: Optional[int]
    data: Dict[str, Any]


# Builds a record from its four fields without the generated
# ``__new__``'s Python frame (what ``TraceRecord._make`` does).
_new_record = tuple.__new__


#: Categories still recorded when the trace runs at level 0: protocol
#: decisions (and the injections that provoked them) are rare, cheap,
#: and the minimum needed to interpret an experiment after the fact.
_DECISION_CATEGORIES = frozenset(
    {"isolation", "view", "clique", "reintegration", "fault"})


class Trace:
    """Append-only, queryable event log.

    Each :meth:`record` call appends one immutable :class:`TraceRecord`
    holding the call's keyword arguments as its ``data`` dict (no copy
    is made: the dict is created fresh by the call).  Queries scan the
    records in order.

    Parameters
    ----------
    level:
        Recording verbosity, mirroring the protocol trace levels.  At
        the default (2, full) every :meth:`record` call appends.  At
        ``level <= 0`` the instance swaps :meth:`record` for a
        decisions-only dispatch that drops per-slot categories
        (``tx``/``rx``/``syndrome``/...) without allocating a record,
        which is what makes ``trace_level=0`` runs allocation-free on
        the hot path.
    """

    def __init__(self, level: int = 2) -> None:
        self._records: List[TraceRecord] = []
        self.level = level
        if level <= 0:
            # Instance-level override: hot-path callers pay one dict
            # lookup instead of a per-call level test.
            self.record = self._record_decisions  # type: ignore[assignment]

    # -- recording ------------------------------------------------------
    def record(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **data: Any,
    ) -> Optional[TraceRecord]:
        """Append a record and return it.

        At trace level 0 only decision categories are kept and ``None``
        is returned for dropped records.  ``data`` is the call's own
        keyword dict, fresh on every call, so the record keeps it
        without a copy.
        """
        rec = _new_record(TraceRecord, (time, category, node, data))
        self._records.append(rec)
        return rec

    def _record_decisions(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **data: Any,
    ) -> Optional[TraceRecord]:
        if category not in _DECISION_CATEGORIES:
            return None
        rec = _new_record(TraceRecord, (time, category, node, data))
        self._records.append(rec)
        return rec

    # -- querying -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Return records matching all provided filters, in time order."""
        out = []
        for rec in self._records:
            if category is not None and rec.category != category:
                continue
            if node is not None and rec.node != node:
                continue
            if since is not None and rec.time < since:
                continue
            if until is not None and rec.time > until:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    @staticmethod
    def _matches(rec: TraceRecord, filters: Dict[str, Any]) -> bool:
        """Filter matching for first/last/count.

        The special key ``node`` matches the record's node attribute;
        all other keys match entries of the data payload.
        """
        for k, v in filters.items():
            if k == "node":
                if rec.node != v:
                    return False
            elif rec.data.get(k) != v:
                return False
        return True

    def first(self, category: str, **filters: Any) -> Optional[TraceRecord]:
        """First record of ``category`` matching ``filters``."""
        for rec in self._records:
            if rec.category == category and self._matches(rec, filters):
                return rec
        return None

    def last(self, category: str, **filters: Any) -> Optional[TraceRecord]:
        """Last record of ``category`` matching ``filters``."""
        result = None
        for rec in self._records:
            if rec.category == category and self._matches(rec, filters):
                result = rec
        return result

    def count(self, category: str, **filters: Any) -> int:
        """Number of records of ``category`` matching ``filters``."""
        return sum(1 for rec in self._records
                   if rec.category == category and self._matches(rec, filters))

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Serialise the trace to plain dictionaries (JSON-friendly)."""
        return [
            {"time": r.time, "category": r.category, "node": r.node, **r.data}
            for r in self._records
        ]


__all__ = ["Trace", "TraceRecord"]
