"""Sources of renderable results: campaign documents and live stores.

The pipeline consumes two inputs:

* a ``repro-diag campaign run --out`` document (schema
  ``repro-campaign-result/1`` or ``/2``) — :func:`load_document`
  validates and wraps it, :func:`tables_for_document` turns it into
  materialised tables.  ``/2`` documents embed their tables and render
  with zero simulation imports; ``/1`` documents (and ``/2`` documents
  asked for a re-aggregation) rebuild the named campaign's definition
  from the stored ``params`` and re-run its aggregate over the decoded
  per-task payloads;
* a live :class:`~repro.store.ResultStore` — :func:`results_from_store`
  fetches a definition's results by full spec digest without executing
  anything, so ``repro-diag results render validate --store DIR``
  renders straight from cache.

:func:`document_fingerprint` hashes the semantic content (campaign,
params, task payloads — not the schema tag or embedded tables), so a
``/1`` and ``/2`` document of the same campaign share a fingerprint:
the key the derived-value cache memoises renders under.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..store.result_store import decode_value, store_key
from .tables import Table


class DocumentError(ValueError):
    """The input is not a usable campaign result document."""


@dataclass(frozen=True)
class CampaignDocument:
    """A parsed ``campaign run --out`` document."""

    schema: str
    campaign: str
    params: Dict[str, Any]
    tasks: Tuple[Dict[str, Any], ...]
    metrics: Dict[str, Any]
    #: Embedded tables (``/2`` documents only, else None).
    tables: Optional[Tuple[Table, ...]] = None

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(t["label"] for t in self.tasks)

    @property
    def failed_labels(self) -> Tuple[str, ...]:
        return tuple(t["label"] for t in self.tasks if "error" in t)

    def results(self) -> List[Any]:
        """Decoded per-task payloads, in task order.

        Raises :class:`DocumentError` if any task failed — an
        aggregate over partial results would silently misreport — and
        :class:`ValueError` for a payload the store codec cannot read.
        """
        failed = self.failed_labels
        if failed:
            raise DocumentError(
                f"campaign {self.campaign!r} has {len(failed)} failed "
                f"task(s): {', '.join(failed[:5])}")
        return [decode_value(t["result"]["enc"], t["result"]["payload"])
                for t in self.tasks]


def _fields(data: Any, kind: type, *names: str) -> bool:
    """Whether ``data`` is an object whose ``names`` are ``kind``s."""
    return isinstance(data, dict) and all(
        isinstance(data.get(name), kind) for name in names)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise DocumentError(message)


def _check_task(index: int, task: Any) -> None:
    _check(isinstance(task, dict), f"task #{index} must be an object")
    _check(_fields(task, str, "label", "digest"),
           f"task #{index}: 'label' and 'digest' must be strings")
    if "error" in task:
        _check(_fields(task["error"], str, "type", "message"),
               f"task #{index}: 'error' must be an object with string "
               f"'type' and 'message'")
    else:
        _check(_fields(task.get("result"), str, "enc", "payload"),
               f"task #{index}: 'result' must be an object with string "
               f"'enc' and 'payload'")


def _parse_table(index: int, data: Any) -> Table:
    def strings(value: Any) -> bool:
        return isinstance(value, list) and all(
            isinstance(item, str) for item in value)

    _check(_fields(data, str, "name") and _fields(data, list, "rows")
           and all(isinstance(row, list) for row in data["rows"])
           and strings(data.get("headers"))
           and strings(data.get("footer", []))
           and isinstance(data.get("title"), (str, type(None))),
           f"table #{index} must be an object with a string 'name' and "
           f"'title', string lists 'headers' and 'footer' and a list of "
           f"lists 'rows'")
    return Table.from_dict(data)


def parse_document(data: Dict[str, Any]) -> CampaignDocument:
    """Validate (every shape readers index into) and wrap a document."""
    from ..campaign.definitions import COMPATIBLE_RESULT_SCHEMAS

    if not isinstance(data, dict):
        raise DocumentError("campaign document must be a JSON object")
    schema = data.get("schema")
    if schema not in COMPATIBLE_RESULT_SCHEMAS:
        raise DocumentError(
            f"unsupported document schema {schema!r}; expected one of "
            f"{COMPATIBLE_RESULT_SCHEMAS}")
    for name in ("params", "metrics"):
        _check(isinstance(data.get(name, {}), dict),
               f"document {name!r} must be an object")
    tasks = data.get("tasks", [])
    _check(isinstance(tasks, list), "document 'tasks' must be a list")
    for index, task in enumerate(tasks):
        _check_task(index, task)
    tables = data.get("tables")
    if tables is not None:
        _check(isinstance(tables, list), "document 'tables' must be a list")
        tables = tuple(_parse_table(index, table)
                       for index, table in enumerate(tables))
    return CampaignDocument(
        schema=schema,
        campaign=data.get("campaign", ""),
        params=dict(data.get("params", {})),
        tasks=tuple(tasks),
        metrics=dict(data.get("metrics", {})),
        tables=tables,
    )


def load_document(path: str) -> CampaignDocument:
    """Read and validate a document from a JSON file (or ``-``)."""
    import sys

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise DocumentError(f"{path}: not valid JSON: {exc}") from exc
    return parse_document(data)


def document_fingerprint(doc: CampaignDocument) -> str:
    """A stable hash of the document's semantic content.

    Embedded tables and the schema tag are excluded: a ``/1`` and a
    ``/2`` document of the same campaign run fingerprint identically,
    so cached derived values survive a schema upgrade.
    """
    canonical = {
        "campaign": doc.campaign,
        "params": doc.params,
        "tasks": [
            {k: t[k] for k in ("label", "digest", "key", "result", "error")
             if k in t}
            for t in doc.tasks
        ],
    }
    blob = json.dumps(canonical, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def rebuild_definition(doc: CampaignDocument):
    """The named campaign definition a document was produced by."""
    from ..campaign.definitions import build_campaign

    return build_campaign(doc.campaign, **doc.params)


def tables_for_document(doc: CampaignDocument,
                        prefer_embedded: bool = True) -> List[Table]:
    """Materialised tables for a document.

    ``/2`` documents return their embedded tables directly (no
    simulation-layer imports, no aggregation); otherwise the named
    campaign's definition is rebuilt from ``params`` and its declared
    tables are built over the decoded results.  Documents from ad-hoc
    spec files (no declared tables) fall back to a generic per-task
    table so every document renders.
    """
    if prefer_embedded and doc.tables is not None:
        return list(doc.tables)
    try:
        definition = rebuild_definition(doc)
    except ValueError:
        return [generic_task_table(doc)]
    if not definition.tables:
        return [generic_task_table(doc)]
    return _reaggregate(doc, definition, definition.build_tables)


def series_for_document(doc: CampaignDocument) -> List[Any]:
    """Materialised plot series for a document (may be empty)."""
    try:
        definition = rebuild_definition(doc)
    except ValueError:
        return []
    if not definition.series:
        return []
    return _reaggregate(doc, definition, lambda value: [
        spec.build(value) for spec in definition.series])


def _reaggregate(doc: CampaignDocument, definition,
                 build: Callable[[Any], List[Any]]) -> List[Any]:
    """``build`` over the definition's aggregate of the document's
    results, which must come from the definition's own tasks; a payload
    the aggregate cannot read is a :class:`DocumentError`."""
    results = doc.results()
    labels = tuple(label for label, _spec in definition.labeled_specs)
    if doc.labels != labels:
        raise DocumentError(
            f"the document's {len(doc.labels)} task(s) are not the "
            f"{len(labels)} task(s) of campaign {definition.name!r} with "
            f"params {definition.params}")
    try:
        return build(definition.aggregate(results))
    except (LookupError, TypeError, ArithmeticError) as exc:
        raise DocumentError(
            f"campaign {definition.name!r} cannot aggregate the document's "
            f"results: {type(exc).__name__}: {exc}") from None


def generic_task_table(doc: CampaignDocument) -> Table:
    """A label/digest/result table any campaign document supports."""
    rows = []
    for task in doc.tasks:
        if "error" in task:
            shown = (f"error: {task['error']['type']}: "
                     f"{task['error']['message']}")
        else:
            shown = str(decode_value(task["result"]["enc"],
                                     task["result"]["payload"]))
        rows.append((task["label"], task["digest"], shown))
    return Table(
        name="tasks",
        title=f"Campaign {doc.campaign!r}: per-task results",
        headers=("label", "digest", "result"),
        rows=tuple((str(a), str(b), str(c)) for a, b, c in rows),
    )


def results_from_store(definition, store) -> List[Any]:
    """A definition's results fetched from a store by content address.

    Raises :class:`DocumentError` naming the missing labels if the
    store does not hold every task (nothing is executed here).
    """
    keyed = [(label, store_key(spec))
             for label, spec in definition.labeled_specs]
    found = store.get_many([key for _label, key in keyed])
    # Campaign payloads wrap the reduced result with its metrics
    # snapshot (see repro.campaign.engine._payload); only the result
    # feeds the aggregate.
    payloads = {key: value for key, value in found.items()
                if isinstance(value, dict) and "result" in value}
    missing = [label for label, key in keyed if key not in payloads]
    if missing:
        raise DocumentError(
            f"store is missing {len(missing)}/{len(keyed)} result(s) for "
            f"campaign {definition.name!r} (first missing: {missing[0]!r}); "
            f"run `repro-diag campaign run {definition.name}` first")
    return [payloads[key]["result"] for _label, key in keyed]


def tables_from_store(definition, store) -> List[Table]:
    """Build a definition's tables from cached results only."""
    value = definition.aggregate(results_from_store(definition, store))
    return definition.build_tables(value)


__all__ = [
    "CampaignDocument",
    "DocumentError",
    "document_fingerprint",
    "generic_task_table",
    "load_document",
    "parse_document",
    "rebuild_definition",
    "results_from_store",
    "series_for_document",
    "tables_for_document",
    "tables_from_store",
]
