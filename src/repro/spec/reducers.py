"""Reducer registry: named post-processing for spec runs.

:func:`repro.spec.execute` turns a :class:`~repro.spec.model.RunSpec`
into a finished cluster; a *reducer* turns that cluster into the run's
result value.  Because a :class:`RunSpec` can name its reducer (a plain
string), one generic worker can execute any campaign's tasks: the
worker rebuilds the spec, resolves the name here, and returns whatever
the reducer computes.

A reducer is any object with::

    reduce(target, spec, state) -> result

where ``result`` is a JSON value (dicts with string keys, lists,
strings, numbers, booleans, None): it is stored and shipped as JSON,
and a value that does not read back equal, such as a tuple or a
dataclass, fails its task with :class:`TypeError`.  Optionally::

    prepare(target, spec) -> state

``prepare`` runs after the cluster is built but *before* the simulation
is driven — the place to install probes (e.g. counter-evolution hooks)
whose observations ``reduce`` later scores.  A reducer whose ``reduce``
reads only what the vectorized backend's replicate view
(:class:`repro.vec.kernel.VectorizedRun`) exposes declares ``vectorized =
True``; the vectorized backend refuses every other reducer with
:class:`repro.vec.UnsupportedSpecError` before it runs the kernel.
Reducers must be stateless
(shared registry instances are called concurrently-by-copy in worker
processes) and deterministic.

Experiment modules register their reducers at import time with
:func:`register_reducer`; :func:`resolve_reducer` lazily imports those
provider modules so worker processes resolve names without the caller
having to pre-import anything.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Union

#: Modules that register reducers on import (lazily loaded on lookup).
PROVIDER_MODULES = (
    "repro.experiments.validation",
    "repro.experiments.table2",
    "repro.analysis.rare",
)

_REDUCERS: Dict[str, Any] = {}


def register_reducer(cls):
    """Class decorator: instantiate and register under ``cls.name``."""
    instance = cls()
    name = getattr(instance, "name", None)
    if not name:
        raise ValueError(f"reducer {cls!r} must define a non-empty name")
    existing = _REDUCERS.get(name)
    if existing is not None and type(existing) is not cls:
        raise ValueError(f"reducer name {name!r} already registered")
    _REDUCERS[name] = instance
    return cls


def registered_reducers() -> Dict[str, Any]:
    """Snapshot of the registry (after loading all providers)."""
    _load_providers()
    return dict(_REDUCERS)


def _load_providers() -> None:
    for module in PROVIDER_MODULES:
        importlib.import_module(module)


class SummaryReducer:
    """Default reducer: a small deterministic summary dict.

    Reports the spec digest, the rounds driven and — where the variant
    exposes it — whether the cross-node consistency property held.
    """

    name = "summary"
    vectorized = True

    def reduce(self, target, spec, state) -> Dict[str, Any]:
        """Summarise a finished run as a JSON-native dict."""
        summary: Dict[str, Any] = {
            "digest": spec.digest(),
            "service": spec.variant.service,
            "rounds": spec.n_rounds,
        }
        if hasattr(target, "consistent_health_history"):
            summary["consistent"] = target.consistent_health_history()
        elif hasattr(target, "consistent_verdicts"):
            summary["consistent"] = target.consistent_verdicts()
        return summary


_DEFAULT = SummaryReducer()
_REDUCERS[_DEFAULT.name] = _DEFAULT


def resolve_reducer(reducer: Union[None, str, Any]) -> Any:
    """Resolve ``reducer`` to a reducer object.

    ``None`` yields the default :class:`SummaryReducer`; a string is
    looked up in the registry (loading the provider modules on a miss);
    anything with a ``reduce`` attribute passes through unchanged.
    """
    if reducer is None:
        return _DEFAULT
    if isinstance(reducer, str):
        if reducer not in _REDUCERS:
            _load_providers()
        try:
            return _REDUCERS[reducer]
        except KeyError:
            raise ValueError(
                f"unknown reducer {reducer!r}; registered: "
                f"{sorted(_REDUCERS)}") from None
    if not hasattr(reducer, "reduce"):
        raise TypeError(f"{reducer!r} is not a reducer (no reduce method)")
    return reducer


__all__ = [
    "PROVIDER_MODULES",
    "SummaryReducer",
    "register_reducer",
    "registered_reducers",
    "resolve_reducer",
]
