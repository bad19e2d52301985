"""Vectorized round-kernel backend (numpy).

Selected per spec with ``RunSpec(backend="vectorized")``: instead of
the event engine's one-event-per-slot simulation, whole TDMA rounds of
a replicate batch advance as vector arithmetic over
``(replicates, N, N)`` arrays — bit-identical observables, orders of
magnitude more rounds per second, and Monte Carlo batches in one kernel
execution.

numpy is the backend's only third-party dependency and is deliberately
a *soft* one: importing :mod:`repro.vec` (and everything that reaches
it, e.g. the CLI) works without numpy installed; only actually
*running* the vectorized backend raises :class:`BackendUnavailableError`
then.  The event backend never touches this package.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from .errors import BackendUnavailableError, UnsupportedSpecError

try:  # soft dependency: probed once at import, reported on use
    import numpy as _numpy  # noqa: F401
except ImportError as exc:  # pragma: no cover - numpy ships in the env
    _NUMPY_ERROR: Optional[ImportError] = exc
else:
    _NUMPY_ERROR = None

#: True when numpy imported successfully and the backend can run.
NUMPY_AVAILABLE = _NUMPY_ERROR is None


def require_numpy() -> None:
    """Raise :class:`BackendUnavailableError` when numpy is missing."""
    if _NUMPY_ERROR is not None:
        raise BackendUnavailableError(
            "backend 'vectorized' requires numpy, which is not installed "
            f"({_NUMPY_ERROR}); install numpy or use backend='event'"
        ) from _NUMPY_ERROR


def run_batch(spec: Any, seeds: Optional[Sequence[int]] = None,
              replicates: Optional[int] = None,
              reintegration: bool = False):
    """Run one spec over a replicate batch (see :mod:`repro.vec.kernel`)."""
    require_numpy()
    from .kernel import run_batch as impl
    return impl(spec, seeds=seeds, replicates=replicates,
                reintegration=reintegration)


def execute_vectorized(spec: Any, reducer: Any = None,
                       metrics: Optional[Any] = None) -> Any:
    """Vectorized single-replicate equivalent of ``spec.build.execute``."""
    require_numpy()
    from .kernel import execute_vectorized as impl
    return impl(spec, reducer=reducer, metrics=metrics)


def execute_batch(spec: Any, seeds: Sequence[int]) -> List[List[Any]]:
    """Run + reduce a whole replicate batch in one kernel execution."""
    require_numpy()
    from .kernel import execute_batch as impl
    return impl(spec, seeds)


__all__ = [
    "BackendUnavailableError",
    "NUMPY_AVAILABLE",
    "UnsupportedSpecError",
    "execute_batch",
    "execute_vectorized",
    "require_numpy",
    "run_batch",
]
