"""Rare-event Monte Carlo estimation for isolation / false-alarm curves.

The paper's tuning claims (Secs. 8-9, Fig. 3) are probability
statements — "a correctly tuned ``(P, R)`` isolates intermittent nodes
while false alarms from independent transients are negligible" — and
at realistic fault rates the interesting probabilities are far in the
tail.  This module provides the estimators and the drivers:

* :func:`wilson_interval` / :func:`estimate_probability` — binomial
  point estimate with a Wilson score confidence interval (well-behaved
  at 0 and 1 successes, unlike the normal approximation);
* :func:`stratified_estimate` — post-stratified estimator combining
  per-stratum binomial results under known stratum weights, variance
  ``sum w_i^2 p_i (1 - p_i) / n_i``;
* :func:`splitting_estimate` — multiplicative importance-splitting
  estimator ``prod k_i / n_i`` over conditional stages, with a
  delta-method CI on the log scale (``var(ln p) ~= sum
  (1 - p_i) / (n_i p_i)``), the standard tool when the target event is
  too rare for direct sampling;
* :func:`isolation_probability` / :func:`isolation_curve` — drivers
  running seed-shifted replicates
  (:func:`repro.campaign.monte_carlo_specs`) through
  :func:`repro.campaign.run_campaign` (store-cacheable, pool- and
  kernel-batch friendly) and reducing each replicate with the
  :class:`IsolationReducer` registered here under the name
  ``"isolation"``.

Every estimator is pure arithmetic over integer counts, so results are
exactly reproducible and cache-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..spec.reducers import register_reducer

#: Default normal quantile: two-sided 95% confidence.
DEFAULT_Z = 1.96


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A probability estimate with its confidence interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    successes: int
    trials: int
    z: float = DEFAULT_Z

    def contains(self, p: float) -> bool:
        """Whether ``p`` lies inside the reported interval."""
        return self.ci_low <= p <= self.ci_high

    def half_width(self) -> float:
        """Half the interval width (a scalar precision summary)."""
        return (self.ci_high - self.ci_low) / 2.0


def wilson_interval(successes: int, trials: int,
                    z: float = DEFAULT_Z) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Chosen over the Wald interval because it stays inside ``[0, 1]``
    and keeps sane coverage at 0 or ``trials`` successes — exactly the
    regimes rare-event estimation lives in.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be in [0, trials], got {successes}/{trials}")
    n = float(trials)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))) / denom
    return max(0.0, center - half), min(1.0, center + half)


def estimate_probability(successes: int, trials: int,
                         z: float = DEFAULT_Z) -> MonteCarloEstimate:
    """Direct binomial estimate with a Wilson interval."""
    low, high = wilson_interval(successes, trials, z)
    return MonteCarloEstimate(p_hat=successes / trials, ci_low=low,
                              ci_high=high, successes=successes,
                              trials=trials, z=z)


def stratified_estimate(strata: Sequence[Tuple[float, int, int]],
                        z: float = DEFAULT_Z) -> MonteCarloEstimate:
    """Post-stratified estimator over ``(weight, successes, trials)``.

    ``weight`` is the known probability mass of the stratum; weights
    must sum to 1.  The point estimate is ``sum w_i p_i`` and the
    variance ``sum w_i^2 p_i (1 - p_i) / n_i`` (independent strata), so
    concentrating samples in rare strata shrinks the interval far below
    what plain sampling at the same budget achieves.
    """
    if not strata:
        raise ValueError("need at least one stratum")
    total_w = math.fsum(w for w, _k, _n in strata)
    if abs(total_w - 1.0) > 1e-9:
        raise ValueError(f"stratum weights must sum to 1, got {total_w}")
    p_hat = 0.0
    var = 0.0
    successes = 0
    trials = 0
    for weight, k, n in strata:
        if weight < 0:
            raise ValueError(f"stratum weight must be >= 0, got {weight}")
        if n <= 0:
            raise ValueError(f"stratum trials must be positive, got {n}")
        if not 0 <= k <= n:
            raise ValueError(f"stratum successes must be in [0, trials]")
        p_i = k / n
        p_hat += weight * p_i
        var += weight * weight * p_i * (1.0 - p_i) / n
        successes += k
        trials += n
    half = z * math.sqrt(var)
    return MonteCarloEstimate(
        p_hat=p_hat, ci_low=max(0.0, p_hat - half),
        ci_high=min(1.0, p_hat + half), successes=successes,
        trials=trials, z=z)


def splitting_estimate(stages: Sequence[Tuple[int, int]],
                       z: float = DEFAULT_Z) -> MonteCarloEstimate:
    """Multiplicative importance-splitting estimator over stages.

    ``stages`` holds ``(successes, trials)`` per conditional level: the
    fraction of level-``i`` samples that reach level ``i + 1``.  The
    rare-event probability is ``prod k_i / n_i``; the CI uses the
    delta method on the log scale (stages independent):
    ``var(ln p_hat) ~= sum (1 - p_i) / (n_i p_i)``.

    If any stage records zero successes the point estimate is 0 and the
    interval is ``[0, prod wilson_upper_i]`` — the log-scale CI is
    undefined at zero, and the product of per-stage Wilson upper bounds
    is the natural conservative cap.
    """
    if not stages:
        raise ValueError("need at least one stage")
    p_hat = 1.0
    log_var = 0.0
    successes = 0
    trials = 0
    any_zero = False
    upper_cap = 1.0
    for k, n in stages:
        if n <= 0:
            raise ValueError(f"stage trials must be positive, got {n}")
        if not 0 <= k <= n:
            raise ValueError("stage successes must be in [0, trials]")
        p_i = k / n
        p_hat *= p_i
        upper_cap *= wilson_interval(k, n, z)[1]
        successes += k
        trials += n
        if k == 0:
            any_zero = True
        else:
            log_var += (1.0 - p_i) / (n * p_i)
    if any_zero:
        return MonteCarloEstimate(p_hat=0.0, ci_low=0.0,
                                  ci_high=min(1.0, upper_cap),
                                  successes=successes, trials=trials, z=z)
    sigma = math.sqrt(log_var)
    return MonteCarloEstimate(
        p_hat=p_hat,
        ci_low=max(0.0, p_hat * math.exp(-z * sigma)),
        ci_high=min(1.0, p_hat * math.exp(z * sigma)),
        successes=successes, trials=trials, z=z)


@register_reducer
class IsolationReducer:
    """Per-run isolation outcomes as a JSON-native dict.

    The result is ``{"first_isolation": {node: time-or-None},
    "isolated": [nodes...]}`` with string node keys, so it survives the
    store's JSON codec byte-identically on both backends.
    """

    name = "isolation"
    vectorized = True

    def reduce(self, target, spec, state) -> Dict[str, Any]:
        """Read each node's first isolation time off the finished run."""
        n = spec.protocol.n_nodes
        first = {str(j): target.first_isolation_time(j)
                 for j in range(1, n + 1)}
        isolated = sorted(int(j) for j, t in first.items() if t is not None)
        return {"first_isolation": first, "isolated": isolated}


def _count_isolations(results: List[Dict[str, Any]],
                      target_node: Optional[int]) -> int:
    hits = 0
    for result in results:
        if target_node is None:
            hits += bool(result["isolated"])
        else:
            hits += result["first_isolation"][str(target_node)] is not None
    return hits


def isolation_probability(spec: Any, replicates: int,
                          target_node: Optional[int] = None,
                          jobs: int = 1, store: Optional[Any] = None,
                          z: float = DEFAULT_Z) -> MonteCarloEstimate:
    """Estimate P(isolation) over seed-shifted replicates of ``spec``.

    ``target_node`` counts isolation of that node only; ``None`` counts
    a run as a success if *any* node is isolated (the false-alarm
    definition for an all-healthy cluster).  Replicates run through
    :func:`~repro.campaign.run_campaign`, so a result store caches them
    by content address and the vectorized backend simulates all cache
    misses as one kernel batch.
    """
    from ..campaign import monte_carlo_specs, run_campaign

    specs = monte_carlo_specs(replace(spec, reducer="isolation"),
                              replicates)
    result = run_campaign(
        [(f"replicate-{i}", replicate) for i, replicate in enumerate(specs)],
        name="monte-carlo", store=store, jobs=jobs)
    result.raise_first_error()
    return estimate_probability(
        _count_isolations(result.results, target_node), replicates, z=z)


def isolation_curve(points: Sequence[Tuple[Any, Any]], replicates: int,
                    target_node: Optional[int] = None,
                    jobs: int = 1, store: Optional[Any] = None,
                    z: float = DEFAULT_Z
                    ) -> List[Tuple[Any, MonteCarloEstimate]]:
    """One :func:`isolation_probability` per ``(x, spec)`` point.

    The returned list pairs each ``x`` (e.g. a fault rate) with its
    estimate — the data behind a false-alarm or isolation-probability
    curve over a swept channel parameter.
    """
    return [(x, isolation_probability(spec, replicates,
                                      target_node=target_node, jobs=jobs,
                                      store=store, z=z))
            for x, spec in points]


__all__ = [
    "DEFAULT_Z",
    "IsolationReducer",
    "MonteCarloEstimate",
    "estimate_probability",
    "isolation_curve",
    "isolation_probability",
    "splitting_estimate",
    "stratified_estimate",
    "wilson_interval",
]
