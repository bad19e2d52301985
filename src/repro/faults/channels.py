"""Channel and fault-model library: realistic disturbance statistics.

The paper's tuning story (Secs. 8-9, Fig. 3) is about how the
penalty/reward thresholds behave under *realistic* fault statistics.
The scripted bursts of :mod:`repro.faults.scenarios` and the
independent arrivals of :mod:`repro.faults.processes` only cover the
two extremes; this module adds the channel models in between:

* :class:`GilbertElliottChannel` — the classic two-state Markov bursty
  channel: a hidden good/bad state evolves once per slot, and each
  transmission is corrupted with the state's error probability.  Burst
  lengths are geometric (mean ``1/p_bg``), so error clusters look like
  real EMI on a wire rather than independent coin flips.
* :class:`CorrelatedEMI` — spatially correlated receiver failures: one
  latent disturbance per round knocks out a contiguous *neighbourhood*
  of receivers for the whole round (every reception at those nodes is
  locally detectable, i.e. an asymmetric/SOS pattern).
* :class:`DutyCycleIntermittent` — an intermittent sender with a duty
  cycle: exactly ``on_rounds`` faulty rounds in every ``period_rounds``
  window, at a per-period random phase.  Occupancy is exact by
  construction, which makes the model a sharp test load for reward
  tuning.
* :class:`AdaptiveSaboteur` — an adversarial sender that reads the live
  health/penalty state and stops attacking just before it would be
  isolated (the "crying wolf" strategy the reward-based penalty
  forgetting is designed around).  Declared ``event_only``: its
  decisions depend on protocol state, so it cannot be lowered to
  precomputed masks.
* :class:`FaultStorm` — correlated multi-node storms: per round a
  single gust draw decides whether a storm is active, and during a gust
  every (selected) sender is independently hit with ``intensity``.

All models follow the two contracts the rest of the stack relies on:

* **Serialization** — each is a :class:`SerializableScenario` with
  ``spec_params``/``to_dict``/``from_dict``; the stochastic ones carry
  an ``rng_stream`` name resolved against the cluster's
  :class:`~repro.sim.rng.RandomStreams`, so they flow through
  :class:`~repro.spec.model.ScenarioSpec`, the campaign store and spec
  digests unchanged.
* **Prefix-stable lazy sampling** — draws advance monotonically with
  the queried horizon and never depend on *which* slots were queried,
  so the quiescence probes (bus fast path) and the vectorized lowering
  (:mod:`repro.vec.inject`) reproduce the event engine's RNG stream
  draw-for-draw.
"""

from __future__ import annotations

from random import Random
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence

from ..tt.timebase import TimeBase
from .injector import Scenario, TransmissionContext
from .model import FaultDirective
from .processes import _StochasticScenario, require_finite_horizon
from .scenarios import SerializableScenario


def _check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


class GilbertElliottChannel(_StochasticScenario, Scenario):
    """Two-state (good/bad) Markov bursty channel over the whole bus.

    The hidden state advances once per global slot; a transmission in
    the good state is corrupted with probability ``error_good`` and in
    the bad state with ``error_bad``.  Transition probabilities
    ``p_gb`` (good -> bad) and ``p_bg`` (bad -> good) give the closed
    forms the statistical tests pin:

    * stationary bad-state probability ``pi_B = p_gb / (p_gb + p_bg)``;
    * stationary error rate
      ``(1 - pi_B) * error_good + pi_B * error_bad``;
    * mean bad-state sojourn (burst length) ``1 / p_bg`` slots.

    Draw order is fixed at two draws per slot — the error coin first,
    then the transition coin — so the sampled sequence is a pure
    function of the seed, independent of which slots are queried.
    """

    def __init__(self, p_gb: float, p_bg: float, rng: Random,
                 error_good: float = 0.0, error_bad: float = 1.0,
                 start_bad: bool = False, cause: str = "ge-burst",
                 rng_stream: Optional[str] = None) -> None:
        if not 0.0 < p_gb <= 1.0:
            raise ValueError(f"p_gb must be in (0, 1], got {p_gb}")
        if not 0.0 < p_bg <= 1.0:
            raise ValueError(f"p_bg must be in (0, 1], got {p_bg}")
        self.p_gb = float(p_gb)
        self.p_bg = float(p_bg)
        self.error_good = _check_probability("error_good", error_good)
        self.error_bad = _check_probability("error_bad", error_bad)
        self.start_bad = bool(start_bad)
        self.cause = cause
        self.rng_stream = rng_stream
        self._rng = rng
        self._n_slots: Optional[int] = None
        self._errors: List[bool] = []
        self._bad = self.start_bad  # state entering the next unsampled slot

    def spec_params(self) -> Dict[str, Any]:
        """Constructor parameters as a JSON-native dict."""
        return {"p_gb": self.p_gb, "p_bg": self.p_bg,
                "error_good": self.error_good, "error_bad": self.error_bad,
                "start_bad": self.start_bad, "cause": self.cause,
                "rng_stream": self.rng_stream}

    def stationary_bad(self) -> float:
        """Closed-form stationary probability of the bad state."""
        return self.p_gb / (self.p_gb + self.p_bg)

    def stationary_error_rate(self) -> float:
        """Closed-form stationary per-slot error probability."""
        pi_b = self.stationary_bad()
        return (1.0 - pi_b) * self.error_good + pi_b * self.error_bad

    def mean_burst_slots(self) -> float:
        """Closed-form mean bad-state sojourn length in slots."""
        return 1.0 / self.p_bg

    def _bind_slots(self, n_slots: int) -> None:
        # First binding wins; the slot count defines the global slot
        # index and with it the whole sampled sequence.
        if self._n_slots is None:
            self._n_slots = n_slots
        elif self._n_slots != n_slots:
            raise ValueError(
                f"GilbertElliottChannel bound to {self._n_slots} slots "
                f"cannot be reused on a {n_slots}-slot cluster")

    def _extend_to(self, t: int) -> None:
        require_finite_horizon(type(self).__name__, t)
        while len(self._errors) <= t:
            bad = self._bad
            err_p = self.error_bad if bad else self.error_good
            self._errors.append(self._rng.random() < err_p)
            flip_p = self.p_bg if bad else self.p_gb
            if self._rng.random() < flip_p:
                self._bad = not bad

    def slot_error(self, round_index: int, slot: int,
                   timebase: TimeBase) -> bool:
        """Oracle: whether the channel corrupts ``(round, slot)``."""
        self._bind_slots(timebase.n_slots)
        t = round_index * self._n_slots + (slot - 1)
        self._extend_to(t)
        return self._errors[t]

    def error_sequence(self, n_slots_total: int,
                       timebase: TimeBase) -> List[bool]:
        """The first ``n_slots_total`` per-slot error flags (for tests)."""
        self._bind_slots(timebase.n_slots)
        self._extend_to(n_slots_total - 1)
        return self._errors[:n_slots_total]

    def directives(self, ctx: TransmissionContext) -> Iterator[FaultDirective]:
        """Yield the fault directives this scenario imposes on ``ctx``."""
        if self.slot_error(ctx.round_index, ctx.slot, ctx.timebase):
            yield FaultDirective.benign(cause=self.cause)

    def is_quiescent(self, round_index: int, slot: int,
                     timebase: TimeBase) -> bool:
        """True iff the channel leaves this slot clean.

        Samples exactly the prefix :meth:`directives` would, so the RNG
        draw sequence is identical on both bus paths.
        """
        return not self.slot_error(round_index, slot, timebase)


class CorrelatedEMI(_StochasticScenario, Scenario):
    """Spatially correlated receiver failures from one latent event.

    Per round, one draw decides whether a disturbance strikes
    (probability ``event_rate``); if it does, a second draw places its
    centre uniformly and a contiguous neighbourhood of ``width``
    receivers (wrapping around the ring ``1..N``) loses every reception
    of that round.  The affected receivers locally detect each frame as
    faulty — the asymmetric/SOS reception pattern of Sec. 8 — so two
    receivers within ``width`` of each other fail *together* far more
    often than independent per-receiver noise would allow.
    """

    def __init__(self, event_rate: float, width: int, rng: Random,
                 cause: str = "emi", rng_stream: Optional[str] = None) -> None:
        if not 0.0 < event_rate <= 1.0:
            raise ValueError(f"event_rate must be in (0, 1], got {event_rate}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.event_rate = float(event_rate)
        self.width = int(width)
        self.cause = cause
        self.rng_stream = rng_stream
        self._rng = rng
        self._n: Optional[int] = None
        self._events: Dict[int, FrozenSet[int]] = {}
        self._sampled_until = -1

    def spec_params(self) -> Dict[str, Any]:
        """Constructor parameters as a JSON-native dict."""
        return {"event_rate": self.event_rate, "width": self.width,
                "cause": self.cause, "rng_stream": self.rng_stream}

    def _bind_nodes(self, n: int) -> None:
        if self._n is None:
            self._n = n
        elif self._n != n:
            raise ValueError(
                f"CorrelatedEMI bound to {self._n} nodes cannot be "
                f"reused on an {n}-node cluster")

    def _extend_to(self, round_index: int) -> None:
        require_finite_horizon(type(self).__name__, round_index)
        while self._sampled_until < round_index:
            k = self._sampled_until + 1
            if self._rng.random() < self.event_rate:
                center = self._rng.randrange(self._n)
                self._events[k] = frozenset(
                    ((center + i) % self._n) + 1 for i in range(self.width))
            self._sampled_until = k

    def affected_receivers(self, round_index: int,
                           timebase: TimeBase) -> FrozenSet[int]:
        """Receivers knocked out in ``round_index`` (empty if none)."""
        self._bind_nodes(timebase.n_slots)
        self._extend_to(round_index)
        return self._events.get(round_index, frozenset())

    def directives(self, ctx: TransmissionContext) -> Iterator[FaultDirective]:
        """Yield the fault directives this scenario imposes on ``ctx``."""
        affected = self.affected_receivers(ctx.round_index, ctx.timebase)
        if affected:
            yield FaultDirective.asymmetric(sorted(affected), cause=self.cause)

    def is_quiescent(self, round_index: int, slot: int,
                     timebase: TimeBase) -> bool:
        """True iff no disturbance strikes this slot's round.

        The round-level sampling is shared with :meth:`directives`, so
        probing burns no extra draws.
        """
        return not self.affected_receivers(round_index, timebase)


class DutyCycleIntermittent(_StochasticScenario, Scenario):
    """An intermittent sender with an exact duty cycle.

    Time from ``first_round`` on is tiled into periods of
    ``period_rounds`` rounds; in each period the sender is faulty for a
    contiguous window of exactly ``on_rounds`` rounds, placed at a
    uniformly random phase (one draw per period).  The occupancy is
    therefore exactly ``on_rounds / period_rounds`` over whole periods
    — a sharp, tunable load for reward-threshold experiments, unlike
    the exponential reappearances of
    :class:`~repro.faults.processes.IntermittentSender`.
    """

    def __init__(self, sender: int, period_rounds: int, on_rounds: int,
                 rng: Random, first_round: int = 0,
                 cause: Optional[str] = None,
                 rng_stream: Optional[str] = None) -> None:
        if period_rounds < 1:
            raise ValueError(f"period_rounds must be >= 1, got {period_rounds}")
        if not 1 <= on_rounds <= period_rounds:
            raise ValueError(
                f"on_rounds must be in [1, period_rounds], got {on_rounds}")
        self.sender = sender
        self.period_rounds = int(period_rounds)
        self.on_rounds = int(on_rounds)
        self.first_round = int(first_round)
        self.cause = cause or f"duty-cycle-{sender}"
        self.rng_stream = rng_stream
        self._rng = rng
        self._offsets: List[int] = []  # one sampled phase per period

    def spec_params(self) -> Dict[str, Any]:
        """Constructor parameters as a JSON-native dict."""
        return {"sender": self.sender, "period_rounds": self.period_rounds,
                "on_rounds": self.on_rounds, "first_round": self.first_round,
                "cause": self.cause, "rng_stream": self.rng_stream}

    def duty_cycle(self) -> float:
        """Exact fraction of faulty rounds over whole periods."""
        return self.on_rounds / self.period_rounds

    def _extend_to_period(self, period: int) -> None:
        require_finite_horizon(type(self).__name__, period)
        while len(self._offsets) <= period:
            self._offsets.append(
                self._rng.randrange(self.period_rounds - self.on_rounds + 1))

    def is_faulty_round(self, round_index: int) -> bool:
        """Oracle: whether the sender's slot in ``round_index`` is hit."""
        if round_index < self.first_round:
            return False
        rel = round_index - self.first_round
        period, phase = divmod(rel, self.period_rounds)
        self._extend_to_period(period)
        offset = self._offsets[period]
        return offset <= phase < offset + self.on_rounds

    def directives(self, ctx: TransmissionContext) -> Iterator[FaultDirective]:
        """Yield the fault directives this scenario imposes on ``ctx``."""
        if ctx.sender != self.sender:
            return
        if self.is_faulty_round(ctx.round_index):
            yield FaultDirective.benign(cause=self.cause)

    def is_quiescent(self, round_index: int, slot: int,
                     timebase: TimeBase) -> bool:
        """True unless the sender's slot falls in the period's on-window.

        The short-circuit keeps sampling restricted to the sender's own
        slots, exactly as :meth:`directives` restricts it.
        """
        return slot != self.sender or not self.is_faulty_round(round_index)


class AdaptiveSaboteur(SerializableScenario, Scenario):
    """An adversarial sender that reads the health state and backs off.

    The saboteur injects benign faults in its own slot for as long as
    the protocol's *current* penalty against it leaves room below the
    isolation threshold, and stops as soon as one more penalty hit
    could come within ``margin`` of crossing ``P`` — the adaptive
    "stay just under the radar" strategy the reward-based penalty
    forgetting (Sec. 9) exists to bound.  Because the diagnosis
    pipeline lags the bus by a few rounds, an aggressive margin can
    still overshoot into isolation; that race is exactly what the model
    is for.

    The scenario must be given a view of the protocol state with
    :meth:`bind_observer` (the spec build path does this automatically
    for any scenario exposing the hook).  Decisions are memoised per
    round at first query, so the fast-path quiescence probe and the
    slow-path directive application see the identical choice.

    ``event_only = True``: the decision depends on live protocol state,
    so the model cannot be lowered to precomputed masks — the
    vectorized backend rejects it with
    :class:`~repro.vec.errors.UnsupportedSpecError`.
    """

    #: The vectorized backend cannot precompute this scenario's masks.
    event_only = True

    def __init__(self, sender: int, margin: int = 0,
                 cause: Optional[str] = None) -> None:
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        self.sender = sender
        self.margin = int(margin)
        self.cause = cause or f"saboteur-{sender}"
        # The protocol view: the observed facade's config and services.
        self._config: Any = None
        self._services: Any = None
        self._decisions: Dict[int, bool] = {}

    def spec_params(self) -> Dict[str, Any]:
        """Constructor parameters as a JSON-native dict."""
        return {"sender": self.sender, "margin": self.margin,
                "cause": self.cause}

    def bind_observer(self, target: Any) -> None:
        """Attach the cluster facade whose penalty state drives decisions.

        Only the facade's ``config`` and ``services`` are kept: the
        facade reaches this scenario through its injection layer, so
        keeping the facade itself would make a reference cycle.
        """
        self._config = target.config
        self._services = target.services

    def _attack_in(self, round_index: int) -> bool:
        if round_index in self._decisions:
            return self._decisions[round_index]
        if self._services is None:
            raise ValueError(
                "AdaptiveSaboteur has no protocol view; call "
                "bind_observer(cluster_facade) after attaching it (the "
                "spec build path does this automatically)")
        config = self._config
        # Worst case over all observers: the consensus property keeps
        # the views equal in steady state, but during the pipeline lag
        # the most advanced view is the one that isolates first.
        penalty = max(
            service.pr.penalties[self.sender - 1]
            for service in self._services.values())
        headroom = (config.penalty_threshold
                    - config.criticality_of(self.sender) - self.margin)
        decision = penalty <= headroom
        self._decisions[round_index] = decision
        return decision

    def directives(self, ctx: TransmissionContext) -> Iterator[FaultDirective]:
        """Yield the fault directives this scenario imposes on ``ctx``."""
        if ctx.sender != self.sender:
            return
        if self._attack_in(ctx.round_index):
            yield FaultDirective.benign(cause=self.cause)

    def is_quiescent(self, round_index: int, slot: int,
                     timebase: TimeBase) -> bool:
        """True unless the saboteur decides to attack this round.

        The decision is memoised at first query (probe or directive) —
        both happen at the slot's transmission time, so fast and slow
        bus paths read the same protocol state.
        """
        return slot != self.sender or not self._attack_in(round_index)


class FaultStorm(_StochasticScenario, Scenario):
    """Correlated multi-node fault storms (gusts hitting many senders).

    Per round inside the active window, one draw decides whether a gust
    is blowing (probability ``gust_rate``); during a gust each selected
    sender is independently hit with probability ``intensity`` (one
    draw per candidate sender, in ascending sender order).  A hit
    corrupts that sender's transmission for all receivers (benign).
    Cross-sender correlation comes entirely from the shared gust: two
    senders fail in the same round with probability
    ``gust_rate * intensity**2``, not ``(gust_rate * intensity)**2``.
    """

    def __init__(self, gust_rate: float, intensity: float, rng: Random,
                 senders: Optional[Sequence[int]] = None,
                 start_round: int = 0,
                 duration_rounds: Optional[int] = None,
                 cause: str = "storm",
                 rng_stream: Optional[str] = None) -> None:
        if not 0.0 < gust_rate <= 1.0:
            raise ValueError(f"gust_rate must be in (0, 1], got {gust_rate}")
        self.gust_rate = float(gust_rate)
        self.intensity = _check_probability("intensity", intensity)
        self.senders = (None if senders is None
                        else sorted(int(s) for s in senders))
        if self.senders is not None and not self.senders:
            raise ValueError("senders must be None (all) or non-empty")
        self.start_round = int(start_round)
        self.duration_rounds = (None if duration_rounds is None
                                else int(duration_rounds))
        if self.duration_rounds is not None and self.duration_rounds < 1:
            raise ValueError("duration_rounds must be None or >= 1")
        self.cause = cause
        self.rng_stream = rng_stream
        self._rng = rng
        self._n: Optional[int] = None
        self._hits: Dict[int, FrozenSet[int]] = {}
        self._sampled_until = -1

    def spec_params(self) -> Dict[str, Any]:
        """Constructor parameters as a JSON-native dict."""
        return {"gust_rate": self.gust_rate, "intensity": self.intensity,
                "senders": self.senders, "start_round": self.start_round,
                "duration_rounds": self.duration_rounds, "cause": self.cause,
                "rng_stream": self.rng_stream}

    def _bind_nodes(self, n: int) -> None:
        if self._n is None:
            self._n = n
        elif self._n != n:
            raise ValueError(
                f"FaultStorm bound to {self._n} nodes cannot be reused "
                f"on an {n}-node cluster")

    def _in_window(self, round_index: int) -> bool:
        if round_index < self.start_round:
            return False
        if self.duration_rounds is None:
            return True
        return round_index < self.start_round + self.duration_rounds

    def _extend_to(self, round_index: int) -> None:
        require_finite_horizon(type(self).__name__, round_index)
        candidates = self.senders or range(1, self._n + 1)
        while self._sampled_until < round_index:
            k = self._sampled_until + 1
            if self._in_window(k) and self._rng.random() < self.gust_rate:
                hit = frozenset(s for s in candidates
                                if self._rng.random() < self.intensity)
                if hit:
                    self._hits[k] = hit
            self._sampled_until = k

    def hit_senders(self, round_index: int,
                    timebase: TimeBase) -> FrozenSet[int]:
        """Senders whose transmissions are corrupted in ``round_index``."""
        self._bind_nodes(timebase.n_slots)
        self._extend_to(round_index)
        return self._hits.get(round_index, frozenset())

    def directives(self, ctx: TransmissionContext) -> Iterator[FaultDirective]:
        """Yield the fault directives this scenario imposes on ``ctx``."""
        if ctx.sender in self.hit_senders(ctx.round_index, ctx.timebase):
            yield FaultDirective.benign(cause=self.cause)

    def is_quiescent(self, round_index: int, slot: int,
                     timebase: TimeBase) -> bool:
        """True iff the storm leaves this sender's slot untouched.

        Sampling is per round regardless of the queried slot, so probes
        and directives consume the identical draw sequence.
        """
        return slot not in self.hit_senders(round_index, timebase)


def gilbert_elliott_stationary_bad(p_gb: float, p_bg: float) -> float:
    """Stationary bad-state probability of a Gilbert-Elliott chain."""
    return p_gb / (p_gb + p_bg)


def gilbert_elliott_error_rate(p_gb: float, p_bg: float,
                               error_good: float, error_bad: float) -> float:
    """Stationary per-slot error probability of a Gilbert-Elliott chain."""
    pi_b = gilbert_elliott_stationary_bad(p_gb, p_bg)
    return (1.0 - pi_b) * error_good + pi_b * error_bad


__all__ = [
    "AdaptiveSaboteur",
    "CorrelatedEMI",
    "DutyCycleIntermittent",
    "FaultStorm",
    "GilbertElliottChannel",
    "gilbert_elliott_error_rate",
    "gilbert_elliott_stationary_bad",
]
