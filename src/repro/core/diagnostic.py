"""The on-line diagnostic protocol (Alg. 1 of the paper).

:class:`DiagnosticService` is the *diagnostic job* ``diag_i`` running on
each node as an add-on, application-level module.  Once per round it:

1. **Local detection** — reads the validity bits of the diagnostic
   messages and, via read alignment, forms the local syndrome of the
   previous round.
2. **Dissemination** — writes a local syndrome to the interface state
   (send alignment decides whether the fresh or the previous one).
3. **Aggregation** — read-aligns the received diagnostic messages into
   the diagnostic matrix for the diagnosed round, mapping syndromes
   whose validity bit is 0 (or whose sender is isolated, or whose
   payload is malformed) to the error value ε.
4. **Analysis** — computes the consistent health vector by hybrid
   majority voting over the matrix columns, on the packed bitmask
   plane (:mod:`repro.core.bitmatrix`); when no external syndrome
   survives (communication blackout, Lemma 3) it falls back on the
   local collision detector for itself and on its own buffered local
   syndrome for the other nodes.
5. **Update counters** — feeds the health vector to the penalty/reward
   algorithm and applies isolation decisions.

The service only touches the observables the paper allows an
application-level module: interface variables + validity bits, the
collision detector API and the OS-reported schedule parameters.

The class is written as a template method so that the membership
variant (Sec. 7) can reorder analysis before dissemination and inject
minority accusations by overriding two hooks.
"""

from __future__ import annotations

from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.trace import Trace
from ..tt.controller import DIAG_CHANNEL, SenderStatus
from ..tt.node import JobContext, Node
from .alignment import diagnosed_round, read_align, select_dissemination
from .bitmatrix import AnalysisCache, BitDiagnosticMatrix, pack_syndrome_cached
from .config import IsolationMode, ProtocolConfig
from .penalty_reward import PenaltyRewardState
from .syndrome import (EPSILON, Row, intern_syndrome, is_valid_syndrome,
                       parse_tagged_syndrome)

#: Trace verbosity: 0 = decisions only, 1 = + health vectors containing
#: faults, 2 = everything (syndromes, all health vectors, counters).
TRACE_DECISIONS, TRACE_FAULTS, TRACE_ALL = 0, 1, 2

IsolationCallback = Callable[[int, int, int], None]


class DiagnosticService:
    """Alg. 1, the per-node diagnostic job.

    Parameters
    ----------
    config:
        Protocol configuration (shared by all nodes of the cluster).
    node:
        The hosting :class:`~repro.tt.node.Node`.
    trace:
        Trace to record protocol events into.
    byzantine_rng:
        When given, the node broadcasts *random* local syndromes instead
        of its real ones — the malicious-node validation case of Sec. 8.
        (The node is then not obedient; its own diagnosis output is
        unconstrained by the theorems.)
    on_isolation:
        Optional callback ``(observer_id, isolated_id, round)`` invoked
        when this service isolates a node.
    trace_level:
        Verbosity of trace recording (see module constants).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; when enabled the
        service counts votes, Eqn. 1 branch outcomes, health-vector
        transitions, isolations and reintegrations online (independent
        of ``trace_level``).
    analysis_cache:
        Optional :class:`~repro.core.bitmatrix.AnalysisCache` shared by
        all services of one cluster so identical matrices are analysed
        once per round cluster-wide; a private cache is created when
        omitted.
    """

    def __init__(self, config: ProtocolConfig, node: Node, trace: Trace,
                 byzantine_rng: Optional[Random] = None,
                 on_isolation: Optional[IsolationCallback] = None,
                 trace_level: int = TRACE_ALL,
                 metrics: Optional[Any] = None,
                 analysis_cache: Optional[AnalysisCache] = None) -> None:
        if config.n_nodes != node.controller.n_nodes:
            raise ValueError("config.n_nodes does not match the cluster size")
        self.config = config
        self.node = node
        self.node_id = node.node_id
        self.trace = trace
        self.trace_level = trace_level
        self.byzantine_rng = byzantine_rng
        self.on_isolation = on_isolation
        if byzantine_rng is not None:
            node.ground_truth.obedient = False
            node.ground_truth.notes["byzantine"] = True

        n = config.n_nodes
        # The job plan: per-round constants of Alg. 1, derived from the
        # (frozen) configuration once.  Round k diagnoses round
        # k - _d_offset, and own syndromes are kept _own_ls_depth rounds
        # for the Lemma 3 fallback.
        self._d_offset = -diagnosed_round(0, config.all_send_curr_round)
        self._startup_rounds = config.startup_rounds
        self._own_ls_depth = config.detection_pipeline_rounds() + 2
        # Buffers for read/send alignment (Alg. 1 lines 16-17).  All are
        # 0-based sequences of length N (index j-1 for node j).
        self._prev_dm: List[Any] = [None] * n
        self._prev_ls: List[int] = [0] * n
        self._prev_al_ls: Sequence[int] = [0] * n
        # Own aligned syndromes by the round their observations refer
        # to; the Lemma 3 fallback reads the diagnosed round's entry.
        self._own_ls_by_round: Dict[int, Tuple[int, ...]] = {}
        # Protocol outputs.
        self.active: List[int] = [1] * n
        self.pr = PenaltyRewardState(config, metrics=metrics)
        # Extension hook (reintegration policy etc.).
        self.post_update_hooks: List[Callable[["DiagnosticService", List[int], int], None]] = []
        self._last_analysis_round: Optional[int] = None
        self._last_matrix: Optional[BitDiagnosticMatrix] = None
        self._now: float = 0.0
        self._analysis_cache = (analysis_cache if analysis_cache is not None
                                else AnalysisCache(metrics))
        # Online observability: instruments resolved once, updates
        # guarded by one cached boolean on the per-round paths.
        self.metrics = metrics
        self._m_on = metrics is not None and metrics.enabled
        self._timing_on = self._m_on and metrics.timing
        self._prev_cons_hv: Optional[List[int]] = None
        if self._m_on:
            self._m_hmaj_calls = metrics.counter("vote.hmaj_calls")
            self._m_hmaj_majority = metrics.counter("vote.hmaj_majority")
            self._m_hmaj_default = metrics.counter("vote.hmaj_default_healthy")
            self._m_hmaj_bottom = metrics.counter("vote.hmaj_bottom")
            self._m_analysis_rounds = metrics.counter("diag.analysis_rounds")
            self._m_uniform_rounds = metrics.counter(
                "diag.uniform_shortcut_rounds")
            self._m_hv_transitions = metrics.counter("diag.hv_transitions")
            self._m_isolations = metrics.counter("diag.isolations")
            self._m_reintegrations = metrics.counter("diag.reintegrations")
            self._m_eps_rows = metrics.histogram(
                "diag.matrix_epsilon_rows", (0, 1, 2, 4, 8, 16, 32))
            self._m_popcount_votes = metrics.counter("vote.popcount_votes")
            self._m_intern_evict = metrics.counter(
                "syndrome.intern_evictions")
        else:
            self._m_intern_evict = None

    # ------------------------------------------------------------------
    # Job protocol
    # ------------------------------------------------------------------
    def execute(self, ctx: JobContext) -> None:
        """One execution of ``diag_i`` (one round).

        Static node schedules run the paper's Alg. 1 verbatim
        (:meth:`_execute_static`).  Dynamic schedules (Sec. 10) run a
        variant with *round-tagged* syndromes (:meth:`_execute_dynamic`):
        the paper's read/send alignment relies on the split point
        ``l_i`` and the ``send_curr_round_i`` predicate staying fixed
        between consecutive executions — with a per-round random
        schedule both can flip, which silently drops observations and
        mis-attributes disseminated syndromes to the wrong diagnosed
        round.  Tagging each diagnostic message with the round its
        observations refer to (a couple of bits on the wire) removes
        the ambiguity; mismatching or missing tags degrade to ε votes,
        which the hybrid voting tolerates by construction.
        """
        if self.node.schedule.is_static:
            self._execute_static(ctx)
        else:
            self._execute_dynamic(ctx)

    def _execute_static(self, ctx: JobContext) -> None:
        """Alg. 1 exactly as published (static schedules)."""
        k = ctx.round_index
        controller = ctx.controller
        self._now = ctx.time

        # Phases 1 and 3 — read interface state and align (lines 1-6).
        curr_dm, curr_ls = controller.read_channel(DIAG_CHANNEL)
        l = ctx.params.l
        al_dm = read_align(self._prev_dm, curr_dm, l)
        al_ls = read_align(self._prev_ls, curr_ls, l)
        # The health vector of round k covers round k-2 or k-3 (Lemma
        # 1); until that round exists and any configured startup margin
        # has passed, the pipeline holds no genuine data to analyse.
        d_round = k - self._d_offset
        analysis_on = d_round >= self._startup_rounds

        if analysis_on and self.analysis_before_dissemination:
            # Membership variant: analyse first so accusations can ride
            # on the syndrome disseminated this round (Sec. 7).
            matrix = self._build_matrix(al_dm, al_ls)
            cons_hv = self._analyse(controller, matrix, d_round, k)
            al_ls = self._post_analysis(al_dm, al_ls, cons_hv, k)
            self._disseminate(controller, al_ls, ctx.params.send_curr_round, k)
            self._update_counters(controller, cons_hv, k)
        else:
            # Phase 2 — dissemination (lines 7-10).
            self._disseminate(controller, al_ls, ctx.params.send_curr_round, k)
            if analysis_on:
                # Phases 4 and 5 — analysis and counter update.
                matrix = self._build_matrix(al_dm, al_ls)
                cons_hv = self._analyse(controller, matrix, d_round, k)
                al_ls = self._post_analysis(al_dm, al_ls, cons_hv, k)
                self._update_counters(controller, cons_hv, k)

        # Buffering for the next round (lines 16-17).  The controller
        # read returned fresh lists, so they are kept without a copy.
        self._prev_dm = curr_dm
        self._prev_ls = curr_ls
        al_ls = tuple(al_ls)
        self._prev_al_ls = al_ls
        self._own_ls_by_round[k - 1] = al_ls
        self._prune_own_ls(k)

        if self.trace_level >= TRACE_ALL:
            self.trace.record(ctx.time, "syndrome", node=self.node_id,
                              round_index=k, syndrome=al_ls, l=l)

    def _execute_dynamic(self, ctx: JobContext) -> None:
        """The round-tagged variant for dynamic node schedules."""
        k = ctx.round_index
        controller = ctx.controller
        self._now = ctx.time

        # Local detection for round k-1 straight from the controller's
        # receive history (always complete, regardless of the offset the
        # scheduler drew this round).
        al_ls = self._history_validity(controller, k - 1)
        d_round = k - 3

        analysis_on = d_round >= self._startup_rounds
        if analysis_on and self.analysis_before_dissemination:
            matrix = self._build_tagged_matrix(controller, d_round, k)
            cons_hv = self._analyse(controller, matrix, d_round, k)
            al_ls = self._post_analysis(None, al_ls, cons_hv, k)
            self._disseminate_tagged(controller, k - 1, al_ls)
            self._update_counters(controller, cons_hv, k)
        else:
            self._disseminate_tagged(controller, k - 1, al_ls)
            if analysis_on:
                matrix = self._build_tagged_matrix(controller, d_round, k)
                cons_hv = self._analyse(controller, matrix, d_round, k)
                al_ls = self._post_analysis(None, al_ls, cons_hv, k)
                self._update_counters(controller, cons_hv, k)

        self._own_ls_by_round[k - 1] = tuple(al_ls)
        self._prune_own_ls(k)
        if self.trace_level >= TRACE_ALL:
            self.trace.record(ctx.time, "syndrome", node=self.node_id,
                              round_index=k, syndrome=tuple(al_ls),
                              l=ctx.params.l)

    def _history_validity(self, controller, target_round: int) -> List[int]:
        """Validity bits of the messages sent in ``target_round``."""
        al_ls: List[int] = []
        for j in range(1, self.config.n_nodes + 1):
            rec = controller.read_delivery(j, target_round)
            al_ls.append(rec[0] if rec is not None else 0)
        return al_ls

    def _prune_own_ls(self, k: int) -> None:
        """Drop the own-syndrome entry that just left the pipeline depth.

        Entries older than ``k - _own_ls_depth`` are stale.  Each
        execution adds the entry for round ``k-1`` and the job runs once
        per round, so exactly one entry expires per execution.
        """
        self._own_ls_by_round.pop(k - self._own_ls_depth - 1, None)

    # ------------------------------------------------------------------
    # Variant hooks
    # ------------------------------------------------------------------
    #: Overridden by the membership variant (analysis must precede
    #: dissemination so accusations can be folded in, Sec. 7).
    analysis_before_dissemination: bool = False

    def _post_analysis(self, al_dm: List[Any], al_ls: List[int],
                       cons_hv: List[int], k: int) -> List[int]:
        """Hook between analysis and counter update.

        The base protocol returns ``al_ls`` unchanged; the membership
        variant folds minority accusations into it.
        """
        return al_ls

    # ------------------------------------------------------------------
    # Phase 2 — dissemination
    # ------------------------------------------------------------------
    def _disseminate(self, controller, al_ls: List[int],
                     send_curr_round: bool, k: int) -> None:
        out = select_dissemination(al_ls, self._prev_al_ls, send_curr_round,
                                   self.config.all_send_curr_round)
        if self.byzantine_rng is not None:
            out = [self.byzantine_rng.randrange(2)
                   for _ in range(self.config.n_nodes)]
        # Interned so that the identical syndromes a healthy cluster
        # disseminates every round share one tuple object; the matrix
        # aggregation detects uniform rounds by pointer comparison.
        controller.write_interface(
            intern_syndrome(tuple(out), self._m_intern_evict))

    # ------------------------------------------------------------------
    # Phase 4 — analysis
    # ------------------------------------------------------------------
    def _build_matrix(self, al_dm: List[Any],
                      al_ls: List[int]) -> BitDiagnosticMatrix:
        """Aggregation: the diagnostic matrix with ε rows filled in."""
        n = self.config.n_nodes
        if 0 not in al_ls and 0 not in self.active:
            # Fast path for the common fault-free round: every sender is
            # active and valid, and (thanks to syndrome interning at
            # dissemination) all received syndromes are the same tuple
            # object.  The resulting matrix is exactly what the loop
            # below would build — every row packs the same syndrome —
            # plus the uniform marker that lets the analysis skip the
            # vote.
            row0 = al_dm[0]
            if (type(row0) is tuple and len(row0) == n
                    and all(r is row0 for r in al_dm)
                    and row0.count(0) + row0.count(1) == n):
                matrix = BitDiagnosticMatrix.uniform(n, row0)
                self._last_matrix = matrix
                return matrix
        matrix = BitDiagnosticMatrix(n)
        for m in range(1, n + 1):
            # An invalid or isolated sender's row stays ε, and so does
            # garbage from a non-obedient node that still passed the
            # controller's checks: no usable opinion.
            if (al_ls[m - 1] == 0 or self.active[m - 1] == 0
                    or not is_valid_syndrome(al_dm[m - 1], n)):
                continue
            matrix.set_row_bits(m, pack_syndrome_cached(tuple(al_dm[m - 1])))
        self._last_matrix = matrix
        return matrix

    def _build_tagged_matrix(self, controller, d_round: int,
                             k: int) -> BitDiagnosticMatrix:
        """Aggregation for the dynamic variant: match syndromes by tag.

        Scans each sender's buffered deliveries of rounds ``k-1`` and
        ``k-2`` for a valid diagnostic message whose tag names the
        diagnosed round; anything else (invalid frame, wrong tag,
        malformed payload, isolated sender) contributes ε.
        """
        n = self.config.n_nodes
        matrix = BitDiagnosticMatrix(n)
        for m in range(1, n + 1):
            row: Row = EPSILON
            if self.active[m - 1]:
                for source_round in (k - 1, k - 2):
                    rec = controller.read_delivery(m, source_round)
                    if rec is None:
                        continue
                    valid, payload = rec
                    if not valid:
                        continue
                    parsed = parse_tagged_syndrome(
                        controller.channel_of(payload, DIAG_CHANNEL), n)
                    if parsed is not None and parsed[0] == d_round:
                        row = parsed[1]
                        break
            matrix.set_row(m, row)
        self._last_matrix = matrix
        return matrix

    def _disseminate_tagged(self, controller, about_round: int,
                            al_ls: List[int]) -> None:
        """Write a self-describing (tag, syndrome) diagnostic message."""
        out = list(al_ls)
        if self.byzantine_rng is not None:
            out = [self.byzantine_rng.randrange(2)
                   for _ in range(self.config.n_nodes)]
        controller.write_interface((about_round, tuple(out)))

    def _analyse(self, controller, matrix: BitDiagnosticMatrix,
                 d_round: int, k: int) -> List[int]:
        if self._timing_on:
            with self.metrics.timer("diag.analysis"):
                return self._analyse_impl(controller, matrix, d_round, k)
        return self._analyse_impl(controller, matrix, d_round, k)

    def _analyse_impl(self, controller, matrix: BitDiagnosticMatrix,
                      d_round: int, k: int) -> List[int]:
        m_on = self._m_on
        uniform = matrix.uniform_row()
        if uniform is not None:
            # Uniform matrix: column j holds N-1 identical non-ε votes
            # equal to ``uniform[j-1]``, and a strict majority of
            # identical votes is that vote (BOTTOM is unreachable).
            cons_hv = list(uniform)
            if m_on:
                self._m_analysis_rounds.inc()
                self._m_uniform_rounds.inc()
                self._m_eps_rows.observe(0)
        else:
            cons_hv = self._analyse_votes(controller, matrix, d_round)
        if m_on:
            prev = self._prev_cons_hv
            if prev is not None and prev != cons_hv:
                self._m_hv_transitions.inc()
            self._prev_cons_hv = list(cons_hv)
        self._last_analysis_round = k
        if self.trace_level >= TRACE_ALL or (
                self.trace_level >= TRACE_FAULTS and 0 in cons_hv):
            self.trace.record(self._now, "cons_hv",
                              node=self.node_id, round_index=k,
                              diagnosed_round=d_round, cons_hv=tuple(cons_hv))
        return cons_hv

    def _analyse_votes(self, controller, matrix: BitDiagnosticMatrix,
                       d_round: int) -> List[int]:
        """Vote every column (Eqn. 1), memoised per round cluster-wide.

        The memoised entry carries the Eqn. 1 branch tallies, so cache
        hits meter exactly like a recomputation would, and the ⊥
        fallback — node-local by Lemma 3 — is applied per node *after*
        the shared lookup.
        """
        n = self.config.n_nodes
        cache = self._analysis_cache
        key = matrix.key()
        entry = cache.lookup(d_round, key)
        if entry is None:
            entry = matrix.analyse()
            cache.store(key, entry)
            if self._m_on:
                self._m_popcount_votes.inc(n)
        decisions, reasons, n_bottom, n_majority, n_default = entry
        if self._m_on:
            self._m_analysis_rounds.inc()
            self._m_hmaj_calls.inc(n)
            self._m_eps_rows.observe(matrix.epsilon_rows())
            self._m_hmaj_majority.inc(n_majority)
            self._m_hmaj_bottom.inc(n_bottom)
            self._m_hmaj_default.inc(n_default)
        if n_bottom == 0:
            return list(decisions)
        return [self._bottom_fallback(controller, j + 1, d_round)
                if reasons[j] == "bottom" else decisions[j]
                for j in range(n)]

    def _bottom_fallback(self, controller, j: int, d_round: int) -> int:
        """Decision when no external syndrome survived (Lemma 3).

        For itself the node queries the local collision detector of the
        diagnosed round — necessary and sufficient for self-diagnosis.
        For other nodes its own buffered local syndrome already reflects
        the system state (with only benign faults all local syndromes
        are consistent).
        """
        if j == self.node_id:
            return 1 if controller.collision_ok(d_round) else 0
        own = self._own_ls_by_round.get(d_round)
        if own is not None:
            return own[j - 1]
        # No information at all (cold start): optimistic default.
        return 1

    # ------------------------------------------------------------------
    # Phase 5 — update counters
    # ------------------------------------------------------------------
    def _update_counters(self, controller, cons_hv: List[int], k: int) -> None:
        if self._timing_on:
            with self.metrics.timer("diag.pr_update"):
                curr_act = self.pr.update(cons_hv)
        else:
            curr_act = self.pr.update(cons_hv)
        if 0 in curr_act:
            # Only a 0 entry can change ``active`` or isolate a node.
            newly_isolated = [
                j for j in range(1, self.config.n_nodes + 1)
                if self.active[j - 1] == 1 and curr_act[j - 1] == 0]
            self.active = [a and c for a, c in zip(self.active, curr_act)]
            for j in newly_isolated:
                self._apply_isolation(controller, j, k)
        if self.trace_level >= TRACE_ALL and (
                any(self.pr.penalties) or any(self.pr.rewards)):
            self.trace.record(self._now, "penalty", node=self.node_id,
                              round_index=k, **self.pr.snapshot())
        for hook in self.post_update_hooks:
            hook(self, cons_hv, k)

    def _apply_isolation(self, controller, j: int, k: int) -> None:
        if self.config.isolation_mode is IsolationMode.IGNORE:
            controller.set_sender_status(j, SenderStatus.IGNORED)
        else:
            controller.set_sender_status(j, SenderStatus.OBSERVED)
        if j == self.node_id and self.config.effective_halt_on_self_isolation:
            controller.disable_transmission()
        if self._m_on:
            self._m_isolations.inc()
        self.trace.record(self._now, "isolation", node=self.node_id,
                          round_index=k, isolated=j,
                          penalty=self.pr.penalties[j - 1])
        if self.on_isolation is not None:
            self.on_isolation(self.node_id, j, k)

    # ------------------------------------------------------------------
    # Reintegration support (Sec. 9 extension)
    # ------------------------------------------------------------------
    def reintegrate(self, j: int, k: int) -> None:
        """Readmit node ``j``: reset counters and activity (Sec. 5:
        "upon reintegration ... the value of the corresponding element
        is set back to the initial value 1 and the traffic considered
        again")."""
        self.active[j - 1] = 1
        self.pr.reset_node(j)
        self.node.controller.set_sender_status(j, SenderStatus.ACTIVE)
        if j == self.node_id:
            self.node.controller.enable_transmission()
        if self._m_on:
            self._m_reintegrations.inc()
        self.trace.record(self._now, "reintegration", node=self.node_id,
                          round_index=k, reintegrated=j)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_nodes(self) -> Tuple[int, ...]:
        """IDs of nodes this service currently considers active."""
        return tuple(j for j in range(1, self.config.n_nodes + 1)
                     if self.active[j - 1] == 1)

    def is_active(self, j: int) -> bool:
        """Whether this service still considers node ``j`` active."""
        return self.active[j - 1] == 1

    def counters_of(self, j: int) -> Tuple[int, int]:
        """``(penalty, reward)`` of node ``j`` as seen by this service."""
        return self.pr.counters_of(j)


__all__ = [
    "DiagnosticService",
    "TRACE_DECISIONS",
    "TRACE_FAULTS",
    "TRACE_ALL",
]
