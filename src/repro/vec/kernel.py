"""Numpy round kernel: lockstep simulation of rounds × replicates.

Instead of scheduling one discrete event per slot delivery and job
execution, this backend advances **whole TDMA rounds** of a batch of
independent Monte Carlo replicates with vector arithmetic over
``(replicates, N, N)`` arrays.  The mapping rests on two observations:

1. *The protocol consumes only per-slot validity observables.*  A row of
   the diagnostic matrix is read only when the corresponding validity
   bit is 1, and that bit refers to exactly one physical transmission —
   so the kernel tracks, per round, one ``(R, receiver, sender)``
   validity matrix plus the per-sender latched payload, and never needs
   the event engine's per-controller latched-value state.
2. *Jobs partition into two phases per physical round.*  A static
   schedule fixes, per node, how many deliveries of the round precede
   its job (``pos_i``).  The TDMA timeline interleaves as
   ``tx(1) < job(pos=0) < rx(1) < job(pos=1) < tx(2) < ...``; all
   non-shifted jobs read only rounds ``< p`` data (their round-``p``
   reads stop at slot ``pos_i``, and read alignment maps those to the
   *effective* previous round), so the round replays exactly as:
   stage 1 (non-shifted jobs, effective round ``p``), stage 2 (all N
   slots), stage 3 (footnote-1 jobs, effective round ``p+1``).
   Intra-round feedback — a stage-1 job's interface write or
   transmission toggle reaching its own later slot — is routed by the
   compiled ``send_curr_phys`` flag; an isolation's IGNORE status masks
   only the deliveries after the isolating job (``after_job`` mask).

Bit-identity with the event engine is pinned by the differential fuzz
(`tests/test_backend_equivalence_fuzz.py`): health vectors, p/r
counters, isolation times and metrics snapshots must match exactly,
across fault scenarios, protocol knobs and schedules.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import IsolationMode
from ..spec.model import RunSpec
from .compiler import CompiledSchedule, compile_schedule
from .errors import UnsupportedSpecError
from .inject import LoweredInjection, lower_injection

#: Histogram bounds of diag.matrix_epsilon_rows (mirrors DiagnosticService).
_EPS_BOUNDS = (0, 1, 2, 4, 8, 16, 32)

#: Metrics namespace for the per-run provenance counters (mirrors
#: repro.spec.build.PROVENANCE_PREFIX without importing it — build
#: imports this module lazily, keeping the layering acyclic).
_PROVENANCE_PREFIX = "spec.run."

#: Semantic counters the kernel produces per replicate.  These are
#: exactly the protocol-level counters an event-engine run with metrics
#: enabled produces; the event engine's additional *strategy* counters
#: (fast-path/cache/popcount tallies) describe how it computes, not
#: what, and have no vectorized equivalent.  Counters in _COUNTED are
#: the number of set entries in per-round masks; hv_transitions,
#: hmaj_majority and penalty_increments are reduced from the health
#: vectors and vote margins; analysis_rounds, hmaj_calls and
#: hmaj_default_healthy follow from the others (see snapshot()).
_COUNTED = (
    "bus.slots_silent",
    "diag.uniform_shortcut_rounds",
    "diag.isolations",
    "diag.reintegrations",
    "vote.hmaj_bottom",
    "pr.reward_increments",
    "pr.forget_resets",
    "pr.isolation_verdicts",
)
_METERED = _COUNTED + ("diag.hv_transitions", "vote.hmaj_majority",
                       "pr.penalty_increments")

#: Pending metering arrays are reduced once they hold this many bytes,
#: and at the end of the run: a short run pays one batch of reductions,
#: and a large replicate batch keeps a bounded working set.
_METER_FLUSH_BYTES = 1 << 18


def validate_spec(spec: RunSpec) -> None:
    """Reject specs using features the kernel does not model."""
    v = spec.variant
    if v.service != "diagnostic":
        raise UnsupportedSpecError(
            f"vectorized backend supports service='diagnostic' only, "
            f"got {v.service!r}")
    if v.byzantine_nodes:
        raise UnsupportedSpecError(
            "vectorized backend does not model byzantine nodes")
    if spec.cluster.n_channels != 1:
        raise UnsupportedSpecError(
            "vectorized backend models a single-channel bus "
            f"(n_channels={spec.cluster.n_channels})")
    if spec.schedule.kind == "dynamic":
        raise UnsupportedSpecError(
            "vectorized backend requires a static schedule")


class _Stage:
    """One job phase of the physical round: its observers, in node order.

    A stage that covers every node indexes the state arrays with a basic
    slice, so its reads are views and its writes rebind whole arrays; a
    partial stage gathers and scatters by index.
    """

    def __init__(self, idx: np.ndarray, send_curr: np.ndarray,
                 all_send_curr: bool, n: int) -> None:
        self.idx = idx
        self.size = idx.size
        self.full = idx.size == n
        self.sel = slice(None) if self.full else idx
        #: Row ``i`` of a (replicate, observer, subject) array paired
        #: with the observer's own column: ``a[:, diag_i, idx]``.
        self.diag_i = np.arange(idx.size)
        sc = send_curr[idx]
        #: Send alignment (Alg. 1 lines 7-10): None when every observer
        #: disseminates this round's receptions, else who sends last
        #: round's.
        self.align = (None if all_send_curr or not sc.any()
                      else sc[None, :, None])
        #: Consistent health vectors not yet metered, and the last one
        #: metered (the baseline of the next transition count).
        self.pending: List[np.ndarray] = []
        self.last: Optional[np.ndarray] = None


class _Kernel:
    """State and per-round transition of one replicate batch.

    The round step is written against numpy's per-call overhead, which
    dominates at Monte Carlo batch sizes: a full stage works on views,
    one matmul produces every H-maj vote margin, a round in which no
    counter can move skips the p/r update, and per-round counter masks
    are reduced in batches (see :meth:`_flush`) rather than per round.
    Arrays handed from one round to the next are never written in place
    once published: partial-stage writes copy first, so a reference
    taken earlier in the round keeps its value.
    """

    def __init__(self, spec: RunSpec, compiled: CompiledSchedule,
                 lowered: LoweredInjection, n_rep: int,
                 reintegration: bool) -> None:
        cfg = spec.protocol.to_config()
        self.config = cfg
        n = compiled.n
        self.n = n
        self.R = n_rep
        self.n_rounds = spec.n_rounds
        self.trace_level = spec.cluster.trace_level
        self.low = lowered
        self.pipe = cfg.detection_pipeline_rounds()
        self.startup = cfg.startup_rounds
        self.P = cfg.penalty_threshold
        self.RT = cfg.reward_threshold
        crit = np.asarray(cfg.criticalities, dtype=np.int64)
        #: Penalty per faulty verdict, or None when every criticality
        #: is 1 (the verdict mask is then the increment).
        self.crit = None if (crit == 1).all() else crit
        self.ignore_mode = cfg.isolation_mode is IsolationMode.IGNORE
        self.halt = cfg.effective_halt_on_self_isolation
        if reintegration and cfg.reintegration_reward_threshold is None:
            raise ValueError(
                "reintegration requested but the config sets no "
                "reintegration_reward_threshold")
        self.reint_th = (cfg.reintegration_reward_threshold
                         if reintegration else None)
        self.T = compiled.timebase.round_length
        self.offset = compiled.offset
        scp = compiled.send_curr_phys
        self.scp = scp
        self.scp3 = scp[None, :, None]
        self.scp_all = bool(scp.all())
        self.scp_any = bool(scp.any())
        # A node has latched a syndrome once its first job ran: in round
        # 0 only the jobs preceding their own slot have; from round 1 on
        # every node has (None: all latched).
        self.ss0 = None if self.scp_all else scp.copy()
        # after_job[i, s-1]: slot s of the round is delivered after node
        # i's job (so a status change taken in the job masks it).
        self.after_job = (np.arange(1, n + 1)[None, :]
                          > compiled.pos[:, None])
        self.stages = tuple(
            _Stage(idx, compiled.send_curr, cfg.all_send_curr_round, n)
            for idx in (compiled.stage1, compiled.stage3))

        R = n_rep
        # Per-observer protocol state: [replicate, observer, subject].
        self.ACTIVE = np.ones((R, n, n), dtype=bool)
        self.PEN = np.zeros((R, n, n), dtype=np.int64)
        self.REW = np.zeros((R, n, n), dtype=np.int64)
        self.PREV_AL = np.zeros((R, n, n), dtype=bool)
        # Interface-state OUT buffer: [replicate, sender, bit].
        self.OUT_bits = np.zeros((R, n, n), dtype=bool)
        self._out_start = self.OUT_bits
        # IGNORE-mode reception masks (committed / pending within-round).
        self.IGN = np.zeros((R, n, n), dtype=bool)
        self.ign_pend = np.zeros((R, n, n), dtype=bool)
        # Transmission enables and within-round toggles.
        self.TX_EN = np.ones((R, n), dtype=bool)
        self.tx_off_pend = np.zeros((R, n), dtype=bool)
        self.tx_on_pend = np.zeros((R, n), dtype=bool)
        self.RCNT = (np.zeros((R, n, n), dtype=np.int64)
                     if self.reint_th is not None else None)
        # Python-side summaries of that state, so a steady round tests
        # flags instead of scanning arrays.
        self._pen_any = False     # some penalty counter is non-zero
        self._all_active = True   # nothing isolated (kept up to date
        #                           only when reintegration can fire)
        self._tx_all = True       # every node still transmits
        self._tx_off = self._tx_on = False  # toggles pending in TX_EN
        self._ign = self._ign_pend = False  # IGN / ign_pend hold a bit
        self.first_iso = np.full((R, n), np.inf)
        #: (replicate, observer, isolated, round, time, penalty) tuples.
        self.iso_records: List[Tuple[int, int, int, int, float, int]] = []
        # Rolling per-round buffers.
        self.OWN: Dict[int, np.ndarray] = {}
        self.COLL: Dict[int, np.ndarray] = {}
        self.HVD: Dict[int, np.ndarray] = {}
        self.HVD_nodes: Dict[int, np.ndarray] = {}
        # Previous round's reception state (round -1: nothing received).
        self.V_prev = np.zeros((R, n, n), dtype=bool)
        self.S_bits_prev = np.zeros((R, n, n), dtype=bool)
        self.S_synd_prev: Optional[np.ndarray] = np.zeros(n, dtype=bool)
        self.MAL_prev: Optional[np.ndarray] = None
        self.fid_prev: Optional[np.ndarray] = None

        # Scenario masks in the kernel's [receiver, sender] layout.
        low = lowered
        self._valid = (None if low.invalid is None
                       else ~low.invalid.transpose(0, 2, 1))
        self._mal = (None if low.mal is None
                     else low.mal.transpose(0, 2, 1))
        self._mal_rounds = ([] if low.mal is None
                            else low.mal.any(axis=(1, 2)).tolist())
        self._nohit = None if low.stoch_hit is None else ~low.stoch_hit
        self._all_valid = np.ones((R, n, n), dtype=bool)
        self._all_valid.flags.writeable = False
        self._all_nodes = np.ones(n, dtype=bool)
        self._all_nodes.flags.writeable = False
        # Vote matrices [W | off-diagonal | 1] over (sender, column):
        # W is +1 where the sender's syndrome calls the column's node
        # healthy, -1 where faulty, 0 on the diagonal (the accused's own
        # row never votes).  A (replicate, observer, sender) presence
        # mask times this matrix gives, per column, the vote margin,
        # the voter count, and the row's non-epsilon count.  float32
        # runs on BLAS, and sums of at most N small integers are exact.
        offd = (~np.eye(n, dtype=bool)).astype(np.float32)
        self._offd = offd
        self._two_offd = 2 * offd
        self._votes = np.empty((R, n, 2 * n + 1), dtype=np.float32)
        self._votes[..., n:2 * n] = offd
        self._votes[..., 2 * n] = 1
        self._forged_votes = self._votes[0].copy()

        # Metering: per-replicate counters, and the per-round arrays
        # awaiting their batched reduction.
        self.acc = {name: np.zeros(R, dtype=np.int64) for name in _METERED}
        self._pending: Dict[str, List[np.ndarray]] = {
            name: [] for name in _COUNTED + ("votes", "eps")}
        self._pending_bytes = 0
        #: diag.analysis_rounds — the same for every replicate.
        self._analysed = 0
        self.eps_bounds = np.asarray(_EPS_BOUNDS, dtype=np.int64)
        n_buckets = len(_EPS_BOUNDS) + 1
        self.eps_hist = np.zeros((R, n_buckets), dtype=np.int64)
        self._eps_rows = n_buckets * np.arange(R)[:, None]
        self._noise_cursor = [np.zeros(R, dtype=np.int64)
                              for _ in lowered.noise]
        self._rep_idx = np.arange(R)

    # ------------------------------------------------------------------
    def run(self) -> None:
        stage1, stage3 = self.stages
        for p in range(self.n_rounds):
            self._out_start = self.OUT_bits
            self._jobs(stage1, p, p, self.V_prev, self.S_bits_prev,
                       self.S_synd_prev, self.MAL_prev, self.fid_prev,
                       stage3=False)
            V, Sb, Ss, MAL, fid = self._slots(p)
            self._jobs(stage3, p + 1, p, V, Sb, Ss, MAL, fid, stage3=True)
            self.V_prev, self.S_bits_prev, self.S_synd_prev = V, Sb, Ss
            self.MAL_prev, self.fid_prev = MAL, fid
            self._prune(p)
            if self._pending_bytes > _METER_FLUSH_BYTES:
                self._flush()
        self._flush()

    def _prune(self, p: int) -> None:
        horizon = p - (self.pipe + 4)
        for store in (self.OWN, self.COLL):
            for key in [r for r in store if r < horizon]:
                del store[key]

    # ------------------------------------------------------------------
    # Stage 2: the N slots of physical round p
    # ------------------------------------------------------------------
    def _slots(self, p: int):
        R, n = self.R, self.n
        low = self.low
        # Sender side, [replicate, sender]: who transmits, and whose
        # frame no benign hit spoiled (None: every frame goes through).
        eff_tx: Optional[np.ndarray] = None
        if not self._tx_all or self._tx_off or self._tx_on:
            eff_tx = self.TX_EN.copy()
            if self._tx_off:
                eff_tx &= ~(self.tx_off_pend & self.scp)
            if self._tx_on:
                eff_tx |= self.tx_on_pend & self.scp
            self._meter("bus.slots_silent", ~eff_tx)
        ok = eff_tx
        if self._nohit is not None:
            ok = (self._nohit[:, p] if ok is None
                  else ok & self._nohit[:, p])
        if low.noise:
            tx = self.TX_EN if eff_tx is None else eff_tx
            hit = np.zeros((R, n), dtype=bool)
            for i, plan in enumerate(low.noise):
                cur = self._noise_cursor[i]
                # One draw per *queried* (non-silent) slot, in slot
                # order — the event engine's exact consumption pattern.
                for s0 in range(n):
                    q = tx[:, s0]
                    if not q.any():
                        continue
                    v = plan.draws[self._rep_idx, cur]
                    hit[:, s0] |= q & (v < plan.probability)
                    cur += q
            ok = ~hit if ok is None else ok & ~hit

        # Receptions [replicate, receiver, sender].
        if ok is None:
            V_pre = (self._all_valid if self._valid is None
                     else self._all_valid & self._valid[p])
        else:
            V_pre = ok[:, None, :] & (self._all_valid if self._valid is None
                                      else self._valid[p])
        if low.stoch_invalid is not None:
            # Per-replicate receiver-side invalidations (correlated
            # EMI), already in [replicate, receiver, sender] layout.
            V_pre = V_pre & ~low.stoch_invalid[:, p]
        # Local collision detector: the diagonal of the validity before
        # any IGNORE status masking (as the controller records it).  A
        # silent own slot yields no record, i.e. False.
        self.COLL[p] = V_pre

        V = V_pre
        if self.ignore_mode:
            if self._ign_pend:
                V = V_pre & ~(self.IGN | (self.ign_pend & self.after_job))
                self.IGN |= self.ign_pend
                self.ign_pend[:] = False
                self._ign, self._ign_pend = True, False
            elif self._ign:
                V = V_pre & ~self.IGN

        MAL: Optional[np.ndarray] = None
        fid: Optional[np.ndarray] = None
        if self._mal is not None and self._mal_rounds[p]:
            # V already excludes every slot a benign hit spoiled.
            MAL = self._mal[p] & V
            fid = low.fid[p]

        # Latched payloads: a job physically preceding its own slot
        # transmits this round's fresh interface write; everyone else's
        # slot carries the buffer as of the round start.
        if self.scp_all:
            Sb = self.OUT_bits
        elif not self.scp_any:
            Sb = self._out_start
        else:
            Sb = np.where(self.scp3, self.OUT_bits, self._out_start)
        Ss = self.ss0 if p == 0 else None

        if self._tx_off:
            self.TX_EN &= ~self.tx_off_pend
            self.tx_off_pend[:] = False
            self._tx_off = self._tx_all = False
        if self._tx_on:
            self.TX_EN |= self.tx_on_pend
            self.tx_on_pend[:] = False
            self._tx_on = False
        return V, Sb, Ss, MAL, fid

    # ------------------------------------------------------------------
    # Stages 1/3: one batch of diagnostic jobs at effective round k
    # ------------------------------------------------------------------
    def _jobs(self, st: _Stage, k: int, p: int, V_in, Sb_in, Ss_in,
              MAL_in, fid_in, stage3: bool) -> None:
        if not st.size:
            return
        al = V_in[:, st.sel, :]
        # Dissemination (send alignment, Alg. 1 lines 7-10).
        out = (al if st.align is None
               else np.where(st.align, self.PREV_AL[:, st.sel, :], al))
        if st.full:
            self.OUT_bits = out
        else:
            bits = self.OUT_bits.copy()
            bits[:, st.idx, :] = out
            self.OUT_bits = bits

        d = k - self.pipe
        if d >= self.startup:
            self._analyse(st, k, p, d, al, Sb_in, Ss_in, MAL_in, fid_in,
                          stage3)

        # Buffering for the next round (Alg. 1 lines 16-17).
        if st.full:
            self.PREV_AL = al
            self.OWN[k - 1] = al
        else:
            self.PREV_AL[:, st.idx, :] = al
            own = self.OWN.get(k - 1)
            if own is None:
                own = self.OWN[k - 1] = np.zeros((self.R, self.n, self.n),
                                                 dtype=bool)
            own[:, st.idx, :] = al

    def _vote_matrix(self, bits: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """``buf`` with its W block set from the syndrome ``bits``."""
        w = buf[..., :self.n]
        np.multiply(bits, self._two_offd, out=w)
        w -= self._offd
        return buf

    def _analyse(self, st: _Stage, k: int, p: int, d: int, al,
                 Sb, Ss, MAL_in, fid_in, stage3: bool) -> None:
        n, sel = self.n, st.sel
        act = self.ACTIVE[:, sel, :]
        # A row entry is non-ε iff the reception was valid, the sender
        # is not isolated, and the latched payload is a well-formed
        # syndrome.
        present = al & act
        if Ss is not None:
            present &= Ss
        mal = None
        if MAL_in is not None:
            mal = MAL_in[:, sel, :]
            if not mal.any():
                mal = None
        votes = self._vote_matrix(Sb, self._votes)
        if mal is None:
            res = np.matmul(present.astype(np.float32), votes)
        else:
            # A forged frame carries its own payload in place of the
            # sender's interface state; it counts only if that payload
            # is a well-formed syndrome.
            forged = act & mal & self.low.payload_valid[fid_in]
            res = np.matmul((present & ~mal).astype(np.float32), votes)
            res += np.matmul(forged.astype(np.float32), self._vote_matrix(
                self.low.payload_bits[fid_in], self._forged_votes))
        margin, voters, pc = res[..., :n], res[..., n:2 * n], res[..., 2 * n]

        # H-maj column vote: healthy unless strictly more voters say
        # faulty; no voter at all is the Lemma 3 fallback.
        bottom = voters == 0
        cons = margin >= 0
        if bottom.any():
            cons = np.where(bottom, self._fallback(st, d), cons)

        # Uniform fast path, content form: every entry present, none
        # forged, all senders' payloads identical.  Syndrome interning
        # makes this equivalent to the event engine's pointer-identity
        # check; the vote above already yields the shared syndrome on
        # such rows, so the shortcut only shows in the counters.
        uni = pc == n
        uni &= (Sb == Sb[:, :1, :]).all(axis=(1, 2))[:, None]
        if mal is not None:
            uni &= ~mal.any(axis=-1)

        self._analysed += st.size
        self._meter("diag.uniform_shortcut_rounds", uni)
        self._meter("votes", margin)
        self._meter("eps", pc)
        self._meter("vote.hmaj_bottom", bottom)
        st.pending.append(cons)
        self._pending_bytes += cons.nbytes

        # Trace-equivalent health-vector storage.
        if self.trace_level >= 1:
            if st.full:
                self.HVD[d] = cons
                self.HVD_nodes[d] = self._all_nodes
            else:
                arr = self.HVD.get(d)
                if arr is None:
                    arr = self.HVD[d] = np.zeros((self.R, n, n), dtype=bool)
                    self.HVD_nodes[d] = np.zeros(n, dtype=bool)
                arr[:, sel, :] = cons
                self.HVD_nodes[d][sel] = True

        if not self._pen_any and self._all_active and cons.all():
            return  # steady round: the p/r update would change nothing
        self._penalty_reward(st, k, p, cons, act, stage3)

    def _fallback(self, st: _Stage, d: int) -> np.ndarray:
        """Lemma 3 fallback rows for diagnosed round ``d``: the own
        buffered syndrome (optimistic 1 on cold start), and the local
        collision detector for oneself."""
        own_d = self.OWN.get(d)
        fb = (own_d[:, st.sel, :].copy() if own_d is not None
              else np.ones((self.R, st.size, self.n), dtype=bool))
        coll_d = self.COLL.get(d)
        fb[:, st.diag_i, st.idx] = (coll_d[:, st.idx, st.idx]
                                    if coll_d is not None else False)
        return fb

    def _penalty_reward(self, st: _Stage, k: int, p: int, cons, act,
                        stage3: bool) -> None:
        """Penalty/reward update, exact branch order of
        PenaltyRewardState.update."""
        sel, idx = st.sel, st.idx
        faulty = ~cons
        pen = self.PEN[:, sel, :] + (faulty if self.crit is None
                                     else faulty * self.crit)
        rew = self.REW[:, sel, :] * cons
        iso_v = faulty & (pen > self.P)
        hg = cons & (pen > 0)
        rew += hg
        forget = hg & (rew >= self.RT)
        self._meter("pr.isolation_verdicts", iso_v)
        self._meter("pr.reward_increments", hg)
        if forget.any():
            pen[forget] = 0
            rew[forget] = 0
            self._meter("pr.forget_resets", forget)

        newly = act & iso_v
        act_new = act
        if newly.any():
            act_new = act & ~iso_v
            self._meter("diag.isolations", newly)
            if self.ignore_mode:
                if stage3:
                    self.IGN[:, sel, :] |= newly
                    self._ign = True
                else:
                    self.ign_pend[:, sel, :] |= newly
                    self._ign_pend = True
            self_new = newly[:, st.diag_i, idx]
            if self.halt and self_new.any():
                if stage3:
                    self.TX_EN[:, sel] &= ~self_new
                    self._tx_all = False
                else:
                    self.tx_off_pend[:, sel] |= self_new
                    self._tx_off = True
            t = p * self.T + self.offset[idx]
            cand = np.where(newly, t[None, :, None], np.inf).min(axis=1)
            self.first_iso = np.minimum(self.first_iso, cand)
            for r, ii, j in zip(*np.nonzero(newly)):
                self.iso_records.append(
                    (int(r), int(idx[ii]) + 1, int(j) + 1, int(k),
                     float(t[ii]), int(pen[r, ii, j])))

        cnt = None
        if self.reint_th is not None:
            cnt = np.where(act_new, 0,
                           np.where(faulty, 0, self.RCNT[:, sel, :] + 1))
            reint = (~act_new) & (~faulty) & (cnt >= self.reint_th)
            if reint.any():
                cnt = np.where(reint, 0, cnt)
                act_new = act_new | reint
                pen = np.where(reint, 0, pen)
                rew = np.where(reint, 0, rew)
                self_r = reint[:, st.diag_i, idx]
                if stage3:
                    self.TX_EN[:, sel] |= self_r
                else:
                    self.tx_on_pend[:, sel] |= self_r
                    self._tx_on = True
                self._meter("diag.reintegrations", reint)

        if st.full:
            self.PEN, self.REW, self.ACTIVE = pen, rew, act_new
            if cnt is not None:
                self.RCNT = cnt
        else:
            self.PEN[:, sel, :] = pen
            self.REW[:, sel, :] = rew
            self.ACTIVE[:, sel, :] = act_new
            if cnt is not None:
                self.RCNT[:, sel, :] = cnt
        self._pen_any = bool(self.PEN.any())
        if self.reint_th is not None:
            self._all_active = bool(self.ACTIVE.all())

    # ------------------------------------------------------------------
    def _meter(self, name: str, array: np.ndarray) -> None:
        """Queue one per-round array for the counter reduction ``name``."""
        self._pending[name].append(array)
        self._pending_bytes += array.nbytes

    def _flush(self) -> None:
        """Reduce the pending per-round arrays into the counters.

        Every reduction is a count of set entries per replicate over the
        concatenation of a counter's pending arrays, so a flush costs a
        fixed number of numpy calls however many rounds it covers.
        """
        R, n, acc, pending = self.R, self.n, self.acc, self._pending

        def drain(name: str):
            arrays = pending[name]
            if not arrays:
                return 0
            pending[name] = []
            return np.count_nonzero(
                np.concatenate(arrays, axis=1).reshape(R, -1), axis=1)

        uniform = drain("diag.uniform_shortcut_rounds")
        acc["diag.uniform_shortcut_rounds"] += uniform
        # A uniform row's n columns all hold a strict majority of n-1
        # agreeing voters, but the event engine never votes on it.
        acc["vote.hmaj_majority"] += drain("votes") - n * uniform
        for name in _COUNTED:
            if name != "diag.uniform_shortcut_rounds":
                acc[name] += drain(name)

        if pending["eps"]:
            eps = n - np.concatenate(pending["eps"], axis=1)
            pending["eps"] = []
            bucket = np.searchsorted(self.eps_bounds, eps, side="left")
            self.eps_hist += np.bincount(
                (bucket + self._eps_rows).ravel(),
                minlength=self.eps_hist.size).reshape(self.eps_hist.shape)

        for st in self.stages:
            if not st.pending:
                continue
            seq = st.pending if st.last is None else [st.last] + st.pending
            hv = np.stack(seq)
            if len(seq) > 1:
                acc["diag.hv_transitions"] += np.count_nonzero(
                    (hv[1:] != hv[:-1]).any(axis=-1), axis=(0, 2))
            fresh = hv[len(seq) - len(st.pending):]
            acc["pr.penalty_increments"] += (
                fresh[0, 0].size * len(fresh)
                - np.count_nonzero(fresh, axis=(0, 2, 3)))
            st.last = st.pending[-1]
            st.pending = []
        self._pending_bytes = 0

    # ------------------------------------------------------------------
    def snapshot(self, rep: int) -> dict:
        """Metrics snapshot for one replicate, in registry format."""
        counters = {name: int(self.acc[name][rep]) for name in self.acc}
        analysed = self._analysed
        calls = self.n * (analysed
                          - counters["diag.uniform_shortcut_rounds"])
        counters["diag.analysis_rounds"] = analysed
        counters["vote.hmaj_calls"] = calls
        counters["vote.hmaj_default_healthy"] = (
            calls - counters["vote.hmaj_majority"]
            - counters["vote.hmaj_bottom"])
        counters["bus.slots_total"] = self.n * self.n_rounds
        counters["cluster.rounds_driven"] = self.n_rounds
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": {},
            "histograms": {
                "diag.matrix_epsilon_rows": {
                    "bounds": [int(b) for b in _EPS_BOUNDS],
                    "buckets": [int(v) for v in self.eps_hist[rep]],
                    "count": analysed,
                },
            },
        }


class VectorizedRun:
    """Per-replicate facade mirroring :class:`DiagnosedCluster` queries."""

    def __init__(self, batch: "VectorizedBatch", rep: int) -> None:
        self._batch = batch
        self._rep = rep

    @property
    def config(self):
        return self._batch.config

    @property
    def seed(self) -> int:
        return self._batch.seeds[self._rep]

    @property
    def rounds_completed(self) -> int:
        return self._batch.spec.n_rounds

    def obedient_node_ids(self) -> Tuple[int, ...]:
        """All nodes — the vectorized backend models no byzantine nodes."""
        return tuple(range(1, self._batch.compiled.n + 1))

    def health_vectors(self, node_id: int) -> Dict[int, Tuple[int, ...]]:
        """Diagnosed round -> consistent health vector (trace-filtered)."""
        k = self._batch._kernel
        out: Dict[int, Tuple[int, ...]] = {}
        if k.trace_level < 1:
            return out
        i = node_id - 1
        for d in sorted(k.HVD):
            if not k.HVD_nodes[d][i]:
                continue
            hv = k.HVD[d][self._rep, i]
            if k.trace_level >= 2 or not hv.all():
                out[d] = tuple(int(b) for b in hv)
        return out

    def consistent_health_history(self, obedient_only: bool = True) -> bool:
        """Theorem 1 consistency over the stored health vectors."""
        reference: Dict[int, Tuple[int, ...]] = {}
        for node_id in self.obedient_node_ids():
            for d_round, hv in self.health_vectors(node_id).items():
                if d_round in reference:
                    if reference[d_round] != hv:
                        return False
                else:
                    reference[d_round] = hv
        return True

    def isolation_records(self, isolated: Optional[int] = None) -> List[dict]:
        """Isolation decisions of this replicate, oldest first."""
        out = []
        for rec in self._batch._kernel.iso_records:
            r, observer, target, round_k, time, penalty = rec
            if r != self._rep:
                continue
            if isolated is not None and target != isolated:
                continue
            out.append({"node": observer, "isolated": target,
                        "round_index": round_k, "time": time,
                        "penalty": penalty})
        return out

    def first_isolation_time(self, isolated: int) -> Optional[float]:
        """Earliest time any node isolated ``isolated`` (None if never)."""
        t = self._batch._kernel.first_iso[self._rep, isolated - 1]
        return None if np.isinf(t) else float(t)

    def active_matrix(self) -> Dict[int, Tuple[int, ...]]:
        """Each node's final activity vector (1 = considered active)."""
        k = self._batch._kernel
        return {i + 1: tuple(int(b) for b in k.ACTIVE[self._rep, i])
                for i in range(k.n)}

    def agreed_active_vector(self) -> Tuple[int, ...]:
        """The one activity vector all nodes agree on (asserts agreement)."""
        vectors = set(self.active_matrix().values())
        if len(vectors) != 1:
            raise AssertionError(
                f"obedient nodes disagree on activity: {sorted(vectors)}")
        return next(iter(vectors))

    def pr_snapshot(self, node_id: int) -> Dict[str, List[int]]:
        """Observer ``node_id``'s penalty/reward counters."""
        k = self._batch._kernel
        i = node_id - 1
        return {"penalties": [int(v) for v in k.PEN[self._rep, i]],
                "rewards": [int(v) for v in k.REW[self._rep, i]]}

    def metrics_snapshot(self) -> dict:
        """This replicate's semantic metrics, in registry snapshot format."""
        return self._batch._kernel.snapshot(self._rep)


class VectorizedBatch:
    """One kernel execution over a batch of replicate seeds."""

    def __init__(self, spec: RunSpec, seeds: Sequence[int],
                 reintegration: bool = False) -> None:
        validate_spec(spec)
        if not seeds:
            raise ValueError("need at least one replicate seed")
        self.spec = spec
        self.seeds = [int(s) for s in seeds]
        self.config = spec.protocol.to_config()
        self.compiled = compile_schedule(spec)
        lowered = lower_injection(spec, self.compiled, spec.n_rounds,
                                  self.seeds)
        self._kernel = _Kernel(spec, self.compiled, lowered,
                               len(self.seeds), reintegration)
        self._kernel.run()

    def __len__(self) -> int:
        return len(self.seeds)

    def view(self, rep: int) -> VectorizedRun:
        """The facade of one replicate (by batch index)."""
        return VectorizedRun(self, rep)

    def views(self) -> List[VectorizedRun]:
        """One facade per replicate, in seed order."""
        return [self.view(i) for i in range(len(self.seeds))]


def run_batch(spec: RunSpec, seeds: Optional[Sequence[int]] = None,
              replicates: Optional[int] = None,
              reintegration: bool = False) -> VectorizedBatch:
    """Run one spec over a batch of replicate seeds, in lockstep.

    ``seeds`` gives the replicates explicitly; ``replicates=K`` derives
    ``spec.cluster.seed + 0..K-1``.  With neither, the batch is the
    single replicate the spec itself describes.
    """
    if seeds is not None and replicates is not None:
        raise ValueError("pass seeds or replicates, not both")
    if seeds is None:
        count = 1 if replicates is None else int(replicates)
        seeds = [spec.cluster.seed + i for i in range(count)]
    return VectorizedBatch(spec, seeds, reintegration=reintegration)


def _replicate_spec(spec: RunSpec, seed: int) -> RunSpec:
    return spec.with_updates(cluster=replace(spec.cluster, seed=seed))


def _check_reducer(resolved: Any) -> None:
    if not getattr(resolved, "vectorized", False):
        raise UnsupportedSpecError(
            f"reducer {getattr(resolved, 'name', resolved)!r} reads the "
            "event-engine cluster (it does not declare vectorized = True); "
            "run it with backend='event'")


def execute_vectorized(spec: RunSpec, reducer: Any = None,
                       metrics: Optional[Any] = None) -> Any:
    """Vectorized equivalent of :func:`repro.spec.build.execute`.

    Runs the spec as a one-replicate batch and reduces the replicate
    view.  With a metrics registry, the kernel's per-replicate snapshot
    is replayed into it (plus the provenance counter), so downstream
    snapshot consumers see the registry format they expect.
    """
    from ..spec.reducers import resolve_reducer

    resolved = resolve_reducer(reducer if reducer is not None
                               else spec.reducer)
    _check_reducer(resolved)
    batch = run_batch(spec)
    view = batch.view(0)
    if metrics is not None and metrics.enabled:
        replay_snapshot(view.metrics_snapshot(), metrics)
        metrics.counter(_PROVENANCE_PREFIX + spec.digest()).inc()
    return resolved.reduce(view, spec, None)


def execute_batch(spec: RunSpec, seeds: Sequence[int]) -> List[List[Any]]:
    """Run + reduce a whole replicate batch in one kernel execution.

    Returns one ``[result, snapshot]`` pair per seed, each exactly what
    ``run_spec_dict(replicate_spec.to_dict(), collect_metrics=True)``
    produces for the seed-shifted spec, provenance counter included.
    This is the batched dispatch path of the campaign engine: one cache
    miss per replicate, one kernel execution for all of them.
    """
    from ..spec.reducers import resolve_reducer

    resolved = resolve_reducer(spec.reducer)
    _check_reducer(resolved)
    batch = run_batch(spec, seeds=seeds)
    results: List[List[Any]] = []
    for i, seed in enumerate(batch.seeds):
        spec_r = _replicate_spec(spec, seed)
        view = batch.view(i)
        result = resolved.reduce(view, spec_r, None)
        snap = view.metrics_snapshot()
        counters = dict(snap["counters"])
        counters[_PROVENANCE_PREFIX + spec_r.digest()] = 1
        results.append([result, {
            "counters": dict(sorted(counters.items())),
            "gauges": snap["gauges"],
            "histograms": snap["histograms"],
        }])
    return results


def replay_snapshot(snapshot: dict, registry: Any) -> None:
    """Replay a kernel snapshot into a live MetricsRegistry.

    Counters are incremented by value; histogram buckets are refilled
    through representative observations (each bucket's smallest member
    under the registry's bisect_left bucketing), reconstructing the
    exact snapshot the kernel produced.
    """
    for name, value in snapshot.get("counters", {}).items():
        registry.counter(name).inc(int(value))
    for name, h in snapshot.get("histograms", {}).items():
        bounds = list(h["bounds"])
        hist = registry.histogram(name, tuple(bounds))
        for b, count in enumerate(h["buckets"]):
            if not count:
                continue
            if b == 0:
                value = bounds[0]
            elif b == len(bounds):
                value = bounds[-1] + 1
            else:
                value = bounds[b]
            for _ in range(count):
                hist.observe(value)


__all__ = [
    "VectorizedBatch",
    "VectorizedRun",
    "execute_batch",
    "execute_vectorized",
    "replay_snapshot",
    "run_batch",
    "validate_spec",
]
