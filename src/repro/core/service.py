"""Middleware facade: a cluster with the diagnostic protocol installed.

:class:`DiagnosedCluster` assembles the full stack the paper's
prototype runs — a TDMA cluster (:class:`~repro.tt.cluster.Cluster`)
with one diagnostic (or membership, or low-latency) service per node —
and exposes the cross-node views that experiments and applications
need: per-node activity vectors, consistency checks, isolation/view
queries against the shared trace.

This is the main entry point of the library::

    from repro import DiagnosedCluster, uniform_config
    from repro.faults import SlotBurst

    dc = DiagnosedCluster(uniform_config(n_nodes=4, penalty_threshold=3))
    dc.cluster.add_scenario(SlotBurst(dc.cluster.timebase,
                                      round_index=5, slot=2, n_slots=1))
    dc.run_rounds(12)
    assert dc.consistent_health_history()  # all nodes agreed
    dc.close()

Each facade is also a context manager that closes its run on exit
(``with DiagnosedCluster(config) as dc: ...``).  :meth:`close` ends the
run (:meth:`~repro.tt.cluster.Cluster.close`): the trace and the
services stay readable, and reference counting frees the run as soon
as the facade is dropped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..sim.trace import TraceRecord
from ..tt.cluster import PAPER_ROUND_LENGTH, Cluster
from .bitmatrix import AnalysisCache
from .config import ProtocolConfig
from .diagnostic import TRACE_ALL, DiagnosticService
from .lowlatency import LowLatencyDiagnosticService
from .membership import MembershipService
from .reintegration import ReintegrationPolicy, attach_reintegration


class _ClusterRun:
    """What every facade does with the run it owns: end it."""

    cluster: Cluster

    def close(self) -> None:
        """End the run; ``run_rounds`` raises afterwards.  Idempotent."""
        self.cluster.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DiagnosedCluster(_ClusterRun):
    """A simulated TT cluster running the add-on diagnostic protocol.

    Every service analyses on the packed bitmask plane, with one
    :class:`~repro.core.bitmatrix.AnalysisCache` shared cluster-wide.

    Parameters
    ----------
    config:
        Protocol configuration; its ``n_nodes`` sets the cluster size.
    round_length, tx_fraction, seed, n_channels:
        Forwarded to :class:`~repro.tt.cluster.Cluster`.
    service_cls:
        :class:`DiagnosticService` (default) or
        :class:`MembershipService`.
    byzantine_nodes:
        IDs of nodes that broadcast random syndromes (Sec. 8's malicious
        validation case).
    exec_after:
        Static schedule position for all diagnostic jobs (see
        :func:`~repro.tt.schedule.offset_for_exec_after`), or a per-node
        sequence, or ``None`` for the library default (job at round
        start, ``l_i = 0``).
    dynamic_schedules:
        If true, every node uses a per-round random schedule (Sec. 10).
    trace_level:
        Trace verbosity, forwarded both to the services and to the
        cluster-owned :class:`~repro.sim.trace.Trace` (so level 0 also
        suppresses per-slot bus records).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` shared by the whole
        stack (engine, bus, every per-node service); query it via
        :meth:`metrics_snapshot`.  Works at any ``trace_level``,
        including 0.
    """

    def __init__(self, config: ProtocolConfig,
                 round_length: float = PAPER_ROUND_LENGTH,
                 tx_fraction: float = 0.8,
                 seed: int = 0,
                 n_channels: int = 1,
                 service_cls: Type[DiagnosticService] = DiagnosticService,
                 byzantine_nodes: Sequence[int] = (),
                 exec_after=None,
                 dynamic_schedules: bool = False,
                 trace_level: int = TRACE_ALL,
                 metrics=None) -> None:
        self.config = config
        self.metrics = metrics
        self.cluster = Cluster(config.n_nodes, round_length=round_length,
                               tx_fraction=tx_fraction, seed=seed,
                               n_channels=n_channels,
                               trace_level=trace_level, metrics=metrics)
        self.trace = self.cluster.trace

        # Schedules first (they fix l_i / send_curr_round_i and hence
        # whether config.all_send_curr_round is achievable).
        if dynamic_schedules:
            for node_id in range(1, config.n_nodes + 1):
                self.cluster.set_dynamic_schedule(node_id)
        elif exec_after is not None:
            positions = ([exec_after] * config.n_nodes
                         if isinstance(exec_after, int) else list(exec_after))
            if len(positions) != config.n_nodes:
                raise ValueError("exec_after must be an int or one entry per node")
            for node_id, pos in enumerate(positions, start=1):
                self.cluster.set_static_schedule(node_id, exec_after=pos)

        if config.all_send_curr_round and not self.cluster.schedule.all_send_curr_round():
            raise ValueError(
                "config.all_send_curr_round is set but the node schedules "
                "do not satisfy the global predicate (use exec_after="
                f"{config.n_nodes} on every node)")

        self.services: Dict[int, DiagnosticService] = {}
        byzantine = frozenset(byzantine_nodes)
        # One analysis memo for the whole cluster: Sec. 5 consistency
        # means the N per-node analyses of one round mostly see the
        # same matrix, so the first node computes and the rest reuse.
        analysis_cache = AnalysisCache(metrics)
        for node_id in range(1, config.n_nodes + 1):
            rng = (self.cluster.streams.stream(f"byzantine-{node_id}")
                   if node_id in byzantine else None)
            service = service_cls(config, self.cluster.node(node_id),
                                  self.trace, byzantine_rng=rng,
                                  trace_level=trace_level, metrics=metrics,
                                  analysis_cache=analysis_cache)
            self.cluster.install_job(node_id, service)
            self.services[node_id] = service

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_rounds(self, n_rounds: int) -> None:
        """Advance the simulation by ``n_rounds`` complete rounds."""
        self.cluster.run_rounds(n_rounds)

    def run_until(self, time: float) -> None:
        """Advance the simulation to absolute ``time`` (seconds)."""
        self.cluster.run_until(time)

    def metrics_snapshot(self) -> dict:
        """The deterministic metrics snapshot of this run.

        Empty (but well-formed) when the cluster was built without a
        metrics registry.
        """
        if self.metrics is None:
            from ..obs.registry import empty_snapshot
            return empty_snapshot()
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Cross-node queries
    # ------------------------------------------------------------------
    def service(self, node_id: int) -> DiagnosticService:
        """The diagnostic service installed on one node."""
        return self.services[node_id]

    def obedient_node_ids(self) -> Tuple[int, ...]:
        """Nodes whose ground truth marks them obedient."""
        return tuple(i for i, node in sorted(self.cluster.nodes.items())
                     if node.ground_truth.obedient)

    def health_vectors(self, node_id: int) -> Dict[int, Tuple[int, ...]]:
        """Diagnosed round -> consistent health vector, from the trace."""
        return self._health_vectors_of((node_id,))[node_id]

    def _health_vectors_of(self, nodes: Sequence[int]
                           ) -> Dict[int, Dict[int, Tuple[int, ...]]]:
        """:meth:`health_vectors` of several nodes, in one trace pass."""
        vectors: Dict[int, Dict[int, Tuple[int, ...]]] = {
            node_id: {} for node_id in nodes}
        for rec in self.trace:
            if rec.category == "cons_hv":
                per_node = vectors.get(rec.node)
                if per_node is not None:
                    data = rec.data
                    per_node[data["diagnosed_round"]] = tuple(data["cons_hv"])
        return vectors

    def consistent_health_history(self, obedient_only: bool = True) -> bool:
        """Whether all (obedient) nodes produced identical health vectors.

        The consistency property of Theorem 1, checked over the entire
        trace: for every diagnosed round, every node that computed a
        health vector computed the same one.
        """
        nodes = (self.obedient_node_ids() if obedient_only
                 else tuple(self.services))
        reference: Dict[int, Tuple[int, ...]] = {}
        for per_node in self._health_vectors_of(nodes).values():
            for d_round, hv in per_node.items():
                if d_round in reference:
                    if reference[d_round] != hv:
                        return False
                else:
                    reference[d_round] = hv
        return True

    def isolation_records(self, isolated: Optional[int] = None) -> List[TraceRecord]:
        """All isolation decisions, optionally filtered by target node."""
        records = self.trace.select(category="isolation")
        if isolated is not None:
            records = [r for r in records if r.data["isolated"] == isolated]
        return records

    def first_isolation_time(self, isolated: int) -> Optional[float]:
        """Earliest time any node isolated ``isolated`` (None if never)."""
        records = self.isolation_records(isolated)
        return min((r.time for r in records), default=None)

    def active_matrix(self) -> Dict[int, Tuple[int, ...]]:
        """Each node's current activity vector (observer -> vector)."""
        return {i: tuple(s.active) for i, s in self.services.items()}

    def agreed_active_vector(self) -> Tuple[int, ...]:
        """The activity vector, asserting all obedient nodes agree."""
        vectors = {tuple(self.services[i].active)
                   for i in self.obedient_node_ids()}
        if len(vectors) != 1:
            raise AssertionError(
                f"obedient nodes disagree on activity: {sorted(vectors)}")
        return next(iter(vectors))


class MembershipCluster(DiagnosedCluster):
    """A cluster running the membership variant on every node."""

    def __init__(self, config: ProtocolConfig, **kwargs) -> None:
        kwargs.setdefault("service_cls", MembershipService)
        super().__init__(config, **kwargs)

    def views(self, node_id: int):
        """The node's view history ``[(round, frozenset), ...]``."""
        return list(self.services[node_id].view_history)

    def agreed_view(self) -> frozenset:
        """Current view, asserting all obedient in-view nodes agree."""
        views = {self.services[i].view for i in self.obedient_node_ids()
                 if i in self.services[i].view}
        if len(views) != 1:
            raise AssertionError(f"view disagreement: {sorted(map(sorted, views))}")
        return next(iter(views))


class LowLatencyCluster(_ClusterRun):
    """A cluster running the system-level low-latency variant (Sec. 10)."""

    def __init__(self, config: ProtocolConfig,
                 round_length: float = PAPER_ROUND_LENGTH,
                 tx_fraction: float = 0.8, seed: int = 0,
                 n_channels: int = 1, membership: bool = False,
                 trace_level: int = TRACE_ALL,
                 metrics=None) -> None:
        self.config = config
        self.metrics = metrics
        self.cluster = Cluster(config.n_nodes, round_length=round_length,
                               tx_fraction=tx_fraction, seed=seed,
                               n_channels=n_channels,
                               trace_level=trace_level, metrics=metrics)
        self.trace = self.cluster.trace
        self.services: Dict[int, LowLatencyDiagnosticService] = {}
        for node_id in range(1, config.n_nodes + 1):
            self.services[node_id] = LowLatencyDiagnosticService(
                config, self.cluster.node(node_id), self.trace,
                membership=membership, trace_level=trace_level,
                metrics=metrics)

    def run_rounds(self, n_rounds: int) -> None:
        """Advance the simulation by ``n_rounds`` complete rounds."""
        self.cluster.run_rounds(n_rounds)

    def metrics_snapshot(self) -> dict:
        """The deterministic metrics snapshot of this run."""
        if self.metrics is None:
            from ..obs.registry import empty_snapshot
            return empty_snapshot()
        return self.metrics.snapshot()

    def service(self, node_id: int) -> LowLatencyDiagnosticService:
        """The low-latency service installed on one node."""
        return self.services[node_id]

    def consistent_verdicts(self) -> bool:
        """Whether all nodes agree on every retained per-slot verdict."""
        reference: Dict[Tuple[int, int], int] = {}
        for service in self.services.values():
            for key, verdict in service.verdicts.items():
                if key in reference and reference[key] != verdict:
                    return False
                reference.setdefault(key, verdict)
        return True


def attach_reintegration_everywhere(dc: DiagnosedCluster) -> Dict[int, ReintegrationPolicy]:
    """Attach the Sec. 9 reintegration policy to every node's service."""
    return {node_id: attach_reintegration(service)
            for node_id, service in dc.services.items()}


__all__ = [
    "DiagnosedCluster",
    "MembershipCluster",
    "LowLatencyCluster",
    "attach_reintegration_everywhere",
]
