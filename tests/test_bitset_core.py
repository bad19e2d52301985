"""Unit tests for the bitset diagnostic core (repro.core.bitmatrix).

The contract under test: :class:`BitDiagnosticMatrix` is observably
indistinguishable from :class:`DiagnosticMatrix` (same accessors, same
analysis decisions, same renderings), and :class:`AnalysisCache`
memoises per distinct matrix per diagnosed round without changing a
single decision.  The cluster-level byte-identity of the two data
planes is pinned separately by the differential fuzz in
``test_fastpath_equivalence.py``.
"""

import random

import pytest

from repro.core.bitmatrix import (
    AnalysisCache,
    BitDiagnosticMatrix,
    pack_syndrome,
    pack_syndrome_cached,
    unpack_syndrome,
)
from repro.core.syndrome import EPSILON, DiagnosticMatrix
from repro.core.voting import BOTTOM, h_maj_explain
from repro.obs import MetricsRegistry


def random_rows(rng, n, eps_p=0.25):
    """A random row set mixing syndromes and ε."""
    rows = []
    for _ in range(n):
        if rng.random() < eps_p:
            rows.append(EPSILON)
        else:
            rows.append(tuple(rng.randrange(2) for _ in range(n)))
    return rows


class TestPacking:
    def test_roundtrip(self):
        rng = random.Random(0)
        for n in (1, 4, 7, 16, 64):
            for _ in range(20):
                syndrome = tuple(rng.randrange(2) for _ in range(n))
                assert unpack_syndrome(pack_syndrome(syndrome), n) == syndrome

    def test_bit_convention(self):
        # Bit j-1 is the opinion about node j.
        assert pack_syndrome((1, 0, 0)) == 0b001
        assert pack_syndrome((0, 0, 1)) == 0b100

    def test_cached_matches_uncached(self):
        s = (1, 0, 1, 1)
        assert pack_syndrome_cached(s) == pack_syndrome(s)
        assert pack_syndrome_cached(s) == pack_syndrome_cached(tuple(s))


class TestApiParity:
    @pytest.mark.parametrize("seed", range(10))
    def test_accessors_match_tuple_matrix(self, seed):
        rng = random.Random(seed)
        n = rng.choice((3, 4, 8, 16))
        rows = random_rows(rng, n)
        ref = DiagnosticMatrix.from_rows(rows)
        bit = BitDiagnosticMatrix.from_rows(rows)
        assert bit.epsilon_rows() == ref.epsilon_rows()
        assert bit.render() == ref.render()
        for j in range(1, n + 1):
            assert bit.row(j) == ref.row(j)
            assert bit.column(j) == ref.column(j)
        hv = [rng.randrange(2) for _ in range(n)]
        assert bit.disagree_mask(hv) == ref.disagree_mask(hv)

    def test_uniform_constructor_parity(self):
        row = (1, 0, 1, 1)
        ref = DiagnosticMatrix.uniform(4, row)
        bit = BitDiagnosticMatrix.uniform(4, row)
        assert bit.uniform_row() == ref.uniform_row() == row
        assert [bit.row(j) for j in range(1, 5)] == \
               [ref.row(j) for j in range(1, 5)]

    def test_set_row_clears_uniform_marker(self):
        bit = BitDiagnosticMatrix.uniform(4, (1, 1, 1, 1))
        bit.set_row(2, EPSILON)
        assert bit.uniform_row() is None
        assert bit.row(2) is EPSILON

    def test_validation_parity(self):
        bit = BitDiagnosticMatrix(4)
        with pytest.raises(ValueError):
            bit.set_row(1, (1, 0))          # wrong length
        with pytest.raises(ValueError):
            bit.set_row(1, (1, 0, 2, 0))    # non-binary
        with pytest.raises(ValueError):
            bit.set_row(5, (1, 0, 1, 0))    # bad node id
        with pytest.raises(ValueError):
            bit.column(0)

    def test_epsilon_key_is_canonical(self):
        # Installing then erasing a row restores the exact key, so the
        # analysis memo cannot be split by dead row bits.
        a = BitDiagnosticMatrix(4)
        b = BitDiagnosticMatrix(4)
        b.set_row(2, (1, 1, 1, 1))
        b.set_row(2, EPSILON)
        assert a.key() == b.key()


class TestConverters:
    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_is_lossless(self, seed):
        rng = random.Random(seed)
        n = rng.choice((4, 8, 16))
        ref = DiagnosticMatrix.from_rows(random_rows(rng, n))
        bit = BitDiagnosticMatrix.from_tuple_matrix(ref)
        back = bit.to_tuple_matrix()
        for j in range(1, n + 1):
            assert back.row(j) == ref.row(j)
        assert BitDiagnosticMatrix.from_tuple_matrix(back).key() == bit.key()

    def test_uniform_marker_survives_conversion(self):
        ref = DiagnosticMatrix.uniform(4, (1, 1, 0, 1))
        bit = BitDiagnosticMatrix.from_tuple_matrix(ref)
        assert bit.uniform_row() == (1, 1, 0, 1)
        assert bit.to_tuple_matrix().uniform_row() == (1, 1, 0, 1)


class TestAnalyse:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_column_h_maj(self, seed):
        rng = random.Random(100 + seed)
        n = rng.choice((3, 4, 8, 16))
        rows = random_rows(rng, n, eps_p=rng.choice((0.0, 0.3, 1.0)))
        bit = BitDiagnosticMatrix.from_rows(rows)
        decisions, reasons, n_bottom, n_majority, n_default = bit.analyse()
        expected = [h_maj_explain(bit.column(j)) for j in range(1, n + 1)]
        assert list(decisions) == [d for d, _r in expected]
        assert list(reasons) == [r for _d, r in expected]
        assert n_bottom == sum(1 for _d, r in expected if r == "bottom")
        assert n_majority == sum(1 for _d, r in expected if r == "majority")
        assert n_default == sum(1 for _d, r in expected if r == "default")

    def test_all_epsilon_is_all_bottom(self):
        decisions, reasons, n_bottom, _m, _d = BitDiagnosticMatrix(4).analyse()
        assert set(decisions) == {BOTTOM}
        assert set(reasons) == {"bottom"}
        assert n_bottom == 4


class TestAnalysisCache:
    def test_hit_after_store_within_round(self):
        registry = MetricsRegistry()
        cache = AnalysisCache(registry)
        matrix = BitDiagnosticMatrix.uniform(4, (1, 1, 1, 1))
        key = matrix.key()
        assert cache.lookup(5, key) is None
        entry = matrix.analyse()
        cache.store(key, entry)
        assert cache.lookup(5, key) is entry
        counters = registry.snapshot()["counters"]
        assert counters["vote.cache_miss"] == 1
        assert counters["vote.cache_hit"] == 1

    def test_round_rollover_clears(self):
        cache = AnalysisCache()
        matrix = BitDiagnosticMatrix.uniform(4, (1, 1, 1, 1))
        key = matrix.key()
        cache.lookup(5, key)
        cache.store(key, matrix.analyse())
        assert cache.lookup(5, key) is not None
        assert cache.lookup(6, key) is None  # new round, cold cache

    def test_distinct_matrices_miss(self):
        cache = AnalysisCache()
        a = BitDiagnosticMatrix.uniform(4, (1, 1, 1, 1))
        b = BitDiagnosticMatrix.uniform(4, (1, 0, 1, 1))
        cache.lookup(1, a.key())
        cache.store(a.key(), a.analyse())
        assert cache.lookup(1, b.key()) is None
        assert cache.lookup(1, a.key()) is not None

    def test_null_registry_default(self):
        # No metrics attached: still functions, just uncounted.
        cache = AnalysisCache()
        matrix = BitDiagnosticMatrix(3)
        assert cache.lookup(0, matrix.key()) is None


class TestEscapeHatch:
    """The packed plane is the services' only analysis plane."""

    def test_bitset_default_uses_bit_matrices(self):
        from repro import DiagnosedCluster, uniform_config

        dc = DiagnosedCluster(uniform_config(4, penalty_threshold=3,
                                             reward_threshold=50),
                              seed=0)
        dc.run_rounds(8)
        assert dc.consistent_health_history()
        assert isinstance(dc.service(1)._last_matrix, BitDiagnosticMatrix)
        # All services share one cluster-wide cache.
        caches = {id(s._analysis_cache) for s in dc.services.values()}
        assert len(caches) == 1

    def test_shared_cache_hits_across_nodes(self):
        from repro import DiagnosedCluster, uniform_config

        registry = MetricsRegistry()
        dc = DiagnosedCluster(uniform_config(4, penalty_threshold=3,
                                             reward_threshold=50),
                              seed=0, metrics=registry)
        from repro.faults import SlotBurst
        dc.cluster.add_scenario(SlotBurst(dc.cluster.timebase, 5, 2, 1))
        dc.run_rounds(12)
        counters = registry.snapshot()["counters"]
        # Fault rounds defeat the uniform shortcut, and then N-1 nodes
        # reuse the first node's analysis.
        assert counters["vote.cache_hit"] > 0
        assert counters["vote.cache_hit"] > counters["vote.cache_miss"]
