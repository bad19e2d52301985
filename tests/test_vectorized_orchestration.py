"""Vectorized backend through the orchestration layers.

Three contracts beyond kernel-level equivalence (which
``test_backend_equivalence_fuzz.py`` pins):

* **Cross-backend store dedupe** — ``backend`` names an execution
  strategy, not physics, so it stays out of the content address: a
  result store warmed by an event-backend campaign satisfies the same
  physics requested as ``backend="vectorized"`` with 100% hits, and
  vice versa.
* **Replicate batching** — seed-shifted vectorized specs that miss the
  cache dispatch as ONE kernel batch per group (``campaign.batches``)
  while producing exactly the per-task event-backend results.
* **Clean degradation** — requesting the vectorized backend where
  numpy is missing exits the CLI with status 2 and an actionable
  message, before any dispatch.
"""

import json
from dataclasses import replace

import pytest

import repro.vec
from repro.campaign import monte_carlo_specs, run_campaign
from repro.cli import main
from repro.obs import MetricsRegistry
from repro.spec import ClusterSpec, ProtocolSpec, RunSpec, ScenarioSpec
from repro.store import ResultStore
from repro.vec import NUMPY_AVAILABLE

needs_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE,
                                 reason="numpy not installed")


def _spec(seed=0, backend="event"):
    return RunSpec(
        protocol=ProtocolSpec(n_nodes=4, penalty_threshold=2,
                              reward_threshold=50,
                              criticalities=(1, 1, 1, 1)),
        cluster=ClusterSpec(seed=seed),
        scenarios=(ScenarioSpec("SenderFault",
                                {"sender": 2, "kind": "benign",
                                 "rounds": [2, 3]}),),
        n_rounds=8,
        backend=backend,
    )


def _labeled(specs):
    return [(f"replicate-{i}", s) for i, s in enumerate(specs)]


def _sweep(spec, replicates, store=None):
    """Seed-shifted replicates of ``spec`` through the engine."""
    result = run_campaign(_labeled(monte_carlo_specs(spec, replicates)),
                          store=store)
    result.raise_first_error()
    return result.results


def test_backend_stays_out_of_content_address():
    event, vec = _spec(), _spec(backend="vectorized")
    assert event.digest() == vec.digest()
    assert event.full_digest() == vec.full_digest()
    # ...but round-trips through serialization all the same.
    assert RunSpec.from_dict(vec.to_dict()).backend == "vectorized"
    assert "backend" not in event.to_dict()


@needs_numpy
class TestCrossBackendDedupe:
    def test_event_warmed_store_serves_vectorized_requests(self, tmp_path):
        event_specs = _labeled(monte_carlo_specs(_spec(), 3))
        vec_specs = _labeled(monte_carlo_specs(_spec(backend="vectorized"),
                                               3))
        with ResultStore(str(tmp_path / "store")) as store:
            cold = run_campaign(event_specs, store=store)
            warm = run_campaign(vec_specs, store=store)
        assert (cold.hits, cold.misses) == (0, 3)
        assert (warm.hits, warm.misses) == (3, 0)
        assert warm.results == cold.results

    def test_vectorized_warmed_store_serves_event_requests(self, tmp_path):
        vec_specs = _labeled(monte_carlo_specs(_spec(backend="vectorized"),
                                               3))
        event_specs = _labeled(monte_carlo_specs(_spec(), 3))
        with ResultStore(str(tmp_path / "store")) as store:
            cold = run_campaign(vec_specs, store=store)
            warm = run_campaign(event_specs, store=store)
        assert (cold.hits, cold.misses) == (0, 3)
        assert (warm.hits, warm.misses) == (3, 0)
        assert warm.results == cold.results


@needs_numpy
class TestReplicateBatching:
    def test_replicate_group_dispatches_as_one_batch(self):
        metrics = MetricsRegistry()
        specs = _labeled(monte_carlo_specs(_spec(backend="vectorized"), 4))
        result = run_campaign(specs, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.batches"] == 1
        assert counters["campaign.dispatched"] == 4
        reference = run_campaign(_labeled(monte_carlo_specs(_spec(), 4)))
        assert result.results == reference.results

    def test_event_specs_never_batch(self):
        metrics = MetricsRegistry()
        run_campaign(_labeled(monte_carlo_specs(_spec(), 3)),
                     metrics=metrics)
        assert "campaign.batches" not in metrics.snapshot()["counters"]

    def test_mixed_physics_groups_independently(self):
        # Two distinct physics x 2 replicates: two batches, no
        # cross-contamination of results.
        metrics = MetricsRegistry()
        base = _spec(backend="vectorized")
        other = replace(base, n_rounds=12)
        specs = (_labeled(monte_carlo_specs(base, 2))
                 + [(f"alt-{i}", s)
                    for i, s in enumerate(monte_carlo_specs(other, 2))])
        result = run_campaign(specs, metrics=metrics)
        assert metrics.snapshot()["counters"]["campaign.batches"] == 2
        rounds = [r["rounds"] for r in result.results]
        assert rounds == [8, 8, 12, 12]

    def test_store_bytes_identical_across_dispatch_paths(self, tmp_path):
        # A batched replicate group fills the store with entries a
        # later per-task run replays verbatim (100% hits, equal
        # results) — the batch writes exactly what singles would.
        specs = _labeled(monte_carlo_specs(_spec(backend="vectorized"), 3))
        with ResultStore(str(tmp_path / "store")) as store:
            cold = run_campaign(specs, store=store)
            warm = run_campaign(specs, store=store)
        assert (cold.hits, cold.misses) == (0, 3)
        assert (warm.hits, warm.misses) == (3, 0)
        assert warm.results == cold.results
        assert warm.merged_snapshot() == cold.merged_snapshot()


@needs_numpy
class TestMonteCarloSweep:
    def test_seed_shifted_replicates(self):
        specs = monte_carlo_specs(_spec(seed=7), 3)
        assert [s.cluster.seed for s in specs] == [7, 8, 9]

    def test_backends_agree_through_the_sweep(self):
        vec = _sweep(_spec(backend="vectorized"), 4)
        event = _sweep(_spec(), 4)
        assert vec == event
        assert len(vec) == 4

    def test_sweep_replays_from_store(self, tmp_path):
        spec = _spec(backend="vectorized")
        with ResultStore(str(tmp_path / "store")) as store:
            first = _sweep(spec, 3, store=store)
            second = _sweep(spec, 3, store=store)
        assert first == second


class TestBackendUnavailable:
    def _break_numpy(self, monkeypatch):
        monkeypatch.setattr(repro.vec, "_NUMPY_ERROR",
                            ImportError("No module named 'numpy'"))

    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spec().to_dict()))
        return str(path)

    def test_require_numpy_raises_actionable_error(self, monkeypatch):
        self._break_numpy(monkeypatch)
        with pytest.raises(repro.vec.BackendUnavailableError,
                           match="requires numpy"):
            repro.vec.require_numpy()

    def test_run_cli_exits_2_with_message(self, monkeypatch, tmp_path,
                                          capsys):
        self._break_numpy(monkeypatch)
        path = self._spec_file(tmp_path)
        assert main(["run", path, "--backend", "vectorized"]) == 2
        err = capsys.readouterr().err
        assert "requires numpy" in err and "backend='event'" in err

    def test_campaign_cli_exits_2_with_message(self, monkeypatch, tmp_path,
                                               capsys):
        self._break_numpy(monkeypatch)
        path = self._spec_file(tmp_path)
        assert main(["campaign", "run", path, "--no-store",
                     "--backend", "vectorized"]) == 2
        assert "requires numpy" in capsys.readouterr().err

    def test_event_backend_unaffected(self, monkeypatch, tmp_path, capsys):
        self._break_numpy(monkeypatch)
        path = self._spec_file(tmp_path)
        assert main(["run", path, "--backend", "event"]) == 0


@needs_numpy
def test_run_cli_backends_print_identical_results(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps([_spec(seed=s).to_dict() for s in (0, 1)]))
    assert main(["run", str(path), "--backend", "event"]) == 0
    event_out = capsys.readouterr().out
    assert main(["run", str(path), "--backend", "vectorized"]) == 0
    assert capsys.readouterr().out == event_out


@needs_numpy
def test_run_cli_batches_vectorized_replicates(tmp_path, capsys,
                                               monkeypatch):
    # `run` dispatches through the campaign engine, so a replicate
    # list costs one kernel batch, not one task per spec.
    import repro.campaign.engine as engine

    calls = []
    batch = engine.execute_batch_task

    def counting(spec_dict, seeds, timeout=None):
        calls.append(list(seeds))
        return batch(spec_dict, seeds, timeout=timeout)

    monkeypatch.setattr(engine, "execute_batch_task", counting)
    path = tmp_path / "replicates.json"
    path.write_text(json.dumps([s.to_dict()
                                for s in monte_carlo_specs(_spec(), 4)]))
    assert main(["run", str(path), "--backend", "vectorized"]) == 0
    assert calls == [[0, 1, 2, 3]]
    assert "4 run(s)" in capsys.readouterr().out


@needs_numpy
def test_run_cli_unsupported_spec_exits_2(tmp_path, capsys):
    bad = _spec().to_dict()
    bad["cluster"]["n_channels"] = 2
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(bad))
    assert main(["run", str(path), "--backend", "vectorized"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UnsupportedSpecError: ")
    assert "single-channel" in err
