"""The result contract: a reducer returns a JSON value.

A reducer's result is stored, shipped between processes and written
into ``--out`` documents through the store codec
(:func:`repro.store.encode_value`), which accepts only values that
read back equal.  These tests pin the contract for every registered
reducer, and the one way a reducer that breaks it fails on every
dispatch path: its task becomes a ``TypeError`` task error, and no
store row is written for it.
"""

import multiprocessing
from dataclasses import replace

import pytest

from repro.campaign import run_campaign
from repro.experiments.table2 import penalty_budget_spec
from repro.experiments.validation import (
    burst_spec,
    clique_spec,
    malicious_spec,
    penalty_reward_spec,
)
from repro.runner.backends import TaskError
from repro.spec import (
    ClusterSpec,
    ProtocolSpec,
    RunSpec,
    ScenarioSpec,
    execute,
    reducers,
    register_reducer,
    registered_reducers,
)
from repro.store import ResultStore, decode_value, encode_value, store_key
from repro.vec import NUMPY_AVAILABLE, UnsupportedSpecError

_PROTOCOL = ProtocolSpec(n_nodes=4, penalty_threshold=2, reward_threshold=5,
                         criticalities=(1, 1, 1, 1))

#: A small spec per registered reducer that exercises it.
SMALL_SPECS = {
    "summary": RunSpec(protocol=_PROTOCOL, n_rounds=8),
    "validation.burst": burst_spec(2, 4),
    "validation.penalty-reward": penalty_reward_spec(),
    "validation.malicious": malicious_spec(2, n_rounds=12),
    "validation.clique": clique_spec(),
    "table2.penalty-budget": penalty_budget_spec(0.05),
    "isolation": RunSpec(
        protocol=_PROTOCOL, cluster=ClusterSpec(seed=1, trace_level=1),
        scenarios=(ScenarioSpec("GilbertElliottChannel", {
            "p_gb": 0.3, "p_bg": 0.5, "error_good": 0.0, "error_bad": 1.0,
            "rng_stream": "contract"}),),
        n_rounds=20, reducer="isolation"),
}

#: Reducers the vectorized backend runs.
VECTORIZED = ("summary", "isolation")


def _assert_json_value(result, backend):
    enc, payload = encode_value(result)
    assert enc in ("json", "json+zlib")
    assert decode_value(enc, payload) == result, backend


@pytest.mark.parametrize("name", sorted(registered_reducers()))
def test_registered_reducer_returns_a_json_value(name):
    assert name in SMALL_SPECS, f"add a small spec for reducer {name!r}"
    spec = SMALL_SPECS[name]
    assert (spec.reducer or "summary") == name
    _assert_json_value(execute(spec), "event")


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="needs numpy")
@pytest.mark.parametrize("name", sorted(registered_reducers()))
def test_vectorized_backend_runs_or_refuses_each_reducer(name):
    """On the vectorized backend a reducer either returns a JSON value
    or is refused with UnsupportedSpecError before the kernel runs."""
    reducer = registered_reducers()[name]
    assert bool(getattr(reducer, "vectorized", False)) == (name in VECTORIZED)
    spec = replace(SMALL_SPECS[name], backend="vectorized")
    if name in VECTORIZED:
        _assert_json_value(execute(spec), "vectorized")
        return
    with pytest.raises(UnsupportedSpecError, match=repr(name)):
        execute(spec)


class TupleReducer:
    """Breaks the contract: a tuple reads back from JSON as a list."""

    name = "test.tuple"

    def reduce(self, target, spec, state):
        return (1, 2)


@pytest.fixture
def tuple_reducer(monkeypatch):
    monkeypatch.setattr(reducers, "_REDUCERS", dict(reducers._REDUCERS))
    register_reducer(TupleReducer)


@pytest.mark.parametrize("jobs", [
    1,
    pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers see the test reducer through fork")),
], ids=["inline", "pool"])
def test_non_json_result_fails_its_task(tuple_reducer, tmp_path, jobs):
    good = SMALL_SPECS["summary"]
    bad = replace(good, reducer=TupleReducer.name)
    with ResultStore(str(tmp_path)) as store:
        result = run_campaign([("good", good), ("bad", bad)], jobs=jobs,
                              store=store, sleep=lambda _t: None)
        assert not isinstance(result.results[0], TaskError)
        error = result.results[1]
        assert isinstance(error, TaskError)
        assert error.error_type == "TypeError"
        assert "round-trip" in error.message
        assert store.has(store_key(good))
        assert not store.has(store_key(bad))
