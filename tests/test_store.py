"""The content-addressed result store: keys, codec, durability, GC.

The store's contract is boring on the happy path (a persistent dict)
and interesting at the edges: keys must be collision-resistant content
addresses, payloads must be JSON values that round-trip exactly, and
any damaged or non-JSON record must read as a *miss* — never a crash,
never an unpickling — so a campaign simply re-runs the task.
"""

import base64
import json
import os
import pickle
from dataclasses import dataclass

import pytest

from repro import __version__
from repro.obs import MetricsRegistry
from repro.store import result_store
from repro.spec import ClusterSpec, ProtocolSpec, RunSpec
from repro.store import (
    ResultStore,
    decode_value,
    default_cache_dir,
    encode_value,
    store_key,
)


def _spec(seed=0, n_rounds=8, reducer=None):
    return RunSpec(
        protocol=ProtocolSpec(n_nodes=4, penalty_threshold=3,
                              reward_threshold=50,
                              criticalities=(1, 1, 1, 1)),
        cluster=ClusterSpec(seed=seed),
        n_rounds=n_rounds,
        reducer=reducer,
    )


class TestStoreKey:
    def test_key_is_full_digest_reducer_version(self):
        spec = _spec()
        assert store_key(spec) == \
            f"{spec.full_digest()}:summary:{__version__}"
        assert store_key(spec, reducer="validation.burst").endswith(
            f":validation.burst:{__version__}")

    def test_named_reducer_comes_from_spec(self):
        spec = _spec(reducer="validation.burst")
        assert ":validation.burst:" in store_key(spec)

    def test_version_pins_the_key(self):
        spec = _spec()
        assert store_key(spec, version="0.0.1") != store_key(spec)

    def test_distinct_specs_distinct_keys(self):
        assert store_key(_spec(seed=0)) != store_key(_spec(seed=1))


@dataclass
class _Point:
    x: int
    y: int


class TestCodec:
    @pytest.mark.parametrize("value", [
        {"a": 1, "b": [1, 2, 3], "c": None},
        "plain string",
        [True, False, 0.5],
    ])
    def test_json_native_values_stored_as_json(self, value):
        enc, payload = encode_value(value)
        assert enc == "json"
        assert decode_value(enc, payload) == value

    @pytest.mark.parametrize("value", [
        (1, 2),
        {"votes": (1, 0, 1)},
        {1, 2},
        {1: (2, 3), 4: (5,)},
        _Point(1, 2),
    ], ids=["tuple", "nested-tuple", "set", "int-key", "dataclass"])
    def test_non_json_values_are_refused(self, value):
        with pytest.raises(TypeError):
            encode_value(value)

    def test_large_payloads_compressed(self):
        value = {"rows": list(range(5000))}
        enc, payload = encode_value(value)
        assert enc == "json+zlib"
        assert decode_value(enc, payload) == value
        assert len(payload) < len(json.dumps(value))

    def test_unknown_encoding_rejected(self):
        for enc in ("msgpack", "pickle", "pickle+zlib"):
            with pytest.raises(ValueError, match="unknown payload encoding"):
                decode_value(enc, "x")

    def test_corrupt_compressed_payload_is_a_value_error(self):
        with pytest.raises(ValueError, match="corrupt json\\+zlib"):
            decode_value("json+zlib", base64.b64encode(b"junk").decode())


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/custom-cache")
        assert default_cache_dir() == "/tmp/custom-cache"

    def test_falls_back_to_user_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert default_cache_dir().endswith(
            os.path.join(".cache", "repro-diag"))


class TestResultStore:
    def test_get_put_has_roundtrip(self, tmp_path):
        metrics = MetricsRegistry()
        with ResultStore(str(tmp_path), metrics=metrics) as store:
            key = store_key(_spec())
            assert store.get(key) is None
            assert not store.has(key)
            store.put(key, {"result": {"passed": True}, "snapshot": {}})
            assert store.has(key)
            assert store.get(key) == {"result": {"passed": True},
                                      "snapshot": {}}
        counters = metrics.snapshot()["counters"]
        assert counters == {"store.hit": 1, "store.miss": 1, "store.put": 1}

    def test_last_write_wins(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            store.put("k" * 64, 1)
            store.put("k" * 64, 2)
            assert store.get("k" * 64) == 2
            assert len(store) == 1

    def test_survives_reopen(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            store.put("a" * 64, {"v": 41})
        with ResultStore(str(tmp_path)) as store:
            assert store.get("a" * 64) == {"v": 41}

    def test_truncated_shard_reads_as_miss(self, tmp_path):
        metrics = MetricsRegistry()
        with ResultStore(str(tmp_path), metrics=metrics) as store:
            key = "b" * 64
            store.put(key, {"big": "x" * 200})
            shard = os.path.join(store.shard_dir, store._shard_for(key))
            with open(shard, "r+b") as fh:
                fh.truncate(os.path.getsize(shard) // 2)
            assert store.get(key) is None        # skipped, not a crash
            assert not store.has(key)            # evicted from the index
            store.put(key, {"big": "y"})         # re-run fills it back in
            assert store.get(key) == {"big": "y"}
        counters = metrics.snapshot()["counters"]
        assert counters["store.corrupt"] == 1

    def test_bitflip_detected_by_checksum(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            key = "c" * 64
            store.put(key, {"value": 12345})
            shard = os.path.join(store.shard_dir, store._shard_for(key))
            blob = bytearray(open(shard, "rb").read())
            blob[len(blob) // 2] ^= 0xFF
            open(shard, "wb").write(bytes(blob))
            assert store.get(key) is None

    def test_undecodable_payload_reads_as_miss_through_get(
            self, tmp_path, monkeypatch):
        # An intact, checksum-valid record in the retired `pickle`
        # encoding (as stores written before the JSON-only codec hold):
        # `get` is a one-key `get_many`, so it evicts the record and
        # misses, and the payload is never unpickled.
        def pickled(value):
            raw = pickle.dumps(value)
            return "pickle", base64.b64encode(raw).decode("ascii")

        def no_unpickling(*_args, **_kwargs):
            raise AssertionError("the store unpickled a payload")

        metrics = MetricsRegistry()
        with ResultStore(str(tmp_path), metrics=metrics) as store:
            key = "5e" + "p" * 62
            monkeypatch.setattr(result_store, "encode_value", pickled)
            store.put(key, {"result": {"passed": True}, "snapshot": {}})
            monkeypatch.undo()
            monkeypatch.setattr(pickle, "loads", no_unpickling)
            assert store.get(key) is None
            assert not store.has(key)
        counters = metrics.snapshot()["counters"]
        assert counters["store.corrupt"] == 1
        assert counters["store.miss"] == 1

    def test_get_many_matches_get_semantics(self, tmp_path):
        metrics = MetricsRegistry()
        with ResultStore(str(tmp_path), metrics=metrics) as store:
            keys = [f"{i:02d}" + "a" * 62 for i in range(5)]
            for i, key in enumerate(keys[:3]):
                store.put(key, {"i": i})
            found = store.get_many(keys)
            assert found == {keys[0]: {"i": 0}, keys[1]: {"i": 1},
                             keys[2]: {"i": 2}}
        counters = metrics.snapshot()["counters"]
        assert counters["store.hit"] == 3
        assert counters["store.miss"] == 2

    def test_get_many_chunks_past_sqlite_variable_limit(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            keys = [f"{i:04d}" + "b" * 60
                    for i in range(ResultStore._IN_CHUNK * 2 + 7)]
            store.put_many((key, i) for i, key in enumerate(keys))
            found = store.get_many(keys)
            assert len(found) == len(keys)
            assert found[keys[-1]] == len(keys) - 1

    def test_get_many_evicts_corrupt_records(self, tmp_path):
        metrics = MetricsRegistry()
        with ResultStore(str(tmp_path), metrics=metrics) as store:
            good, bad = "1a" + "g" * 62, "1b" + "g" * 62  # same shard
            store.put(good, {"v": 1})
            store.put(bad, {"big": "x" * 200})
            shard = os.path.join(store.shard_dir, store._shard_for(bad))
            with open(shard, "r+b") as fh:
                fh.truncate(os.path.getsize(shard) - 20)
            found = store.get_many([good, bad])
            assert found == {good: {"v": 1}}
            assert not store.has(bad)  # evicted, like get()
        counters = metrics.snapshot()["counters"]
        assert counters["store.corrupt"] == 1
        assert counters["store.miss"] == 1
        assert counters["store.hit"] == 1

    def test_put_many_roundtrips_and_counts(self, tmp_path):
        metrics = MetricsRegistry()
        with ResultStore(str(tmp_path), metrics=metrics) as store:
            items = [("2a" + "h" * 62, {"v": 1}),
                     ("3b" + "h" * 62, [1, 2, 3]),
                     ("2c" + "h" * 62, "text")]
            store.put_many(items)
            for key, value in items:
                assert store.get(key) == value
            store.put_many([])  # no-op, no crash
        assert metrics.snapshot()["counters"]["store.put"] == 3

    def test_put_many_last_write_wins_vs_put(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            key = "4d" + "j" * 62
            store.put(key, 1)
            store.put_many([(key, 2)])
            assert store.get(key) == 2
            assert len(store) == 1

    def test_gc_evicts_lru_and_compacts(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            for i in range(10):
                store.put(f"{i:02d}" + "e" * 62, {"i": i})
            before = store.stats()["shard_bytes"]
            stats = store.gc(max_entries=4)
            assert stats.evicted == 6
            assert stats.kept == 4
            assert len(store) == 4
            assert store.stats()["shard_bytes"] < before
            # survivors still readable after shard rewrite
            for key in list(store.keys()):
                assert store.get(key) is not None

    def test_gc_by_age(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            store.put("f" * 64, 1)
            assert store.gc(max_age_seconds=0).evicted == 1
            assert len(store) == 0

    def test_gc_drops_superseded_records(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            key = "d" * 64
            store.put(key, 1)
            store.put(key, 2)
            stats = store.gc()
            assert stats.orphans_dropped == 1
            assert store.get(key) == 2


class TestStatsAndIndexQueries:
    def test_stats_breaks_down_per_shard(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            store.put("aa" + "x" * 62, {"v": 1})
            store.put("aa" + "y" * 62, {"v": 2})
            store.put("bb" + "x" * 62, {"v": 3})
            stats = store.stats()
            assert stats["entries"] == 3
            shards = stats["shards"]
            assert shards["aa.jsonl"]["entries"] == 2
            assert shards["bb.jsonl"]["entries"] == 1
            assert all(s["bytes"] > 0 for s in shards.values())
            assert stats["shard_bytes"] == sum(
                s["bytes"] for s in shards.values())

    def test_stats_counts_orphaned_bytes_in_shard_size(self, tmp_path):
        # a superseded record stays on disk until gc: the shard's bytes
        # outgrow what its single live entry needs
        with ResultStore(str(tmp_path)) as store:
            key = "cc" + "z" * 62
            store.put(key, {"v": "x" * 100})
            once = store.stats()["shards"]["cc.jsonl"]["bytes"]
            store.put(key, {"v": "y" * 100})
            stats = store.stats()
            assert stats["entries"] == 1
            assert stats["shards"]["cc.jsonl"]["entries"] == 1
            assert stats["shards"]["cc.jsonl"]["bytes"] > once

    def test_keys_for_prefix_selects_by_digest(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            spec_a, spec_b = _spec(seed=0), _spec(seed=1)
            key_a, key_b = store_key(spec_a), store_key(spec_b)
            store.put(key_a, 1)
            store.put(key_b, 2)
            digest = spec_a.full_digest()
            assert store.keys_for_prefix(digest) == [key_a]
            assert store.keys_for_prefix(spec_b.full_digest()) == [key_b]
            assert store.keys_for_prefix("0" * 64) == []

    def test_keys_for_prefix_is_sorted_and_literal(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            store.put("ab2" + "x" * 61, 1)
            store.put("ab1" + "x" * 61, 2)
            store.put("zz" + "x" * 62, 3)
            assert store.keys_for_prefix("ab") == [
                "ab1" + "x" * 61, "ab2" + "x" * 61]
            # LIKE wildcards in the prefix must not act as wildcards
            assert store.keys_for_prefix("a_") == []
            assert store.keys_for_prefix("%") == []


class TestConcurrentAccess:
    """Many store handles, one root: the service's thread model.

    Each thread opens its own :class:`ResultStore` (sqlite connections
    are per-thread); the busy-timeout/retry hardening plus the
    in-process append lock must keep shard offsets and index rows
    consistent under write/write and read/write contention.
    """

    THREADS = 8
    KEYS_PER_THREAD = 25

    def _key(self, thread, i):
        body = f"{thread:02d}{i:04d}"
        return body + "k" * (64 - len(body))

    def test_parallel_writers_and_readers_stay_consistent(self, tmp_path):
        import threading

        root = str(tmp_path / "store")
        failures = []
        barrier = threading.Barrier(self.THREADS)

        def worker(thread_id):
            try:
                with ResultStore(root) as store:
                    barrier.wait(timeout=30)
                    for i in range(self.KEYS_PER_THREAD):
                        # Private keys: every write must land...
                        store.put(self._key(thread_id, i),
                                  {"thread": thread_id, "i": i,
                                   "pad": "x" * 200})
                        # ...and one contended key all threads fight
                        # over must always read back as a valid record.
                        shared = "ff" + "s" * 62
                        store.put(shared, {"winner": thread_id, "i": i})
                        value = store.get(shared)
                        assert value is not None and "winner" in value
            except Exception as exc:  # surfaces in the main thread
                failures.append((thread_id, exc))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not failures, failures
        # Every private write is durable and intact; no shard offset
        # corruption (a bad offset would decode as a miss/crash here).
        with ResultStore(root) as store:
            for thread_id in range(self.THREADS):
                for i in range(self.KEYS_PER_THREAD):
                    value = store.get(self._key(thread_id, i))
                    assert value == {"thread": thread_id, "i": i,
                                     "pad": "x" * 200}
            stats = store.stats()
            assert stats["entries"] == \
                self.THREADS * self.KEYS_PER_THREAD + 1

    def test_get_many_under_concurrent_puts(self, tmp_path):
        import threading

        root = str(tmp_path / "store")
        keys = [self._key(99, i) for i in range(50)]
        with ResultStore(root) as store:
            for key in keys[:25]:
                store.put(key, {"seed": key[:6]})
        stop = threading.Event()

        def writer():
            with ResultStore(root) as store:
                i = 0
                while not stop.is_set():
                    store.put(keys[25 + (i % 25)], {"w": i})
                    i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with ResultStore(root) as store:
                for _round in range(50):
                    found = store.get_many(keys)
                    # The 25 pre-seeded records are always intact.
                    for key in keys[:25]:
                        assert found[key] == {"seed": key[:6]}
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
