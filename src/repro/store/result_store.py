"""Content-addressed, corruption-tolerant result store for spec runs.

Large campaigns (Secs. 8–9 style Monte Carlo sweeps) re-execute the
same :class:`~repro.spec.RunSpec` values over and over — across
resumed runs, across parameter studies sharing a baseline, across CI
re-runs.  Every run is deterministic and content-addressed
(:meth:`RunSpec.full_digest`), so its reduced result and metrics
snapshot can be cached once and replayed forever.

Layout under a configurable cache directory::

    <root>/index.sqlite          tables ``entries`` (key -> shard,
                                 offset, length, sha256), ``campaigns``
                                 and ``campaign_keys`` (campaign
                                 records, see repro.campaign.state)
    <root>/shards/<kk>.jsonl     append-only JSONL payload records

Design rules, in order:

1. **Keys are content addresses.**  :func:`store_key` is
   ``full_digest:reducer:package_version`` — the untruncated spec
   hash, the reducer that produced the payload, and the code version
   that ran it.  Upgrading the package or changing the reducer
   naturally invalidates the cache without any explicit flush.
2. **Writes are atomic at record granularity.**  ``put_many`` appends
   complete JSONL records (fsynced per shard) and only then commits
   their index rows; a crash between the two leaves orphan records
   that GC reclaims, never a dangling index entry.
3. **Reads never trust the shard.**  ``get_many`` re-verifies the
   length, key and sha256 of the record bytes, then decodes the
   payload; a truncated, bit-rotten, mis-indexed or undecodable record
   is dropped from the index and reported as a miss (counter
   ``store.corrupt``), so the campaign simply re-runs that task —
   corruption costs work, never a crash.
4. **Payloads are JSON values.**  Stored as canonical JSON
   (inspectable with ``jq``), zlib-compressed past 4 KiB;
   :func:`encode_value` refuses with :class:`TypeError` any value that
   would not read back equal, so a read never executes code.  A
   record in any other encoding is undecodable (rule 3).
5. **The store is the checkpoint.**  A campaign's record (its id,
   name, status and ordered keys) is written to the index twice: at
   start and at its terminal status.  Progress is never written; it is
   the number of the record's keys still in ``entries``, and ``gc``
   drops a record once none of its keys remain.

The store is single-writer *per handle*: a :class:`ResultStore`
instance (and its SQLite connection) belongs to one thread.  Several
instances may share one root concurrently — the HTTP service's worker
pool opens one per worker thread — which SQLite serialises through
its file locks: every connection sets a ``busy_timeout`` and the few
operations that can still surface ``SQLITE_BUSY`` under lock
contention retry with bounded backoff (counter
``store.busy_retries``).  Shard appends from concurrent instances in
the same process are serialised by a module lock so offsets recorded
in the index always match the bytes on disk.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import shutil
import sqlite3
import threading
import time
import zlib
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..obs.registry import NULL_REGISTRY

#: Record schema tag stamped into every shard record.
STORE_SCHEMA = "repro-store/1"

#: Payloads whose serialized form exceeds this are zlib-compressed.
COMPRESS_THRESHOLD = 4096

_ENCODINGS = ("json", "json+zlib")

#: Seconds SQLite waits for a competing connection's lock before
#: surfacing ``SQLITE_BUSY`` (per connection; see ``busy_timeout``).
DEFAULT_BUSY_TIMEOUT = 5.0

#: Bounded retries layered on top of the busy timeout for index
#: operations, with doubling backoff starting here.
_BUSY_RETRIES = 5
_BUSY_BACKOFF = 0.02

#: The index tables.  ``IF NOT EXISTS`` adds the campaign tables to a
#: store created before they existed.
_TABLES = (
    "CREATE TABLE IF NOT EXISTS entries ("
    " key TEXT PRIMARY KEY,"
    " shard TEXT NOT NULL,"
    " offset INTEGER NOT NULL,"
    " length INTEGER NOT NULL,"
    " sha256 TEXT NOT NULL,"
    " created REAL NOT NULL,"
    " last_used REAL NOT NULL)",
    "CREATE TABLE IF NOT EXISTS campaigns ("
    " campaign_id TEXT PRIMARY KEY,"
    " name TEXT NOT NULL,"
    " status TEXT NOT NULL,"
    " failed INTEGER NOT NULL)",
    "CREATE TABLE IF NOT EXISTS campaign_keys ("
    " campaign_id TEXT NOT NULL,"
    " position INTEGER NOT NULL,"
    " key TEXT NOT NULL,"
    " PRIMARY KEY (campaign_id, position))",
)

#: Serialises shard-file appends across every ResultStore instance in
#: this process, so the offset each writer records in its index row is
#: exactly where its record landed.  (Cross-process writers are out of
#: scope: the service is one process; campaign workers ship results
#: home through the pool rather than writing shards themselves.)
_APPEND_LOCK = threading.Lock()


def default_cache_dir() -> str:
    """The store root used when none is given.

    ``REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro-diag``
    or ``~/.cache/repro-diag``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-diag")


def store_key(spec, reducer: Optional[str] = None,
              version: Optional[str] = None) -> str:
    """The content address of one spec's reduced result.

    ``full_digest`` pins the run inputs, ``reducer`` the
    post-processing, ``version`` the code that executed — so stale
    payloads can never shadow a changed computation.
    """
    if version is None:
        from .. import __version__ as version
    name = reducer if reducer is not None else (spec.reducer or "summary")
    return f"{spec.full_digest()}:{name}:{version}"


# ----------------------------------------------------------------------
# Payload codec
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Tuple[str, str]:
    """Encode a JSON value as ``(enc, payload_text)``.

    The payload is sorted-key JSON (``json``), zlib-compressed and
    base64-wrapped past :data:`COMPRESS_THRESHOLD` bytes (``json+zlib``).
    Raises :class:`TypeError` unless it reads back equal to ``value``:
    JSON would turn a tuple into a list and an int key into a string,
    so such a value is refused, not stored in another shape.
    """
    try:
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise TypeError(f"not a JSON value: {exc}") from None
    if json.loads(text) != value:
        raise TypeError(f"{type(value).__name__} value does not "
                        f"round-trip through JSON")
    if len(text) <= COMPRESS_THRESHOLD:
        return "json", text
    packed = zlib.compress(text.encode("utf-8"), level=6)
    return "json+zlib", base64.b64encode(packed).decode("ascii")


def decode_value(enc: str, payload: str) -> Any:
    """Invert :func:`encode_value`; :class:`ValueError` for any other
    encoding or a payload that does not decode."""
    if enc not in _ENCODINGS:
        raise ValueError(f"unknown payload encoding {enc!r}")
    if not isinstance(payload, str):
        raise ValueError("payload must be a string")
    if enc == "json+zlib":
        try:
            payload = zlib.decompress(base64.b64decode(payload))
        except zlib.error as exc:
            raise ValueError(f"corrupt json+zlib payload: {exc}") from None
    return json.loads(payload)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
@dataclass
class GCStats:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    evicted: int = 0
    orphans_dropped: int = 0
    kept: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    campaigns_dropped: int = 0


class ResultStore:
    """SQLite-indexed, shard-backed map from store keys to payloads.

    Counters (on the registry passed as ``metrics``): ``store.hit``,
    ``store.miss``, ``store.put``, ``store.corrupt``.  These belong to
    the *campaign engine's* registry, never to the merged run metrics —
    cache behaviour is an execution detail and must not perturb
    byte-identical run reports.
    """

    def __init__(self, root: Optional[str] = None, metrics=NULL_REGISTRY,
                 busy_timeout: float = DEFAULT_BUSY_TIMEOUT) -> None:
        self.root = root if root is not None else default_cache_dir()
        self.metrics = metrics
        self.shard_dir = os.path.join(self.root, "shards")
        os.makedirs(self.shard_dir, exist_ok=True)
        self._db = sqlite3.connect(os.path.join(self.root, "index.sqlite"),
                                   timeout=busy_timeout)
        self._db.execute(
            f"PRAGMA busy_timeout = {int(busy_timeout * 1000)}")
        for table in _TABLES:
            self._retry(lambda table=table: self._db.execute(table))
        self._commit()

    def _retry(self, operation: Callable[[], Any]) -> Any:
        """Run one index operation, absorbing transient ``SQLITE_BUSY``.

        The connection's busy timeout already waits out ordinary lock
        contention; this bounded retry (doubling backoff, counter
        ``store.busy_retries``) covers the residual cases — e.g. a
        read transaction that must restart to upgrade to a write lock
        while another connection holds it.
        """
        delay = _BUSY_BACKOFF
        for _attempt in range(_BUSY_RETRIES):
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                text = str(exc).lower()
                if "locked" not in text and "busy" not in text:
                    raise
                self.metrics.counter("store.busy_retries").inc()
                time.sleep(delay)
                delay *= 2
        return operation()

    def _commit(self) -> None:
        self._retry(self._db.commit)

    # -- context / lifecycle -------------------------------------------
    def close(self) -> None:
        """Close the SQLite index handle."""
        self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self._db.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def keys(self) -> Iterator[str]:
        """Every indexed key, sorted."""
        for (key,) in self._db.execute(
                "SELECT key FROM entries ORDER BY key"):
            yield key

    # -- primitives ----------------------------------------------------
    def _shard_path(self, shard: str) -> str:
        return os.path.join(self.shard_dir, shard)

    @staticmethod
    def _shard_for(key: str) -> str:
        return key[:2] + ".jsonl"

    def has(self, key: str) -> bool:
        """Whether the index lists ``key`` (no payload verification)."""
        row = self._db.execute("SELECT 1 FROM entries WHERE key = ?",
                               (key,)).fetchone()
        return row is not None

    def get(self, key: str) -> Optional[Any]:
        """The payload stored under ``key``, or None on a miss.

        A one-key :meth:`get_many`, so a record that fails verification
        or decoding is evicted and read as a miss here too.
        """
        return self.get_many([key]).get(key)

    def _read_record(self, shard: str, offset: int, length: int,
                     digest: str, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._shard_path(shard), "rb") as fh:
                fh.seek(offset)
                blob = fh.read(length)
        except OSError:
            return None
        return self._verify_record(blob, length, digest, key)

    @staticmethod
    def _verify_record(blob: bytes, length: int, digest: str,
                       key: str) -> Optional[Dict[str, Any]]:
        if len(blob) != length:
            return None  # truncated shard: skip and re-run, never crash
        if hashlib.sha256(blob).hexdigest() != digest:
            return None
        try:
            record = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("key") != key \
                or record.get("schema") != STORE_SCHEMA:
            return None
        if record.get("enc") not in _ENCODINGS:
            return None
        return record

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (a one-item :meth:`put_many`)."""
        self.put_many([(key, value)])

    # -- batched primitives --------------------------------------------
    #: Keys per IN-clause chunk, comfortably under SQLite's default
    #: 999-variable limit.
    _IN_CHUNK = 400

    def get_many(self, keys) -> Dict[str, Any]:
        """Payloads for every hit among ``keys``, as ``{key: value}``.

        The campaign warm path used to issue one indexed SELECT, one
        last-used UPDATE and one commit *per task*; this consults the
        index in :data:`_IN_CHUNK`-sized ``IN`` batches, opens each
        shard file once for all its records, batches the last-used
        refresh through ``executemany`` and commits once.  A record that
        fails verification (short read, key mismatch, checksum mismatch)
        or decoding is evicted from the index and read as a miss,
        counted as ``store.corrupt`` and ``store.miss``.
        """
        keys = list(keys)
        rows: Dict[str, Tuple[str, int, int, str]] = {}
        for start in range(0, len(keys), self._IN_CHUNK):
            chunk = keys[start:start + self._IN_CHUNK]
            marks = ",".join("?" * len(chunk))
            for key, shard, offset, length, digest in self._db.execute(
                    f"SELECT key, shard, offset, length, sha256"
                    f" FROM entries WHERE key IN ({marks})", chunk):
                rows[key] = (shard, offset, length, digest)

        by_shard: Dict[str, list] = {}
        for key in keys:
            if key in rows:
                by_shard.setdefault(rows[key][0], []).append(key)
            else:
                self.metrics.counter("store.miss").inc()

        found: Dict[str, Any] = {}
        corrupt: list = []
        for shard, shard_keys in sorted(by_shard.items()):
            try:
                fh = open(self._shard_path(shard), "rb")
            except OSError:
                corrupt.extend(shard_keys)
                continue
            with fh:
                for key in shard_keys:
                    _, offset, length, digest = rows[key]
                    fh.seek(offset)
                    record = self._verify_record(fh.read(length), length,
                                                 digest, key)
                    if record is None:
                        corrupt.append(key)
                        continue
                    try:
                        found[key] = decode_value(record["enc"],
                                                  record["payload"])
                    except ValueError:
                        corrupt.append(key)

        for key in corrupt:
            self.metrics.counter("store.corrupt").inc()
            self.metrics.counter("store.miss").inc()
            self._retry(lambda k=key: self._db.execute(
                "DELETE FROM entries WHERE key = ?", (k,)))
        if found:
            self.metrics.counter("store.hit").inc(len(found))
            now = time.time()
            self._retry(lambda: self._db.executemany(
                "UPDATE entries SET last_used = ? WHERE key = ?",
                [(now, key) for key in found]))
        if found or corrupt:
            self._commit()
        return found

    def put_many(self, items) -> None:
        """Store every ``(key, value)`` pair (last write wins).

        The records are appended and fsynced before one index commit
        covers the whole batch.  The fsync is per distinct shard, and
        keys spread over 256 shards by their first two hex digits, so a
        batch of R results pays up to ``min(R, 256)`` fsyncs, not one.
        """
        by_shard: Dict[str, list] = {}
        count = 0
        for key, value in items:
            enc, payload = encode_value(value)
            line = json.dumps({"schema": STORE_SCHEMA, "key": key,
                               "enc": enc, "payload": payload},
                              sort_keys=True, separators=(",", ":"))
            by_shard.setdefault(self._shard_for(key), []).append(
                (key, line.encode("utf-8")))
            count += 1
        if not count:
            return
        now = time.time()
        index_rows = []
        with _APPEND_LOCK:
            for shard, records in sorted(by_shard.items()):
                with open(self._shard_path(shard), "ab") as fh:
                    for key, blob in records:
                        offset = fh.tell()
                        fh.write(blob + b"\n")
                        index_rows.append(
                            (key, shard, offset, len(blob),
                             hashlib.sha256(blob).hexdigest(), now, now))
                    fh.flush()
                    os.fsync(fh.fileno())
        self._retry(lambda: self._db.executemany(
            "INSERT OR REPLACE INTO entries"
            " (key, shard, offset, length, sha256, created, last_used)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)", index_rows))
        self._commit()
        self.metrics.counter("store.put").inc(count)

    def keys_for_prefix(self, prefix: str) -> List[str]:
        """Sorted keys starting with ``prefix``, from the index alone.

        The prefix of a store key is a spec digest, so this answers
        "which cached results exist for this spec?" (across reducers
        and code versions) without touching any shard — the provenance
        query ``results diff`` makes per diverging digest.
        """
        escaped = (prefix.replace("\\", "\\\\")
                   .replace("%", "\\%").replace("_", "\\_"))
        rows = self._db.execute(
            "SELECT key FROM entries WHERE key LIKE ? ESCAPE '\\'"
            " ORDER BY key", (escaped + "%",))
        return [key for (key,) in rows]

    # -- campaign records ----------------------------------------------
    def put_campaign(self, campaign_id: str, name: str, status: str,
                     failed: int = 0,
                     keys: Optional[Sequence[str]] = None) -> None:
        """Write one campaign record in one index commit.

        With ``keys`` (the start write) the record and its ordered keys
        are written whole.  Without them (the terminal write) only an
        existing record changes, so a record ``gc`` dropped meanwhile
        stays dropped.
        """
        def write() -> None:
            if keys is None:
                self._db.execute(
                    "UPDATE campaigns SET name = ?, status = ?, failed = ?"
                    " WHERE campaign_id = ?",
                    (name, status, failed, campaign_id))
                return
            self._db.execute(
                "INSERT OR REPLACE INTO campaigns"
                " (campaign_id, name, status, failed) VALUES (?, ?, ?, ?)",
                (campaign_id, name, status, failed))
            self._db.executemany(
                "INSERT OR REPLACE INTO campaign_keys"
                " (campaign_id, position, key) VALUES (?, ?, ?)",
                [(campaign_id, position, key)
                 for position, key in enumerate(keys)])

        self._retry(write)
        self._commit()

    def campaigns(self, campaign_id: Optional[str] = None
                  ) -> List[Dict[str, Any]]:
        """Campaign records, with their progress read from the index.

        Each record is a dict of ``campaign_id``, ``name``, ``status``,
        ``total`` (its keys), ``done`` (those of its keys ``entries``
        still holds) and ``failed``, sorted by id; ``campaign_id``
        selects one.
        """
        where, args = ("", ())
        if campaign_id is not None:
            where, args = " WHERE c.campaign_id = ?", (campaign_id,)
        rows = self._db.execute(
            "SELECT c.campaign_id, c.name, c.status, COUNT(k.key),"
            " COUNT(e.key), c.failed FROM campaigns c"
            " LEFT JOIN campaign_keys k ON k.campaign_id = c.campaign_id"
            " LEFT JOIN entries e ON e.key = k.key" + where +
            " GROUP BY c.campaign_id ORDER BY c.campaign_id", args)
        fields = ("campaign_id", "name", "status", "total", "done", "failed")
        return [dict(zip(fields, row)) for row in rows]

    def _drop_stale_campaigns(self) -> int:
        """Drop every campaign record none of whose keys remain."""
        cur = self._db.execute(
            "DELETE FROM campaigns WHERE campaign_id NOT IN ("
            " SELECT k.campaign_id FROM campaign_keys k"
            " JOIN entries e ON e.key = k.key)")
        self._db.execute(
            "DELETE FROM campaign_keys WHERE campaign_id NOT IN ("
            " SELECT campaign_id FROM campaigns)")
        return cur.rowcount

    # -- maintenance ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Index and shard footprint (for ``campaign status``).

        Alongside the totals, ``shards`` breaks entries and bytes down
        per shard file — orphaned bytes show up as shards whose size
        outgrows their live entries, which is what ``gc`` reclaims.
        """
        shards: Dict[str, Dict[str, int]] = {}
        for name in sorted(os.listdir(self.shard_dir)):
            shards[name] = {
                "entries": 0,
                "bytes": os.path.getsize(self._shard_path(name)),
            }
        for shard, count in self._db.execute(
                "SELECT shard, COUNT(*) FROM entries GROUP BY shard"):
            shards.setdefault(shard, {"entries": 0, "bytes": 0})
            shards[shard]["entries"] = count
        shard_bytes = sum(s["bytes"] for s in shards.values())
        return {"entries": len(self), "shard_bytes": shard_bytes,
                "root": self.root, "shards": shards}

    def gc(self, max_entries: Optional[int] = None,
           max_age_seconds: Optional[float] = None) -> GCStats:
        """Evict old entries, compact shards, drop stale campaigns.

        Entries older than ``max_age_seconds`` (by ``last_used``) go
        first; if more than ``max_entries`` remain, the least recently
        used excess goes too.  Shards are then rewritten to contain
        exactly the surviving records — dropping orphans from
        interrupted ``put_many``s and superseded duplicate keys — with
        index offsets updated atomically per shard.  Last, every
        campaign record none of whose keys remain is dropped.
        """
        stats = GCStats(bytes_before=self.stats()["shard_bytes"])
        now = time.time()
        if max_age_seconds is not None:
            cur = self._db.execute(
                "DELETE FROM entries WHERE last_used < ?",
                (now - max_age_seconds,))
            stats.evicted += cur.rowcount
        if max_entries is not None:
            excess = len(self) - max_entries
            if excess > 0:
                self._db.execute(
                    "DELETE FROM entries WHERE key IN ("
                    " SELECT key FROM entries ORDER BY last_used ASC"
                    f" LIMIT {int(excess)})")
                stats.evicted += excess
        self._db.commit()
        stats.kept = len(self)
        stats.orphans_dropped = self._compact()
        stats.campaigns_dropped = self._drop_stale_campaigns()
        self._db.commit()
        self._db.execute("VACUUM")
        # Campaign records were JSON files under campaigns/ before they
        # moved into the index; nothing reads that directory any more.
        shutil.rmtree(os.path.join(self.root, "campaigns"),
                      ignore_errors=True)
        stats.bytes_after = self.stats()["shard_bytes"]
        return stats

    def _compact(self) -> int:
        """Rewrite every shard keeping only live, verifiable records.

        Returns the number of shard records dropped: orphans from
        interrupted ``put_many``s, records superseded by a later write of
        the same key, evicted entries' payloads, and corrupt bytes.
        """
        dropped = 0
        for shard in sorted(os.listdir(self.shard_dir)):
            path = self._shard_path(shard)
            if not os.path.isfile(path):
                continue
            rows = self._db.execute(
                "SELECT key, offset, length, sha256 FROM entries"
                " WHERE shard = ? ORDER BY offset", (shard,)).fetchall()
            live = []
            for key, offset, length, digest in rows:
                if self._read_record(shard, offset, length, digest,
                                     key) is not None:
                    live.append((key, offset, length))
                else:
                    self._db.execute("DELETE FROM entries WHERE key = ?",
                                     (key,))
            with open(path, "rb") as fh:
                total_records = sum(1 for _ in fh)
            dropped += max(0, total_records - len(live))
            tmp = path + ".gc"
            new_offsets = []
            with open(path, "rb") as src, open(tmp, "wb") as dst:
                for key, offset, length in live:
                    src.seek(offset)
                    blob = src.read(length)
                    new_offsets.append((dst.tell(), key))
                    dst.write(blob + b"\n")
                dst.flush()
                os.fsync(dst.fileno())
            os.replace(tmp, path)
            for new_offset, key in new_offsets:
                self._db.execute(
                    "UPDATE entries SET offset = ? WHERE key = ?",
                    (new_offset, key))
            self._db.commit()
            if not live:
                os.remove(path)
        return dropped


__all__ = [
    "COMPRESS_THRESHOLD",
    "DEFAULT_BUSY_TIMEOUT",
    "STORE_SCHEMA",
    "GCStats",
    "ResultStore",
    "decode_value",
    "default_cache_dir",
    "encode_value",
    "store_key",
]
