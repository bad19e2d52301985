"""Per-job event logs with record-and-stream fan-out.

Every job owns one :class:`JobEventLog`: an append-only sequence of
events, written from the worker thread that runs the campaign and read
by any number of SSE subscribers on the asyncio side.  Each event is
encoded into its Server-Sent-Events frame once, when it is appended,
and the log keeps only the frame bytes.  The design rule is **replay
determinism**: a subscriber's stream is always *the log itself*,
replayed from the requested sequence number and then tailed live — so
a subscriber that connects after the job finished receives
byte-for-byte the same frames an early subscriber saw arrive one at a
time (the recorder pattern: record once, stream any number of times).

A closed log never changes again, and the service keeps every finished
job's log for its lifetime, so :meth:`JobEventLog.close` packs the
frames into one zlib-compressed buffer plus their end offsets; replay
unpacks it.

Thread model: ``append``/``close`` are called from worker threads and
only touch state under the log's lock; waiting subscribers are woken
through ``loop.call_soon_threadsafe``, so no asyncio object is ever
touched off its loop.  Event payloads deliberately carry no wall-clock
timestamps — with a serial engine the whole log is a deterministic
function of the submitted spec, which is what the replay tests pin.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import zlib
from array import array
from typing import AsyncIterator, Dict, List, Optional, Tuple

#: Hard cap on retained events per job; a log that overflows drops the
#: oldest events and marks itself truncated (SSE replay then starts at
#: the oldest retained sequence number).  Progress events are O(tasks),
#: so ordinary campaigns sit far below this.
DEFAULT_MAX_EVENTS = 10_000


class JobEventLog:
    """An append-only, fan-out event log for one job."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self._max_events = max_events
        self._lock = threading.Lock()
        #: (seq, kind, SSE frame) triples, oldest first, until closed.
        self._events: List[Tuple[int, str, bytes]] = []
        #: Once closed: the first retained seq, the kinds, the frames'
        #: end offsets and the compressed frames (see close()).
        self._first = 0
        self._kinds: List[str] = []
        self._ends = array("L")
        self._packed = b""
        self._next_seq = 0
        self._dropped = 0
        self._closed = False
        self._waiters: List[Tuple[asyncio.AbstractEventLoop,
                                  asyncio.Event]] = []

    # -- producer side (worker threads) --------------------------------
    def append(self, kind: str, data: Dict) -> int:
        """Record one event (encoded now); returns its sequence number."""
        with self._lock:
            if self._closed:
                raise RuntimeError("event log is closed")
            seq = self._next_seq
            self._next_seq += 1
            self._events.append((seq, kind, sse_frame(seq, kind, data)))
            if len(self._events) > self._max_events:
                overflow = len(self._events) - self._max_events
                del self._events[:overflow]
                self._dropped += overflow
            waiters, self._waiters = self._waiters, []
        self._wake(waiters)
        return seq

    def close(self) -> None:
        """Seal the log: subscribers drain what remains, then finish."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            events, self._events = self._events, []
            self._first = events[0][0] if events else self._next_seq
            self._kinds = [kind for _seq, kind, _frame in events]
            self._ends = array("L", itertools.accumulate(
                len(frame) for _seq, _kind, frame in events))
            self._packed = zlib.compress(
                b"".join(frame for _seq, _kind, frame in events))
            waiters, self._waiters = self._waiters, []
        self._wake(waiters)

    def _after(self, after: int) -> List[Tuple[int, str, bytes]]:
        """Events with ``seq > after`` (caller holds the lock)."""
        if not self._closed:
            return [e for e in self._events if e[0] > after]
        start = max(0, after + 1 - self._first)
        if start >= len(self._kinds):
            return []
        frames = zlib.decompress(self._packed)
        ends = self._ends
        return [(self._first + i, self._kinds[i],
                 frames[ends[i - 1] if i else 0:ends[i]])
                for i in range(start, len(self._kinds))]

    @staticmethod
    def _wake(waiters) -> None:
        for loop, event in waiters:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # subscriber's loop already closed; nothing waits

    # -- introspection -------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return self._next_seq

    def events(self, after: int = -1) -> List[Tuple[int, str, bytes]]:
        """A snapshot of recorded ``(seq, kind, frame)`` events with
        ``seq > after``."""
        with self._lock:
            return self._after(after)

    # -- consumer side (asyncio) ---------------------------------------
    async def subscribe(self, after: int = -1
                        ) -> AsyncIterator[Tuple[int, str, bytes]]:
        """Replay ``(seq, kind, frame)`` events with ``seq > after``,
        then tail until closed.

        Late subscribers replay the full log; reconnecting subscribers
        pass the last sequence number they saw (SSE ``Last-Event-ID``).
        """
        loop = asyncio.get_running_loop()
        cursor = after
        while True:
            with self._lock:
                pending = self._after(cursor)
                closed = self._closed
                if not pending and not closed:
                    wakeup = asyncio.Event()
                    self._waiters.append((loop, wakeup))
            if pending:
                for event in pending:
                    cursor = event[0]
                    yield event
                continue
            if closed:
                return
            await wakeup.wait()


def sse_frame(seq: int, kind: str, data: Dict) -> bytes:
    """One Server-Sent-Events frame for an event triple.

    ``id`` carries the sequence number (so ``Last-Event-ID`` resumes),
    ``event`` the kind, ``data`` the sorted-key JSON payload — stable
    bytes for a stable log.
    """
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return (f"id: {seq}\nevent: {kind}\ndata: {payload}\n\n"
            .encode("utf-8"))


class EventHub:
    """The registry of per-job event logs the service fans out from."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self._max_events = max_events
        self._lock = threading.Lock()
        self._logs: Dict[str, JobEventLog] = {}

    def create(self, job_id: str) -> JobEventLog:
        """The log for ``job_id`` (created on first request)."""
        with self._lock:
            log = self._logs.get(job_id)
            if log is None:
                log = self._logs[job_id] = JobEventLog(self._max_events)
            return log

    def get(self, job_id: str) -> Optional[JobEventLog]:
        """Return the log for ``job_id``, or None if never created."""
        with self._lock:
            return self._logs.get(job_id)


__all__ = [
    "DEFAULT_MAX_EVENTS",
    "EventHub",
    "JobEventLog",
    "sse_frame",
]
