"""Deterministic discrete-event simulation kernel.

The kernel is a classic heap-based event loop.  All protocol behaviour in
this repository is driven exclusively through it: message deliveries,
heartbeat tasks, back-off expirations and garbage-collection periods are all
:class:`Timer` instances scheduled on one :class:`Simulator`.

Determinism guarantees
----------------------
Two events scheduled for the same instant fire in the order they were
scheduled (FIFO tie-breaking via a monotonically increasing sequence
number).  Given identical seeds and identical call sequences, a simulation
is bit-for-bit reproducible, which the test suite relies on.

Heap layout
-----------
Queue entries are ``(time, seq, timer)`` tuples, so ``heapq`` orders them
in C by ``(time, seq)`` without calling back into Python.  Timers are
compared only when two entries share a key, which happens only when
:class:`TimerWheel` re-arms its service timer at the exact key of a
cancelled service entry still in the heap; :meth:`Timer.__lt__` settles
that tie (the cancelled entry never fires, so either order is correct).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice...)."""


class Timer:
    """A cancellable handle for a scheduled callback.

    Timers are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.call_at`.  Cancelling a fired or already-cancelled
    timer is a harmless no-op, which keeps protocol code free of
    bookkeeping branches.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if already fired)."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not (self.cancelled or self.fired)

    def __lt__(self, other: "Timer") -> bool:
        # Reached only on a (time, seq) tie between heap entries.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else (
            "fired" if self.fired else "pending")
        return f"<Timer t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Heap-based discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.5, out.append, "hello")
    >>> sim.run(until=10.0)
    >>> out
    ['hello']
    >>> sim.now
    10.0
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[tuple] = []      # (time, seq, timer)
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of timers still in the queue (including cancelled ones)."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Timer:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay=}")
        return self.call_at(self._now + delay, callback, *args)

    def call_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._now}")
        seq = next(self._seq)
        timer = Timer(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, timer))
        return timer

    def _lease_seq(self) -> int:
        """Draw one sequence number without scheduling anything.

        Used by :class:`TimerWheel`: a wheel entry *leases* the sequence
        number a plain timer armed at the same moment would have
        received, so coalescing entries onto one service timer preserves
        the exact FIFO tie-order of the non-coalesced kernel.
        """
        return next(self._seq)

    def _call_at_seq(self, time: float, seq: int,
                     callback: Callable[..., None]) -> Timer:
        """Schedule with an explicit (leased) sequence number.

        :class:`TimerWheel` only — arms its service timer with the head
        entry's leased key so the kernel sorts the service exactly where
        the entry's own timer would have sorted.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._now}")
        timer = Timer(time, seq, callback, ())
        heapq.heappush(self._queue, (time, seq, timer))
        return timer

    def _peek_key(self) -> Optional[tuple]:
        """The ``(time, seq)`` key of the next live queued timer.

        Cancelled heads are purged on the way (exactly as :meth:`run`
        would).  :class:`TimerWheel` uses this mid-service to stop firing
        entries the moment an interleaved kernel event is due first.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        if not queue:
            return None
        return queue[0][:2]

    def stop(self) -> None:
        """Stop a running simulation after the current event completes."""
        self._stopped = True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Advance time to exactly ``until``, executing every event with
            ``time <= until``.  If omitted, runs until the queue drains.
        max_events:
            Safety valve for tests: raise :class:`SimulationError` after
            processing this many events.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if max_events is not None and max_events <= 0:
            # A zero budget used to process one event before raising
            # (the post-decrement check below fired one iteration late);
            # an exhausted budget must reject *before* any callback runs.
            raise SimulationError(
                f"max_events budget exhausted at t={self._now}")
        self._running = True
        self._stopped = False
        budget = max_events if max_events is not None else float("inf")
        queue = self._queue
        try:
            while queue and not self._stopped:
                time, _, head = queue[0]
                if head.cancelled:
                    # Cancelled timers — including one sitting at exactly
                    # t == until — are purged without firing and never
                    # count against the max_events budget.
                    heapq.heappop(queue)
                    continue
                if until is not None and time > until:
                    break
                heapq.heappop(queue)
                self._now = time
                head.fired = True
                head.callback(*head.args)
                self.events_processed += 1
                budget -= 1
                if budget <= 0:
                    raise SimulationError(
                        f"max_events budget exhausted at t={self._now}")
            if until is not None and not self._stopped:
                self._now = max(self._now, until)
        finally:
            self._running = False

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Drain the queue entirely (convenience for unit tests)."""
        self.run(until=None, max_events=max_events)


class PeriodicTask:
    """A repeating task with optional per-tick jitter.

    Real wireless stacks never fire beacons at perfectly synchronised
    instants; a little jitter is what prevents pathological repeated
    collisions.  ``jitter`` adds ``U(0, jitter)`` seconds to every tick.

    The period can be changed on the fly with :meth:`set_period` — the
    frugal protocol adapts its heartbeat period to the observed neighbour
    speed (paper Fig. 8, ``computeHBDelay``), so this is a first-class
    operation: the new period takes effect from the next tick.
    """

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], None],
                 jitter: float = 0.0,
                 rng=None,
                 start_delay: Optional[float] = None):
        if period <= 0:
            raise SimulationError(f"period must be positive: {period=}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = rng
        self._timer: Optional[Timer] = None
        self._stopped = False
        first = self._period if start_delay is None else start_delay
        self._arm(first)

    def _draw_jitter(self) -> float:
        if self._jitter <= 0.0:
            return 0.0
        if self._rng is None:
            raise SimulationError("jitter requires an rng")
        return self._rng.uniform(0.0, self._jitter)

    def _arm(self, delay: float) -> None:
        self._timer = self._sim.schedule(
            max(0.0, delay + self._draw_jitter()), self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._arm(self._period)

    @property
    def period(self) -> float:
        """Current tick period in seconds (jitter excluded)."""
        return self._period

    def set_period(self, period: float) -> None:
        """Update the period; takes effect from the next re-arm."""
        if period <= 0:
            raise SimulationError(f"period must be positive: {period=}")
        self._period = float(period)

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return not self._stopped

    def stop(self) -> None:
        """Stop the task and cancel its pending tick."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()


class WheelTimer:
    """A cancellable entry on a :class:`TimerWheel`.

    Mirrors the :class:`Timer` contract (``cancel`` is an idempotent
    no-op after firing; ``active`` while pending) so wheel-backed and
    kernel-backed periodics are interchangeable to protocol code.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "fired")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if already fired)."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """True while the entry is pending (not fired, not cancelled)."""
        return not (self.cancelled or self.fired)

    def __lt__(self, other: "WheelTimer") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class TimerWheel:
    """Coalesces many timers onto one kernel service timer.

    A population of N nodes arms N heartbeat + N garbage-collection
    periodics; uncoalesced, every tick is its own kernel timer — one
    heap push/pop and one dispatch each.  The wheel keeps those entries
    on a private heap and arms a *single* kernel timer for the earliest
    one; when it fires, the service loop pops **every** entry due at the
    current instant in one dispatch.  Fleets whose ticks coincide (zero
    jitter, synchronized starts — exactly the TTL-membership pattern)
    collapse to one kernel event per instant.

    Exact order-equivalence
    -----------------------
    Coalescing must not perturb the kernel's deterministic FIFO
    tie-order, and "almost never at the same float time" is not good
    enough: zero-jitter periodics tick at exact integer instants where
    publications and one-shot timers also land.  Three rules make the
    wheel *exactly* order-equivalent to per-entry kernel timers:

    * every entry **leases** its sequence number from the kernel's own
      counter at arm time (:meth:`Simulator._lease_seq`), i.e. the seq a
      plain timer armed at that moment would have received — all other
      timers' seqs are therefore also unchanged;
    * the service timer is scheduled with the head entry's leased
      ``(time, seq)`` key (:meth:`Simulator._call_at_seq`), so the
      kernel sorts the service exactly where the entry itself would
      have sorted;
    * mid-service, before each further entry fires, the wheel peeks the
      kernel queue and stops (re-arming at that entry's own key) the
      moment a kernel event with a smaller key is due — an interleaved
      same-instant timer runs exactly when it would have uncoalesced.

    Only ``Simulator.events_processed`` differs (one service event can
    cover many entries); no scenario metric is derived from it.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._heap: List[WheelTimer] = []
        self._service_timer: Optional[Timer] = None

    @property
    def now(self) -> float:
        """Current simulation time (convenience passthrough)."""
        return self._sim.now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) entries on the wheel."""
        return sum(1 for e in self._heap if not e.cancelled)

    def call_at(self, time: float,
                callback: Callable[[], None]) -> WheelTimer:
        """Arm ``callback`` at absolute ``time``; returns the entry."""
        if time < self._sim.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._sim.now}")
        entry = WheelTimer(time, self._sim._lease_seq(), callback)
        heapq.heappush(self._heap, entry)
        self._sync_service()
        return entry

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> WheelTimer:
        """Arm ``callback`` ``delay`` seconds from now; returns the entry."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay=}")
        return self.call_at(self._sim.now + delay, callback)

    def _sync_service(self) -> None:
        """(Re-)arm the kernel service timer at the head entry's key."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        if not heap:
            return
        head = heap[0]
        st = self._service_timer
        if st is not None and not st.cancelled and not st.fired \
                and (st.time, st.seq) <= (head.time, head.seq):
            return
        if st is not None:
            st.cancel()
        self._service_timer = self._sim._call_at_seq(
            head.time, head.seq, self._service)

    def _service(self) -> None:
        self._service_timer = None
        sim = self._sim
        now = sim.now
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry.cancelled:
                heapq.heappop(heap)
                continue
            if entry.time > now:
                break
            key = sim._peek_key()
            if key is not None and key < (entry.time, entry.seq):
                break  # an interleaved kernel event is due first
            heapq.heappop(heap)
            entry.fired = True
            entry.callback()
        self._sync_service()


class WheelPeriodicTask:
    """Drop-in :class:`PeriodicTask` equivalent backed by a wheel.

    Same period/jitter semantics, same rng consumption (one jitter draw
    per arm, from the same stream positions), same ``set_period`` /
    ``stop`` / ``running`` contract — only the timer substrate differs.
    """

    def __init__(self, wheel: TimerWheel, period: float,
                 callback: Callable[[], None],
                 jitter: float = 0.0,
                 rng=None,
                 start_delay: Optional[float] = None):
        if period <= 0:
            raise SimulationError(f"period must be positive: {period=}")
        self._wheel = wheel
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = rng
        self._entry: Optional[WheelTimer] = None
        self._stopped = False
        first = self._period if start_delay is None else start_delay
        self._arm(first)

    def _draw_jitter(self) -> float:
        if self._jitter <= 0.0:
            return 0.0
        if self._rng is None:
            raise SimulationError("jitter requires an rng")
        return self._rng.uniform(0.0, self._jitter)

    def _arm(self, delay: float) -> None:
        self._entry = self._wheel.schedule(
            max(0.0, delay + self._draw_jitter()), self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._arm(self._period)

    @property
    def period(self) -> float:
        """Current tick period in seconds (jitter excluded)."""
        return self._period

    def set_period(self, period: float) -> None:
        """Update the period; takes effect from the next re-arm."""
        if period <= 0:
            raise SimulationError(f"period must be positive: {period=}")
        self._period = float(period)

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return not self._stopped

    def stop(self) -> None:
        """Stop the task and cancel its pending tick."""
        self._stopped = True
        if self._entry is not None:
            self._entry.cancel()
