"""Calendar-queue kernel core: O(1) bucketed scheduling for integer time.

The heap kernel (:class:`repro.sim.kernel.Simulator`) pays O(log n) per
schedule and per pop — tuple comparisons during heap sifting — on a
workload that is almost pathologically friendly to something better: the
machine runs on a discrete integer cycle clock, the overwhelming majority
of events land a few cycles out (hop latencies, burst gaps), and a large
slice land *zero* cycles out (validation's deferred sends, fused hop
dispatch, fault-victim resolution).  A calendar queue exploits exactly
that shape:

* **Per-cycle buckets.**  A rotating array of ``width`` lists covers the
  cycle window ``[base, base + width)``; an event at cycle ``when`` lands
  in ``buckets[when % width]`` with a plain ``append``.  Because each
  in-window slot corresponds to exactly one cycle, a bucket is already in
  insertion (= ``seq``) order — the heap kernel's deterministic tie-break
  is preserved for free, with no comparisons at all.
* **Overflow tier.**  Events beyond the window (checkpoint edges,
  watchdogs, deadline sweeps) go to a small ``(when, seq, event)`` heap
  and are *promoted* into the wheel when the window rotates past them.
  Promotion pops in ``(when, seq)`` order, so buckets stay seq-sorted.
* **Zero-delay fast lane.**  An event scheduled for the *current* cycle
  is appended to the cycle's drain deque directly and never touches the
  queue structure; the run loop drains the lane before advancing time.
  Bucket events enter the lane first (they were scheduled earlier, so
  they carry smaller ``seq``), zero-delay appends follow — heap order.
* **Event recycling.**  Dispatched :class:`~repro.sim.kernel.Event`
  objects return to a free list and are reissued by ``schedule`` instead
  of allocated.  Recycling is gated on proof of exclusivity: an event is
  reused only when, after its callback returns, the dispatch loop holds
  the *only* reference to it (``sys.getrefcount == 2`` — the loop local
  plus the probe argument).  A holder that keeps the handle (a ticker, a
  flight's hop event) could later call ``cancel()`` on it — harmless
  against a fired heap event, fatal against a recycled object reissued to
  a different callback — and the refcount gate excludes exactly those.
  Cancelled-but-never-fired events are likewise left to the garbage
  collector (their canceller still holds them by definition).  The hot
  fire-and-forget sites (deferred validation sends, fused hop dispatch,
  burst wake-ups) drop the handle immediately and recycle at ~100%.
* **Width auto-sizing.**  On rotation (the wheel is empty between
  windows, never mid-cycle) the width doubles when the closing window
  pushed more events to the overflow tier than into the wheel, and
  halves when the window was nearly idle — so sparse phases scan few
  slots and dense phases rarely detour through the heap.  Resizing is
  pure re-layout: dispatch order is ``(when, seq)`` regardless, so
  determinism is untouched.

Dispatch order, ``run``/``step`` semantics (limit cut-off, fast-forward,
``stop``, ``max_events``), and the backwards-time guard are bit-identical
to the heap kernel — ``tests/test_calendar_kernel.py`` holds the two
cores equivalent event-for-event, and machine runs on the two cores were
bit-identical, counters included (``tests/data/mode_golden.json`` keeps
those runs).  One documented exception: when a run consumes a
*trailing* sequence of cancelled-only cycles, this core
leaves ``now`` at the last examined cycle where the heap kernel leaves it
at the last dispatched one.  Advancing is what keeps the window base
behind the clock (the invariant that makes bucket indexing alias-free);
no component observes the difference — a machine run always ends by
``stop()`` or a limit, and both cores agree on those paths.

Every machine runs on this core; the heap kernel stays in-tree as its
base class and unit-level reference.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from sys import getrefcount
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.sim.kernel import Event, SimulationError, Simulator

#: Wheel-width bounds for auto-sizing.  The floor keeps sparse phases from
#: thrashing between tiny windows; the ceiling bounds the per-rotation
#: empty-slot scan (the only super-constant cost in the core).
MIN_WIDTH = 64
MAX_WIDTH = 8192


class CalendarSimulator(Simulator):
    """Drop-in :class:`Simulator` with a calendar queue under the hood.

    See the module docstring for the design; see
    ``benchmarks/test_kernel_hotpath.py`` (calendar section) for the
    dispatch-throughput guard against the heap core.
    """

    def __init__(self, width: int = 1024) -> None:
        super().__init__()
        if width < MIN_WIDTH or width & (width - 1):
            raise SimulationError(
                f"calendar width must be a power of two >= {MIN_WIDTH}, "
                f"got {width}")
        self._width: int = width
        self._buckets: List[List[Event]] = [[] for _ in range(width)]
        self._base: int = 0                    # window start
        self._horizon: int = width             # base + width, cached
        self._overflow: List[Tuple[int, int, Event]] = []
        self._lane: deque = deque()            # current-cycle events
        self._count: int = 0                   # queued events incl. cancelled
        self._wheel_count: int = 0             # events in buckets
        self._free: List[Event] = []           # fired events, ready for reuse
        # -- queue health (surfaced by repro profile / telemetry) ----------
        self.c_lane_scheduled: int = 0         # zero-delay fast-lane entries
        self.c_wheel_scheduled: int = 0        # in-window bucket entries
        self.c_overflow_scheduled: int = 0     # beyond-window heap entries
        self.c_overflow_promotions: int = 0    # overflow -> wheel moves
        self.c_free_hits: int = 0              # Event objects recycled
        self.c_allocations: int = 0            # Event objects allocated
        self.c_resizes: int = 0                # width auto-sizing events
        # Schedule-mix marks at the last rotation (auto-sizing inputs).
        self._mark_wheel: int = 0
        self._mark_overflow: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, when: int, callback: Callable[[], None],
                 label: str = "") -> Event:
        """Schedule ``callback`` at absolute cycle ``when`` (O(1) unless
        ``when`` lies beyond the current window)."""
        now = self.now
        if when < now:
            raise SimulationError(
                f"cannot schedule event '{label}' at {when}, now is {now}"
            )
        when = int(when)
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.when = when
            event.seq = seq
            event.callback = callback
            event.label = label
            event.cancelled = False
            self.c_free_hits += 1
        else:
            event = Event(when, seq, callback, label)
            self.c_allocations += 1
        if when < self._horizon:
            if when > now:
                self._buckets[when % self._width].append(event)
                self._wheel_count += 1
                self.c_wheel_scheduled += 1
            else:
                self._lane.append(event)
                self.c_lane_scheduled += 1
        else:
            heappush(self._overflow, (when, seq, event))
            self.c_overflow_scheduled += 1
        count = self._count + 1
        self._count = count
        if count > self.peak_pending:
            self.peak_pending = count
        return event

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return self._count

    # ------------------------------------------------------------------
    # Window machinery
    # ------------------------------------------------------------------
    def _peek_cycle(self) -> Optional[int]:
        """Next populated cycle after ``now`` (None = queue empty).

        Does not mutate: rotation/promotion is the caller's job, *after*
        the limit check — otherwise a limit cut-off could strand the
        window ahead of the clock and alias bucket slots.
        """
        if self._wheel_count:
            buckets = self._buckets
            width = self._width
            horizon = self._horizon
            # The clock can lag the window base across a cancelled-only
            # cycle (now advances on dispatch only); the wheel never holds
            # events below base, and slots below it alias in-window
            # cycles, so the scan starts at the later of the two.
            t = self.now + 1
            if t < self._base:
                t = self._base
            while t < horizon:
                if buckets[t % width]:
                    return t
                t += 1
            raise SimulationError("calendar wheel lost events")
        if self._overflow:
            return self._overflow[0][0]
        return None

    def _rotate(self, t: int) -> None:
        """Recentre the (empty) wheel window on ``t``; promote overflow.

        Reached only from the advance path with ``_wheel_count == 0``:
        every queued event sits in the overflow tier and the earliest is
        at cycle ``t``.  Also the auto-sizing point — between cycles,
        wheel empty, so a width change is pure re-layout.
        """
        width = self._width
        into_wheel = self.c_wheel_scheduled - self._mark_wheel
        into_overflow = self.c_overflow_scheduled - self._mark_overflow
        if (into_overflow > into_wheel and into_overflow >= (width >> 4)
                and width < MAX_WIDTH):
            # The closing window detoured most events through the heap:
            # the observed inter-event gaps outgrew the window.  The
            # volume floor (same threshold the shrink rule uses, making
            # the two mutually exclusive) keeps a sparse far-future
            # trickle — one timer per window — from growing the wheel it
            # never uses and then oscillating against the shrink rule.
            width = self._width = width * 2
            self._buckets = [[] for _ in range(width)]
            self.c_resizes += 1
        elif into_wheel + into_overflow < (width >> 4) and width > MIN_WIDTH:
            # Nearly idle window: shrink so the empty-slot scan between
            # sparse events stays short.
            width = self._width = width >> 1
            self._buckets = [[] for _ in range(width)]
            self.c_resizes += 1
        self._mark_wheel = self.c_wheel_scheduled
        self._mark_overflow = self.c_overflow_scheduled
        self._base = t
        horizon = self._horizon = t + width
        overflow = self._overflow
        buckets = self._buckets
        promoted = 0
        while overflow and overflow[0][0] < horizon:
            when, _, event = heappop(overflow)
            buckets[when % width].append(event)
            promoted += 1
        self._wheel_count += promoted
        self.c_overflow_promotions += promoted

    def _reset_window(self) -> None:
        """Re-anchor an *empty* wheel window at the clock.

        Called when the queue fully drains.  The clock only advances on
        dispatch (heap parity: cancelled-only cycles leave ``now``
        untouched), so draining a cancelled tail can leave the window base
        ahead of ``now``; re-anchoring restores the ``base <= now``
        invariant that keeps bucket indexing alias-free for whatever gets
        scheduled next.
        """
        self._base = self.now
        self._horizon = self.now + self._width

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, limit: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Dispatch events until the queue drains, ``limit`` cycles pass,
        ``max_events`` events fire, or :meth:`stop` is called.

        Returns the cycle at which the run loop stopped.  Semantics match
        :meth:`Simulator.run` exactly (same stop conditions, same
        fast-forward rule, same backwards-time guard).
        """
        if self.tracer is not None:
            return self._run_traced(limit, max_events)
        self._stopped = False
        self._stop_reason = None
        dispatched_here = 0
        lane = self._lane
        lane_popleft = lane.popleft
        free_append = self._free.append
        refcount = getrefcount
        buckets = self._buckets
        try:
            while not self._stopped:
                if lane:
                    if limit is not None and self.now > limit:
                        self.now = limit
                        break
                    # Drain the current cycle.  Bucket events entered in
                    # seq order; zero-delay schedules append behind them,
                    # so popping left-to-right is exactly heap order.  The
                    # clock advances per dispatch (not per bucket move) so
                    # a cycle whose events were all cancelled leaves ``now``
                    # untouched — heap-kernel parity.
                    hit_max = False
                    while lane:
                        event = lane_popleft()
                        self._count -= 1
                        if event.cancelled:
                            continue
                        self.now = event.when
                        event.callback()
                        if refcount(event) == 2:
                            free_append(event)
                        dispatched_here += 1
                        if (max_events is not None
                                and dispatched_here >= max_events):
                            self._stop_reason = "max_events"
                            hit_max = True
                            break
                        if self._stopped:
                            break
                    if hit_max:
                        break
                    continue
                t = self._peek_cycle()
                if t is None:
                    self._reset_window()
                    break
                if limit is not None and t > limit:
                    self.now = limit
                    break
                if t < self.now:
                    raise SimulationError("event queue went backwards in time")
                if not self._wheel_count:
                    self._rotate(t)
                    buckets = self._buckets  # _rotate may have resized
                idx = t % self._width
                bucket = buckets[idx]
                if bucket:
                    self._wheel_count -= len(bucket)
                    lane.extend(bucket)
                    # Reuse the emptied list (and drop its event refs so
                    # the recycling refcount probe can see sole owners).
                    bucket.clear()
        finally:
            self._events_dispatched += dispatched_here
        if (limit is not None and not self._count and not self._stopped
                and self.now < limit):
            self.now = limit
        return self.now

    def _run_traced(self, limit: Optional[int],
                    max_events: Optional[int]) -> int:
        """The :meth:`run` loop with per-dispatch label timing (kept
        structurally parallel — same stop conditions, same order)."""
        record = self.tracer.record
        self._stopped = False
        self._stop_reason = None
        dispatched_here = 0
        lane = self._lane
        free_append = self._free.append
        while not self._stopped:
            if lane:
                if limit is not None and self.now > limit:
                    self.now = limit
                    break
                hit_max = False
                while lane:
                    event = lane.popleft()
                    self._count -= 1
                    if event.cancelled:
                        continue
                    self.now = event.when
                    started = perf_counter()
                    event.callback()
                    record(event.label, perf_counter() - started)
                    if getrefcount(event) == 2:
                        free_append(event)
                    self._events_dispatched += 1
                    dispatched_here += 1
                    if (max_events is not None
                            and dispatched_here >= max_events):
                        self._stop_reason = "max_events"
                        hit_max = True
                        break
                    if self._stopped:
                        break
                if hit_max:
                    break
                continue
            t = self._peek_cycle()
            if t is None:
                self._reset_window()
                break
            if limit is not None and t > limit:
                self.now = limit
                break
            if t < self.now:
                raise SimulationError("event queue went backwards in time")
            if not self._wheel_count:
                self._rotate(t)
            idx = t % self._width
            bucket = self._buckets[idx]
            if bucket:
                self._wheel_count -= len(bucket)
                lane.extend(bucket)
                bucket.clear()
        if (limit is not None and not self._count and not self._stopped
                and self.now < limit):
            self.now = limit
        return self.now

    def step(self) -> bool:
        """Dispatch exactly one (non-cancelled) event.  Returns False when
        the queue is empty.  Backwards-time guard and tracer timing apply,
        matching :meth:`Simulator.step`."""
        lane = self._lane
        while True:
            while lane:
                event = lane.popleft()
                self._count -= 1
                if event.cancelled:
                    continue
                if event.when < self.now:
                    raise SimulationError("event queue went backwards in time")
                self.now = event.when
                if self.tracer is not None:
                    started = perf_counter()
                    event.callback()
                    self.tracer.record(event.label, perf_counter() - started)
                else:
                    event.callback()
                if getrefcount(event) == 2:
                    self._free.append(event)
                self._events_dispatched += 1
                return True
            t = self._peek_cycle()
            if t is None:
                self._reset_window()
                return False
            if t < self.now:
                raise SimulationError("event queue went backwards in time")
            if not self._wheel_count:
                self._rotate(t)
            idx = t % self._width
            bucket = self._buckets[idx]
            if bucket:
                self._wheel_count -= len(bucket)
                lane.extend(bucket)
                bucket.clear()

    # ------------------------------------------------------------------
    # Bulk cancellation
    # ------------------------------------------------------------------
    def drain_matching(self, predicate: Callable[[Event], bool]) -> int:
        """Cancel every queued event matching ``predicate``; compact the
        structures when more than half the queue is dead afterwards
        (same hygiene rule as the heap kernel)."""
        cancelled = 0
        dead = 0
        for event in self._lane:
            if event.cancelled:
                dead += 1
            elif predicate(event):
                event.cancel()
                cancelled += 1
        for bucket in self._buckets:
            for event in bucket:
                if event.cancelled:
                    dead += 1
                elif predicate(event):
                    event.cancel()
                    cancelled += 1
        for _, _, event in self._overflow:
            if event.cancelled:
                dead += 1
            elif predicate(event):
                event.cancel()
                cancelled += 1
        if (cancelled + dead) * 2 > self._count:
            self._compact()
        return cancelled

    def _compact(self) -> None:
        """Drop cancelled events from every tier (not recycled: their
        holders may still cancel them again)."""
        live_lane = [e for e in self._lane if not e.cancelled]
        self._lane.clear()
        self._lane.extend(live_lane)
        buckets = self._buckets
        wheel = 0
        for idx, bucket in enumerate(buckets):
            if bucket:
                live = [e for e in bucket if not e.cancelled]
                buckets[idx] = live
                wheel += len(live)
        self._wheel_count = wheel
        live_overflow = [entry for entry in self._overflow
                         if not entry[2].cancelled]
        heapify(live_overflow)
        self._overflow = live_overflow
        self._count = len(live_lane) + wheel + len(live_overflow)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_health(self) -> dict:
        """Queue-health snapshot for ``repro profile`` and telemetry."""
        recycled = self.c_free_hits
        created = self.c_allocations
        issued = recycled + created
        return {
            "core": "calendar",
            "width": self._width,
            "wheel_events": self._wheel_count,
            "overflow_events": len(self._overflow),
            "lane_events": len(self._lane),
            "mean_bucket_occupancy": self._wheel_count / self._width,
            "lane_scheduled": self.c_lane_scheduled,
            "wheel_scheduled": self.c_wheel_scheduled,
            "overflow_scheduled": self.c_overflow_scheduled,
            "overflow_promotions": self.c_overflow_promotions,
            "resizes": self.c_resizes,
            "free_list_hits": recycled,
            "allocations": created,
            "free_list_hit_rate": recycled / issued if issued else 0.0,
            "peak_pending": self.peak_pending,
        }

