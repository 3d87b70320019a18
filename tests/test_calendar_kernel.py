"""Calendar kernel core vs heap oracle: bit-identical, structurally sane.

The calendar core is the machine's event-queue *substrate* (per-cycle
buckets + overflow tier + zero-delay lane + event recycling, see
:mod:`repro.sim.calendar`) and must never change what the machine
computes relative to the reference heap core.  Three layers of evidence:

* a parametrised unit battery running both cores through every public
  semantic (dispatch order, limits, fast-forward, stop, max_events,
  step, cancellation, drain_matching);
* a randomised differential fuzz: both cores replay identical
  schedule/cancel/run/step/drain scripts and must produce identical
  observable traces, including with a tracer attached;
* a seeds x shapes x {clean, transient, switch_kill} machine sweep that
  replays ``tests/data/mode_golden.json`` exactly — runs captured while
  the machine could still run on either core and both agreed on every
  ``RunResult`` field, counter, and dispatch.

The dispatch-throughput claim lives in
``benchmarks/test_kernel_hotpath.py``; this file is the correctness
sweep.
"""

import random

import pytest

from golden import assert_replays, load_mode_records
from repro.config import SystemConfig
from repro.sim.calendar import (MAX_WIDTH, MIN_WIDTH, CalendarSimulator)
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.profile import DispatchProfile
from repro.system.machine import Machine
from repro.workloads import apache

CORES = [Simulator, lambda: CalendarSimulator(width=64), CalendarSimulator]
CORE_IDS = ["heap", "calendar_w64", "calendar_w1024"]


# ----------------------------------------------------------------------
# Unit battery: every public semantic, both cores
# ----------------------------------------------------------------------

@pytest.fixture(params=CORES, ids=CORE_IDS)
def sim(request):
    return request.param()


def test_dispatch_order_when_then_seq(sim):
    order = []
    sim.schedule(10, lambda: order.append("b"))
    sim.schedule(5, lambda: order.append("a"))
    sim.schedule(10, lambda: order.append("c"))
    sim.schedule(10_000, lambda: order.append("d"))  # overflow tier
    sim.run()
    assert order == ["a", "b", "c", "d"]
    assert sim.now == 10_000
    assert sim.events_dispatched == 4


def test_zero_delay_events_run_after_same_cycle_bucket_events(sim):
    order = []

    def first():
        order.append("first")
        # Zero-delay: must run THIS cycle, after already-queued same-cycle
        # events (they carry smaller seq).
        sim.schedule(sim.now, lambda: order.append("lane"))

    sim.schedule(7, first)
    sim.schedule(7, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "lane"]
    assert sim.now == 7


def test_zero_delay_chain_stays_on_cycle(sim):
    hops = []

    def hop():
        hops.append(sim.now)
        if len(hops) < 50:
            sim.schedule_after(0, hop)

    sim.schedule(3, hop)
    sim.run()
    assert hops == [3] * 50


def test_run_limit_cuts_before_next_event(sim):
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(20, lambda: fired.append(20))
    assert sim.run(limit=15) == 15
    assert fired == [10]
    assert sim.pending() == 1
    assert sim.run() == 20
    assert fired == [10, 20]


def test_run_fast_forwards_to_limit_when_queue_drains(sim):
    sim.schedule(5, lambda: None)
    assert sim.run(limit=1_000) == 1_000
    assert sim.now == 1_000


def test_no_fast_forward_after_stop(sim):
    sim.schedule(5, lambda: sim.stop("done"))
    assert sim.run(limit=1_000) == 5
    assert sim.stop_reason == "done"


def test_stop_halts_before_next_event(sim):
    fired = []
    sim.schedule(1, lambda: (fired.append(1), sim.stop("halt")))
    sim.schedule(1, lambda: fired.append(2))
    sim.schedule(2, lambda: fired.append(3))
    sim.run()
    assert fired == [1]
    assert sim.pending() == 2
    sim.run()
    assert fired == [1, 2, 3]


def test_max_events_sets_stop_reason_and_resumes(sim):
    fired = []
    for i in range(5):
        sim.schedule(i + 1, lambda i=i: fired.append(i))
    assert sim.run(max_events=2) == 2
    assert fired == [0, 1]
    assert sim.stop_reason == "max_events"
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_in_past_raises(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_after(-1, lambda: None)


def test_cancelled_events_skipped_but_counted_pending(sim):
    fired = []
    keep = sim.schedule(5, lambda: fired.append("keep"))
    drop = sim.schedule(5, lambda: fired.append("drop"))
    far = sim.schedule(50_000, lambda: fired.append("far"))
    drop.cancel()
    far.cancel()
    assert sim.pending() == 3  # cancelled entries stay queued (lazily)
    sim.run()
    assert fired == ["keep"]
    assert keep.when == 5
    assert sim.pending() == 0


def test_cancelled_tail_leaves_clock_at_last_dispatch(sim):
    """Heap parity corner: consuming a trailing cancelled-only cycle must
    not advance the clock (run without a limit has no fast-forward)."""
    sim.schedule(5, lambda: None)
    tail = sim.schedule(9_000, lambda: None)
    tail.cancel()
    assert sim.run() == 5
    assert sim.now == 5
    # The queue is fully drained; scheduling anywhere >= now still works.
    fired = []
    sim.schedule(6, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [6]


def test_step_matches_run_semantics(sim):
    order = []
    sim.schedule(4, lambda: order.append("a"))
    sim.schedule(4, lambda: order.append("b"))
    sim.schedule(9, lambda: order.append("c"))
    assert sim.step() and order == ["a"] and sim.now == 4
    assert sim.step() and order == ["a", "b"] and sim.now == 4
    assert sim.step() and order == ["a", "b", "c"] and sim.now == 9
    assert not sim.step()
    assert sim.now == 9


def test_step_skips_cancelled_without_advancing_clock(sim):
    sim.schedule(3, lambda: None)
    sim.run()
    sim.schedule(8, lambda: None).cancel()
    assert not sim.step()
    assert sim.now == 3


def test_peak_pending_high_water(sim):
    for i in range(10):
        sim.schedule(i + 1, lambda: None)
    assert sim.peak_pending == 10
    sim.run()
    assert sim.peak_pending == 10
    sim.schedule(sim.now + 1, lambda: None)
    sim.run()
    assert sim.peak_pending == 10  # never grew past the old mark


def test_drain_matching_cancels_and_reports(sim):
    fired = []
    for i in range(10):
        sim.schedule(i + 1, lambda i=i: fired.append(i), label=f"e{i}")
    assert sim.drain_matching(lambda e: e.label in ("e2", "e7")) == 2
    # Second drain finds nothing new (the dead ones are already dead).
    assert sim.drain_matching(lambda e: e.label in ("e2", "e7")) == 0
    sim.run()
    assert fired == [0, 1, 3, 4, 5, 6, 8, 9]


def test_drain_matching_compacts_majority_dead_queue(sim):
    for i in range(100):
        sim.schedule(i + 1, lambda: None, label="bulk")
    sim.schedule(200, lambda: None, label="keep")
    assert sim.drain_matching(lambda e: e.label == "bulk") == 100
    # >50% of the queue is dead: the structures must have been compacted.
    assert sim.pending() == 1
    sim.run()
    assert sim.now == 200


def test_pending_bounded_across_repeated_recovery_drains(sim):
    """The heap-hygiene regression: a fault-heavy pattern that drains
    in-flight work every 'recovery' must not grow ``pending()`` without
    bound just because a far-future deadline keeps cancelled tuples
    buried.  (Before compaction, the heap kernel's queue grew by ~every
    cancelled event across the whole run.)"""
    sim.schedule(10**9, lambda: None, label="watchdog")  # far-future anchor
    peak_between_recoveries = []
    for recovery in range(30):
        base = sim.now + 1
        for i in range(200):
            sim.schedule(base + i, lambda: None, label="inflight")
        sim.run(max_events=20)
        sim.drain_matching(lambda e: e.label == "inflight")
        peak_between_recoveries.append(sim.pending())
    # Bounded: each recovery leaves only the watchdog plus the current
    # epoch's survivors, never the accumulated cancelled history.
    assert max(peak_between_recoveries) <= 401, peak_between_recoveries


def test_tracer_times_every_dispatch(sim):
    tracer = DispatchProfile()
    sim.tracer = tracer
    sim.schedule(1, lambda: None, label="x")
    sim.schedule(1, lambda: None, label="x")
    sim.schedule(2, lambda: None, label="y")
    sim.schedule(2, lambda: None, label="y")
    sim.run()
    assert tracer.counts == {"x": 2, "y": 2}
    assert sim.events_dispatched == 4


# ----------------------------------------------------------------------
# Calendar-specific structure: recycling, auto-sizing, registry
# ----------------------------------------------------------------------

def test_fired_events_recycle_when_unreferenced():
    sim = CalendarSimulator()
    for i in range(50):
        sim.schedule(i + 1, lambda: None)  # handle dropped immediately
    sim.run()
    assert sim.c_allocations == 50
    for i in range(50):
        sim.schedule(sim.now + i + 1, lambda: None)
    sim.run()
    assert sim.c_free_hits == 50
    assert sim.c_allocations == 50  # second wave allocated nothing


def test_retained_events_never_recycled():
    """The refcount gate: a holder that keeps the handle (and might
    cancel it long after it fired — harmless against the heap core) must
    not see its object reissued to someone else."""
    sim = CalendarSimulator()
    fired = []
    held = sim.schedule(1, lambda: fired.append("held"))
    sim.run()
    assert fired == ["held"]
    assert sim.c_free_hits == 0
    other = sim.schedule(5, lambda: fired.append("other"))
    assert other is not held
    held.cancel()  # stale cancel on the fired, still-referenced event
    sim.run()
    assert fired == ["held", "other"]


def test_recycled_event_resets_cancelled_flag():
    sim = CalendarSimulator()
    fired = []

    def self_cancelling():
        # Ticker.stop()-during-own-callback pattern: the firing event is
        # cancelled from inside its callback, then recycled.
        event_holder[0].cancel()
        event_holder[0] = None  # drop the handle so it CAN recycle
        fired.append("first")

    event_holder = [None]
    event_holder[0] = sim.schedule(1, self_cancelling)
    sim.run()
    sim.schedule(2, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first", "second"]
    assert sim.c_free_hits == 1  # the reissue really was a recycle


def test_width_grows_when_overflow_dominates():
    sim = CalendarSimulator(width=64)
    peak_width = [64]

    def observe():
        peak_width[0] = max(peak_width[0], sim._width)

    def far_burst():
        for i in range(200):  # everything lands beyond the 64-wide window
            sim.schedule(sim.now + 100 + i, observe)

    sim.schedule(1, far_burst)
    sim.run()
    assert sim.c_resizes >= 1
    assert peak_width[0] > 64  # grew while the far traffic was in flight
    assert sim.c_overflow_promotions > 0


def test_width_shrinks_on_sparse_stream_and_respects_floor():
    sim = CalendarSimulator(width=1024)
    hops = [0]

    def sparse():
        hops[0] += 1
        if hops[0] < 200:
            sim.schedule(sim.now + 5_000, sparse)  # one event per window

    sim.schedule(1, sparse)
    sim.run()
    assert sim.c_resizes >= 1
    assert MIN_WIDTH <= sim._width < 1024


def test_width_never_exceeds_max():
    sim = CalendarSimulator(width=MAX_WIDTH)
    peak_width = [0]

    def observe():
        peak_width[0] = max(peak_width[0], sim._width)

    def flood():
        for i in range(MAX_WIDTH + 100):  # overflow-dominated at MAX
            sim.schedule(sim.now + MAX_WIDTH + i, observe)

    sim.schedule(1, flood)
    sim.run()
    assert peak_width[0] == MAX_WIDTH  # clamped: never grew past MAX


def test_width_must_be_power_of_two():
    with pytest.raises(SimulationError):
        CalendarSimulator(width=100)
    with pytest.raises(SimulationError):
        CalendarSimulator(width=MIN_WIDTH // 2)


def test_queue_health_reports_schedule_mix():
    sim = CalendarSimulator(width=64)
    sim.schedule(1, lambda: sim.schedule_after(0, lambda: None))  # lane
    sim.schedule(10, lambda: None)          # wheel
    sim.schedule(10_000, lambda: None)      # overflow
    sim.run()
    health = sim.queue_health()
    assert health["core"] == "calendar"
    assert health["lane_scheduled"] == 1
    assert health["wheel_scheduled"] == 2
    assert health["overflow_scheduled"] == 1
    assert health["overflow_promotions"] == 1
    assert health["peak_pending"] == sim.peak_pending
    assert 0.0 <= health["free_list_hit_rate"] <= 1.0


def test_machine_wires_core_from_config():
    config = SystemConfig.tiny()
    machine = Machine(config, apache(num_cpus=config.num_processors,
                                     scale=64, seed=1), seed=1)
    assert type(machine.sim) is CalendarSimulator


# ----------------------------------------------------------------------
# Differential fuzz: identical scripts, identical traces
# ----------------------------------------------------------------------

def _replay_script(sim, rng, n_ops: int):
    """Drive ``sim`` through a deterministic random script of schedules,
    cancels, runs, steps, and drains; return every observable."""
    trace = []
    events = []
    counter = [0]

    def make_cb(i, nest_roll, nest_delay):
        def cb():
            trace.append(("fire", i, sim.now))
            if nest_roll < 0.3:
                j = counter[0]
                counter[0] += 1
                events.append(sim.schedule_after(
                    nest_delay, make_cb(j, 1.0, 0), f"n{j}"))
            elif nest_roll > 0.98:
                sim.stop("script-stop")
        return cb

    for _ in range(n_ops):
        op = rng.random()
        if op < 0.55:
            delay = rng.choice([0, 1, 2, 5, 10, 100, 1024, 2048, 20_000])
            j = counter[0]
            counter[0] += 1
            events.append(sim.schedule_after(
                delay, make_cb(j, rng.random(),
                               rng.choice([0, 0, 1, 3, 50, 1_500, 9_000])),
                f"t{j}"))
        elif op < 0.65 and events:
            events[rng.randrange(len(events))].cancel()
        elif op < 0.75:
            limit = sim.now + rng.choice([0, 1, 3, 17, 900, 3_000])
            trace.append(("run", sim.run(limit=limit), sim.pending()))
        elif op < 0.80:
            trace.append(("runmax",
                          sim.run(limit=sim.now + 10_000,
                                  max_events=rng.randrange(1, 8)),
                          sim.stop_reason))
        elif op < 0.88:
            trace.append(("step", sim.step(), sim.now))
        elif op < 0.93:
            k = rng.randrange(3)
            trace.append(("drain",
                          sim.drain_matching(lambda e, k=k: e.seq % 3 == k)))
        else:
            trace.append(("runfull", sim.run(limit=sim.now + 50_000),
                          sim.pending(), sim.stop_reason))
    trace.append(("final", sim.run(limit=sim.now + 10**6),
                  sim.events_dispatched, sim.pending(), sim.peak_pending))
    return trace


@pytest.mark.parametrize("width", [64, 1024])
@pytest.mark.parametrize("seed", range(8))
def test_fuzz_traces_identical(seed, width):
    heap_trace = _replay_script(Simulator(), random.Random(seed), 150)
    cal_trace = _replay_script(CalendarSimulator(width=width),
                               random.Random(seed), 150)
    assert heap_trace == cal_trace


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_traces_identical_with_tracer(seed):
    def traced(sim):
        sim.tracer = DispatchProfile()
        trace = _replay_script(sim, random.Random(seed), 120)
        return trace, sim.tracer.counts

    assert traced(Simulator()) == traced(CalendarSimulator(width=64))


# ----------------------------------------------------------------------
# Machine equivalence: seeds x shapes x fault scenarios
# ----------------------------------------------------------------------

CELLS = load_mode_records("calendar")


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_modes_bit_identical(cell):
    assert_replays(CELLS[cell])
