"""Event-loop hot-path guards: heap floor and calendar-core differential.

Every simulated cycle of every component funnels through the kernel's
dispatch loop, so regressions here multiply across the whole
reproduction.  Two kinds of guard live here:

* **Heap floor** — the reference core keeps bare ``(when, seq, event)``
  tuples on the heap precisely so sifting compares machine integers;
  swapping the entries back to rich-compared objects costs ~25% of
  end-to-end simulator throughput, which the throughput floor catches.
  The floor is set ~4x below the throughput measured on a modest dev
  machine (~1M events/s) so that CI noise never trips it while a real
  hot-path regression still does.
* **Calendar differential** — the calendar core
  (:mod:`repro.sim.calendar`, which every machine runs on) must beat the
  heap core by >= 1.2x dispatch throughput on the *default apache
  profile stream*: the per-dispatch schedule pattern recorded from a
  real default-config apache machine run and replayed through both bare
  kernels, so the ratio measures exactly the queue substrate and nothing
  else.  The tri-mode test holds traced and untraced machine runs
  bit-identical to each other and to the committed golden run.
"""

from time import perf_counter

from repro.sim.calendar import CalendarSimulator
from repro.sim.kernel import Simulator
from repro.sim.profile import DispatchProfile

from benchmarks.conftest import record_bench, smoke_mode

SMOKE = smoke_mode()

# Dispatches per measured run; large enough to amortise setup noise.
# REPRO_BENCH_SMOKE=1 (the CI smoke step) shrinks the run and lowers the
# floor accordingly — short runs amortise interpreter warmup worse.
EVENTS = 20_000 if SMOKE else 200_000

# Conservative floor (events/second).  A genuine hot-path regression
# (e.g. per-comparison callbacks during heap sifting) costs well over
# the slack this leaves for slow CI hardware.
MIN_EVENTS_PER_SECOND = 60_000 if SMOKE else 150_000


def _self_scheduling_chain(n: int) -> Simulator:
    """A worst-case-ish queue: every dispatch schedules another event."""
    sim = Simulator()
    remaining = [n]

    def fire() -> None:
        remaining[0] -= 1
        if remaining[0]:
            sim.schedule_after(1, fire, "hotpath")

    sim.schedule(1, fire, "hotpath")
    return sim


def test_event_loop_throughput(benchmark):
    # Timed here rather than read from ``benchmark.stats``, which is None
    # under ``--benchmark-disable``.
    timings = []

    def run_chain():
        sim = _self_scheduling_chain(EVENTS)
        started = perf_counter()
        sim.run()
        timings.append(perf_counter() - started)
        assert sim.events_dispatched == EVENTS
        return sim

    benchmark(run_chain)
    seconds = min(timings)
    rate = EVENTS / seconds
    print(f"\nkernel event loop: {rate:,.0f} events/s "
          f"({seconds * 1e9 / EVENTS:.0f} ns/event)")
    assert rate > MIN_EVENTS_PER_SECOND, (
        f"event loop regressed to {rate:,.0f} events/s "
        f"(floor {MIN_EVENTS_PER_SECOND:,})"
    )


def test_no_tracer_pays_no_dispatch_overhead():
    """The tracer-off floor: with ``sim.tracer`` left None, the dispatch
    loop must not be slower than the traced loop (which times every
    callback) beyond measurement noise.  This is what keeps observability
    opt-in — a change that folds per-event tracing work into the common
    path (e.g. collapsing the dual run loops, or hoisting a tracer check
    into the pop) shows up here as the untraced time approaching the
    traced one."""
    events = EVENTS // 2
    best = {False: float("inf"), True: float("inf")}
    for _ in range(5):
        # Interleaved so machine-speed drift cannot bias the ratio.
        for traced in (False, True):
            sim = _self_scheduling_chain(events)
            if traced:
                sim.tracer = DispatchProfile()
            started = perf_counter()
            sim.run()
            elapsed = perf_counter() - started
            assert sim.events_dispatched == events
            best[traced] = min(best[traced], elapsed)
    print(f"\nuntraced {events / best[False]:,.0f} events/s vs "
          f"traced {events / best[True]:,.0f} events/s")
    # The traced loop does strictly more work (two clock reads and a
    # histogram update per dispatch), so 10% slack is generous: the
    # untraced path regressing to traced cost trips this long before.
    assert best[False] <= best[True] * 1.10, (
        f"tracer-off dispatch path lost its advantage: untraced "
        f"{best[False]:.4f}s vs traced {best[True]:.4f}s for {events:,} events"
    )


def test_dense_same_cycle_bursts(benchmark):
    """Many events at the same cycle (tie-broken by seq) — the pattern
    network fan-out produces; exercises heap behaviour under ties."""
    BURSTS, PER_BURST = 200, 100

    def run_bursts():
        sim = Simulator()
        fired = [0]

        def fire() -> None:
            fired[0] += 1

        for burst in range(BURSTS):
            for _ in range(PER_BURST):
                sim.schedule(burst * 10 + 5, fire, "burst")
        sim.run()
        assert fired[0] == BURSTS * PER_BURST
        return sim

    benchmark(run_bursts)


# ----------------------------------------------------------------------
# Calendar-core differential: the apache profile stream
# ----------------------------------------------------------------------

# The calendar core must beat the heap core by at least this much on the
# recorded apache stream.  Measured ~1.6-2x on a modest dev machine; 1.2x
# leaves CI noise plenty of room while still failing if the calendar
# path decays to heap cost (e.g. a change that sends the hot short-delay
# traffic through the overflow tier).
MIN_CALENDAR_SPEEDUP = 1.2

#: Replayed dispatches per measured run (the recorded stream is truncated
#: to this many dispatch slots).
STREAM_EVENTS = 8_000 if SMOKE else 120_000


def _record_apache_stream(max_dispatches: int):
    """The default apache profile stream: per-dispatch schedule delays
    recorded from a real default-config apache machine run.

    Entry ``i`` lists the ``when - now`` delays of every ``schedule``
    call the machine made while dispatching its ``i``-th kernel event, so
    a replay reproduces the machine's temporal pattern — the zero-delay
    bursts, the hop ladder, the sparse deadline sweeps — through a bare
    kernel with no component code in the loop.
    """
    from repro.config import SystemConfig
    from repro.system.machine import Machine
    from repro.workloads import apache

    config = SystemConfig.tiny()
    machine = Machine(
        config, apache(num_cpus=config.num_processors, scale=64, seed=1),
        seed=1)
    sim = machine.sim
    stream = [[] for _ in range(max_dispatches)]
    recorded = [0]
    orig_schedule = sim.schedule

    def recording_schedule(when, callback, label=""):
        slot = sim.events_dispatched
        if slot < max_dispatches:
            stream[slot].append(when - sim.now)
            recorded[0] += 1
        return orig_schedule(when, callback, label)

    sim.schedule = recording_schedule
    instructions = 2_000 if SMOKE else 80_000
    machine.run(instructions, max_cycles=30_000_000)
    # Trim trailing empty dispatch slots the run never reached.
    while stream and not stream[-1]:
        stream.pop()
    assert stream, "apache recording produced no schedule stream"
    return stream


def _replay_stream(kernel, stream) -> float:
    """Replay the recorded stream: each dispatched event performs the
    schedule calls the machine made during its dispatch slot.  Returns
    elapsed wall seconds; dispatch count and final clock are returned on
    the kernel itself for cross-core comparison."""
    index = [0]
    n = len(stream)

    def fire() -> None:
        i = index[0]
        index[0] = i + 1
        if i < n:
            for delay in stream[i]:
                kernel.schedule(kernel.now + delay, fire, "replay")

    for delay in stream[0]:
        kernel.schedule(kernel.now + delay, fire, "replay")
    started = perf_counter()
    kernel.run()
    return perf_counter() - started


def test_calendar_beats_heap_on_apache_stream():
    """The tentpole guard: >=1.2x dispatch throughput over the heap core
    on the recorded default-apache schedule stream, with bit-identical
    dispatch counts and final clocks."""
    stream = _record_apache_stream(STREAM_EVENTS)
    best = {"heap": float("inf"), "calendar": float("inf")}
    shape = {}
    for _ in range(3):
        # Interleaved so machine-speed drift cannot bias the ratio.
        for name, factory in (("heap", Simulator),
                              ("calendar", CalendarSimulator)):
            kernel = factory()
            elapsed = _replay_stream(kernel, stream)
            best[name] = min(best[name], elapsed)
            observed = (kernel.events_dispatched, kernel.now,
                        kernel.peak_pending)
            assert shape.setdefault(name, observed) == observed
    assert shape["heap"] == shape["calendar"], (
        f"cores diverged on the apache stream: heap={shape['heap']} "
        f"calendar={shape['calendar']}"
    )
    events = shape["calendar"][0]
    speedup = best["heap"] / best["calendar"]
    print(f"\napache stream ({events:,} dispatches): heap "
          f"{events / best['heap']:,.0f} events/s, calendar "
          f"{events / best['calendar']:,.0f} events/s ({speedup:.2f}x)")
    record_bench("kernel_apache_stream", speedup, events, best["calendar"])
    assert speedup >= MIN_CALENDAR_SPEEDUP, (
        f"calendar core only {speedup:.2f}x over heap on the apache "
        f"stream (floor {MIN_CALENDAR_SPEEDUP}x)"
    )


def test_kernel_tri_mode_machine_bit_identical():
    """Traced and untraced machine runs must be bit-identical: same
    RunResult, same counters, same dispatch count.  The traced mode
    matters because ``_run_traced`` is a separate loop — this is what
    keeps its semantics from drifting.  (The heap core, the third mode,
    is held to the calendar core by the fuzz battery in
    ``tests/test_calendar_kernel.py`` and by the machine runs it left in
    ``tests/data/mode_golden.json``.)"""
    from repro.config import SystemConfig
    from repro.system.machine import Machine
    from repro.workloads import apache

    instructions = 1_000 if SMOKE else 4_000

    def run_mode(traced: bool):
        config = SystemConfig.tiny()
        machine = Machine(
            config, apache(num_cpus=config.num_processors, scale=64, seed=1),
            seed=1)
        machine.inject_transient_faults(period=2_500, first_at=1_200)
        if traced:
            machine.sim.tracer = DispatchProfile()
        result = machine.run(instructions, max_cycles=30_000_000)
        counters = machine.stats.counters_matching("")
        return (result.cycles, result.committed_instructions,
                result.completed, result.crashed, result.recoveries,
                result.lost_instructions, result.reexecuted_instructions,
                machine.sim.events_dispatched, machine.sim.peak_pending,
                counters)

    assert run_mode(traced=False) == run_mode(traced=True), \
        "traced calendar loop diverged from untraced"
