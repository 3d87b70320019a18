"""Checkpoint-validation hot-path guard (event-driven sign-off).

The recovery-point advance (paper §2.4, §3.5) is a fuzzy barrier that is
*usually idle*: between checkpoint-clock edges nothing about a node's
sign-off can change unless a transaction spanning an edge completes.
Validation therefore recomputes readiness only on the events that can
change it (clock edges, pre-edge transaction completions,
detection-window closes, recovery), with a send-armed resync timer as
the dropped-coordination-message insurance.  The fixed-interval poll on
every node that this replaced was the dominant source of idle kernel
events on large machines.

* **throughput** — an idle protected machine (clock + validation running,
  cores parked) is pure lifecycle scheduling; it must dispatch exactly
  the committed event count (the poll loop took ~2.8x as many; any new
  periodic event shows up here, noise-free), and the dispatch rate is
  printed.
* **equivalence** — full default runs on the paper's 4x4 and the
  ROADMAP-scale 8x8 torus replay the golden runs the polled schedule
  also produced, bit for bit.

``REPRO_BENCH_SMOKE=1`` shrinks run lengths for the CI smoke step,
keeping the structural assertions intact.
"""

import time

from repro.config import SystemConfig
from repro.system.machine import Machine
from repro.workloads import by_name

from benchmarks.conftest import replay_bench_golden, run_once, smoke_mode

SMOKE = smoke_mode()

# Checkpoint intervals per timed idle run.
INTERVALS = 40 if SMOKE else 200
# Kernel dispatches of the idle lifecycle at INTERVALS intervals.
IDLE_LIFECYCLE_EVENTS = {40: 8_615, 200: 43_955}


def _machine() -> Machine:
    config = SystemConfig.sim_scaled(16)          # the default 4x4
    return Machine(
        config, by_name("apache", num_cpus=config.num_processors, scale=16,
                        seed=1),
        seed=1,
    )


def _idle_lifecycle() -> tuple:
    """Run only the checkpoint lifecycle: clock edges and sign-off
    coordination."""
    machine = _machine()
    machine.clock.start()
    for node in machine.nodes:
        node.validation.start()
    started = time.perf_counter()
    machine.sim.run(limit=INTERVALS * machine.config.checkpoint_interval)
    wall = time.perf_counter() - started
    # Validation must actually have been advancing the recovery point.
    assert machine.controllers.rpcn >= INTERVALS - 1
    return wall, machine.sim.events_dispatched


def test_validation_scheduling_throughput(benchmark):
    wall_s, events = run_once(_idle_lifecycle, benchmark)
    print(f"\nvalidation lifecycle ({INTERVALS} checkpoint intervals): "
          f"{wall_s:.3f}s, {events:,} kernel events "
          f"({events / wall_s:,.0f} events/s)")
    assert events == IDLE_LIFECYCLE_EVENTS[INTERVALS], (
        f"idle lifecycle dispatched {events:,} kernel events, expected "
        f"{IDLE_LIFECYCLE_EVENTS[INTERVALS]:,}: a lifecycle event was "
        f"added or lost")


def test_event_driven_results_bit_identical(benchmark):
    # The default 4x4 machine on two workloads plus the ROADMAP-scale
    # 8x8, where O(nodes) polling overhead grew fastest.
    cells = [f"4x4-apache-{1_000 if SMOKE else 4_000}",
             f"4x4-jbb-{1_000 if SMOKE else 4_000}",
             f"8x8-apache-{400 if SMOKE else 1_000}"]

    def experiment():
        return {cell: replay_bench_golden(cell) for cell in cells}

    results = run_once(experiment, benchmark)
    for cell, record in results.items():
        result = record["result"]
        assert result["completed"] and not result["crashed"], cell
        assert result["committed_instructions"] >= \
            result["target_instructions"]
