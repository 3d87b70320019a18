"""CPU-side hot path guard (burst-local fast path + deadline-table timeouts).

Two coordinated layers — requestor timeouts armed in per-controller
deadline tables (one sweep event instead of one heap event per request)
and the burst-local fast path (``Core._burst_fast``: the cache hit path
inlined, counters flushed once per burst) — plus the profiling harness
that measures both:

* **throughput** — on a default 4x4 machine driving a *CPU-hot op
  stream* (a private, cache-resident footprint: after warmup it runs at
  ~100% hit rate, so the per-op cost is what's measured — the analogue of
  the network guard's bare hop stream) every core must take the fast
  path and the run must be deterministic; the instruction rate is
  printed.  End-to-end speed is gated by ``BENCHMARK.json``'s
  ``sim_kips``.
* **dispatch mix** — dead ``cache.timeout`` events were ~5-7% of all
  kernel dispatches on a busy run when every request armed its own
  event; the deadline-table machinery (sweep events) must stay <1% of
  dispatches.  Measured with :class:`repro.sim.profile.DispatchProfile`.
* **equivalence** — full default-4x4 apache/jbb runs replay the golden
  runs the per-op loop and per-request timeout events also produced.

``REPRO_BENCH_SMOKE=1`` shrinks run lengths for the CI smoke step,
keeping the structural assertions intact.
"""

import time

from repro.config import SystemConfig
from repro.sim.profile import DispatchProfile
from repro.system.machine import Machine
from repro.workloads import by_name
from repro.workloads.base import SyntheticWorkload, WorkloadSpec

from benchmarks.conftest import replay_bench_golden, run_once, smoke_mode

SMOKE = smoke_mode()

# The CPU-hot stream: purely private accesses over a footprint every
# block of which is hot, so after warmup the whole measured phase is
# store-upgraded, cache-resident hits — the burst loop's best case.
CPU_HOT = WorkloadSpec(name="cpu_hot", shared_frac=0.0, private_blocks=64,
                       private_hot_blocks=64, store_hot_blocks=64,
                       ro_shared_blocks=8, rw_shared_blocks=8,
                       migratory_blocks=4)
HOT_WARMUP = 2_000 if SMOKE else 5_000
HOT_INSTRUCTIONS = 6_000 if SMOKE else 40_000
# Dispatch-mix claim: the deadline-table sweeps' share of dispatches.
MAX_LAZY_TIMEOUT_FRAC = 0.01
# Best-of-N wall time for the printed rate; every repeat must agree.
TIMING_REPEATS = 3

EQUIV_INSTRUCTIONS = 1_000 if SMOKE else 4_000


def _hot_run():
    machine = Machine(SystemConfig.sim_scaled(16),
                      SyntheticWorkload(CPU_HOT, 16, seed=1), seed=1)
    assert all(node.core._fast_path for node in machine.nodes)
    started = time.perf_counter()
    result = machine.run_with_warmup(HOT_WARMUP, HOT_INSTRUCTIONS,
                                     max_cycles=120_000_000)
    elapsed = time.perf_counter() - started
    key = (result.cycles, result.committed_instructions, result.recoveries,
           result.completed, result.crashed,
           machine.stats.sum_counters(".cache.loads"),
           machine.stats.sum_counters(".cache.stores"),
           machine.stats.sum_counters(".cache.misses"),
           machine.stats.sum_counters(".core.instructions_executed"),
           machine.sim.events_dispatched)
    return key, elapsed


def _best_hot():
    """Best-of-N wall time; every repeat must produce the same run."""
    best = float("inf")
    keys = set()
    for _ in range(TIMING_REPEATS):
        key, elapsed = _hot_run()
        best = min(best, elapsed)
        keys.add(key)
    assert len(keys) == 1, f"CPU-hot runs diverged across repeats: {keys}"
    return keys.pop(), best


def test_cpu_hot_stream_throughput(benchmark):
    key, wall_s = run_once(_best_hot, benchmark)
    cycles, committed, recoveries, completed, crashed = key[:5]
    print(f"\ncpu-hot stream ({HOT_INSTRUCTIONS} instr/cpu, warm "
          f"{HOT_WARMUP}): {wall_s:.3f}s, {key[-1]:,} kernel events, "
          f"{committed / wall_s / 1e3:,.0f} kinstr/s")
    assert completed and not crashed


def test_default_runs_bit_identical_and_not_slower(benchmark):
    """Default apache/jbb runs replay their golden runs exactly.  (The
    speed half of this guard compared against the removed per-op and
    per-request-event paths; ``BENCHMARK.json``'s ``sim_kips`` now gates
    end-to-end speed.)"""
    def experiment():
        return {workload: replay_bench_golden(
                    f"4x4-{workload}-{EQUIV_INSTRUCTIONS}")
                for workload in ("apache", "jbb")}

    results = run_once(experiment, benchmark)
    for workload, record in results.items():
        result = record["result"]
        assert result["completed"] and not result["crashed"], workload
        assert result["committed_instructions"] >= EQUIV_INSTRUCTIONS * 16


def _timeout_fraction() -> float:
    """Share of kernel dispatches spent on timeout machinery."""
    config = SystemConfig.sim_scaled(16)
    machine = Machine(
        config, by_name("jbb", num_cpus=16, scale=16, seed=1), seed=1)
    profile = DispatchProfile()
    machine.sim.tracer = profile
    machine.run(EQUIV_INSTRUCTIONS, max_cycles=10_000_000)
    return profile.dispatch_fraction("cache.timeout_sweep")


def test_timeout_dispatch_fraction_collapses(benchmark):
    frac = run_once(_timeout_fraction, benchmark)
    print(f"\ntimeout dispatch fraction: {frac:.2%}")
    assert frac < MAX_LAZY_TIMEOUT_FRAC, (
        f"timeout machinery is {frac:.2%} of dispatches "
        f"(claimed <{MAX_LAZY_TIMEOUT_FRAC:.0%})")
