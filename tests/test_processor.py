"""Unit tests for the in-order core (with a stub cache)."""

from typing import Dict, List, Optional, Tuple

import pytest

from repro.config import SystemConfig
from repro.processor.core import Core
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.workloads import RandomTester, apache


class StubCache:
    """Always-hit cache with scriptable misses/throttles."""

    def __init__(self, sim: Simulator, miss_addrs=(), miss_latency: int = 50,
                 throttle_once_at: Optional[int] = None) -> None:
        self.sim = sim
        self.miss_addrs = set(miss_addrs)
        self.miss_latency = miss_latency
        self.throttle_once_at = throttle_once_at
        self.values: Dict[int, int] = {}
        self.accesses: List[Tuple[int, bool]] = []

    def fast_access(self, addr, is_store, value):
        self.accesses.append((addr, is_store))
        if self.throttle_once_at is not None and len(self.accesses) == self.throttle_once_at:
            self.throttle_once_at = None
            return ("throttle", 100)
        if addr in self.miss_addrs:
            return ("miss", 0)
        if is_store:
            self.values[addr] = value
        return ("hit", 0)

    def start_miss(self, addr, is_store, value, done):
        if is_store:
            self.values[addr] = value
        self.miss_addrs.discard(addr)
        self.sim.schedule_after(self.miss_latency, done)

    def load_value(self, addr):
        return self.values.get(addr)


def make_core(sim, workload=None, cache=None, **cfg_kw):
    cfg = SystemConfig.tiny(**cfg_kw)
    workload = workload or apache(num_cpus=4, scale=64, seed=3)
    cache = cache or StubCache(sim)
    stats = StatsRegistry()
    core = Core(sim, 0, cfg, cache, workload, stats)
    return core, cache, stats


def test_core_executes_to_target():
    sim = Simulator()
    core, cache, stats = make_core(sim)
    core.start(5_000)
    sim.run(limit=1_000_000)
    assert core.done
    assert core.position >= 5_000
    assert stats.counter("node0.core.instructions_executed").value == core.position


def test_runtime_reflects_one_ipc_plus_memory():
    sim = Simulator()
    core, cache, stats = make_core(sim)
    finish_time = []
    core.on_target_reached = lambda nid: finish_time.append(sim.now)
    core.start(3_000)
    sim.run()  # no limit: `now` ends at the last event, not a fast-forward
    # All hits, no stalls: runtime == instruction count (1 IPC).
    assert finish_time and finish_time[0] == pytest.approx(core.position, rel=0.02)


def test_misses_block_and_add_latency():
    sim = Simulator()
    wl = RandomTester(num_cpus=1, seed=1, blocks=4)
    addrs = {wl.op(0, i).addr for i in range(64)}
    cache = StubCache(sim, miss_addrs=addrs, miss_latency=200)
    core, _, _ = make_core(sim, workload=wl, cache=cache)
    core.start(200)
    sim.run(limit=1_000_000)
    assert core.done
    assert sim.now > 200 + 4 * 180  # at least the four cold misses


def test_throttle_retries_same_op():
    sim = Simulator()
    wl = RandomTester(num_cpus=1, seed=2, blocks=4)
    cache = StubCache(sim, throttle_once_at=5)
    core, _, stats = make_core(sim, workload=wl, cache=cache)
    core.start(100)
    sim.run(limit=100_000)
    assert core.done
    assert stats.counter("node0.core.clb_throttle_cycles").value == 100
    # The throttled access was retried, not skipped.
    throttled_addr = cache.accesses[4][0]
    assert cache.accesses[5][0] == throttled_addr


def test_edge_snapshots_and_checkpoint_stall():
    sim = Simulator()
    core, cache, stats = make_core(sim)
    core.start(10_000)
    sim.run(limit=2_000)
    core.on_edge(2)
    assert 2 in core.snapshots
    pos_at_edge, regs_at_edge = core.snapshots[2]
    assert pos_at_edge <= core.position
    sim.run(limit=20_000)
    assert stats.counter("node0.core.register_ckpt_stall_cycles").value == 100


def test_recover_to_restores_position_and_registers():
    sim = Simulator()
    core, cache, stats = make_core(sim)
    core.start(50_000)
    sim.run(limit=3_000)
    core.on_edge(2)
    snap_pos, snap_regs = core.snapshots[2]
    sim.run(limit=9_000)
    assert core.position > snap_pos
    core.freeze()
    lost = core.recover_to(2)
    assert lost == core.c_reexecuted.value
    assert core.position == snap_pos
    assert tuple(core.registers) == snap_regs
    core.resume()
    sim.run(limit=200_000)
    assert core.done


def test_reexecution_replays_identical_op_stream():
    sim = Simulator()
    wl = apache(num_cpus=4, scale=64, seed=9)
    cache = StubCache(sim)
    core, _, _ = make_core(sim, workload=wl, cache=cache)
    core.start(2_000)
    sim.run(limit=1_500)
    core.on_edge(2)
    snap_pos, _ = core.snapshots[2]
    sim.run(limit=3_500)
    first_run = list(cache.accesses)
    core.freeze()
    core.recover_to(2)
    cache.accesses.clear()
    core.resume()
    sim.run(limit=1_000_000)
    assert core.done
    # The replayed prefix (ops after the snapshot) matches the original
    # execution exactly: pure positional generation.
    replay_of_lost = cache.accesses
    original_tail = [a for a in first_run][-len(replay_of_lost):]
    overlap = min(len(replay_of_lost), len(first_run))
    # Find where the snapshot position sits in the first run's op sequence.
    assert replay_of_lost[: overlap][0] in first_run


def test_outstanding_checkpoint_throttle():
    sim = Simulator()
    core, cache, stats = make_core(sim)
    core.start(10**9)
    sim.run(limit=1_000)
    # Push CCN far ahead of the recovery point: the core must stall.
    for ccn in range(2, 8):
        core.on_edge(ccn)
    assert core.throttled
    pos = core.position
    sim.run(limit=50_000)
    assert core.position == pos  # no forward progress while throttled
    core.on_rpcn(4)  # 7 - 4 <= 4 outstanding: resume
    assert not core.throttled
    sim.run(limit=60_000)
    assert core.position > pos


def test_rpcn_advance_frees_old_snapshots():
    sim = Simulator()
    core, _, _ = make_core(sim)
    for ccn in range(2, 6):
        core.on_edge(ccn)
    core.on_rpcn(4)
    assert sorted(core.snapshots) == [4, 5]


def test_done_core_stays_idle():
    sim = Simulator()
    core, cache, _ = make_core(sim)
    core.start(100)
    sim.run(limit=10_000)
    assert core.done
    n = len(cache.accesses)
    sim.run(limit=50_000)
    assert len(cache.accesses) == n


def test_per_op_burst_loop_matches_fast_path():
    """The per-op loop (``_burst_slow``, used with I/O hooks and stub
    caches) and the inlined fast loop produce the same machine run:
    RunResult, every counter and every kernel dispatch — through stores,
    CLB logging and recovery."""
    from repro.system.machine import Machine
    from repro.workloads import jbb

    def run(fast: bool):
        config = SystemConfig.tiny()
        machine = Machine(config, jbb(num_cpus=4, scale=64, seed=2), seed=2)
        machine.inject_transient_faults(period=2_500, first_at=1_200)
        for node in machine.nodes:
            assert node.core._fast_path
            node.core._fast_path = fast
        result = machine.run(2_000, max_cycles=5_000_000)
        return result, machine.stats.snapshot(), machine.sim.events_dispatched

    fast, per_op = run(True), run(False)
    assert fast[0].recoveries > 0
    assert fast == per_op
