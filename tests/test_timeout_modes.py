"""Request timeouts: deadline-table detection replays its committed oracle.

Requestor timeouts live in a per-controller
:class:`~repro.sim.deadlines.DeadlineTable` swept by one re-arming kernel
event.  An armed deadline still runs its check at exactly
``issue + request_timeout``.  Until the per-request-event path was
removed, this suite held the two bit-identical across seeds, machine
shapes and fault scenarios, including runs where timeouts fire and
trigger recovery.  ``tests/data/mode_golden.json`` keeps those runs, and
each cell here must replay them exactly: RunResult, every counter, and
the kernel dispatch count.
"""

import pytest

from golden import assert_replays, load_mode_records
from repro.config import SystemConfig
from repro.system.machine import Machine
from repro.workloads import apache

CELLS = load_mode_records("timeout")

#: The first fault report of the tiny apache seed-1 transient run, as both
#: the deadline table and per-request timeout events produced it.
FIRST_DETECTION = "@5041: node3 request timeout: GETM 0xc00 txn=37"


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_modes_bit_identical(cell):
    fresh = assert_replays(CELLS[cell])
    if cell.startswith("transient"):
        # The scenario must exercise the machinery to mean anything: a
        # timeout fired (deadline sweep -> fault) and recovery happened.
        timeouts = sum(v for k, v in fresh["counters"].items()
                       if k.endswith(".cache.timeouts"))
        assert timeouts > 0, "transient scenario fired no timeout"
        assert fresh["result"]["recoveries"] > 0, \
            "transient scenario caused no recovery"


def test_timeouts_fire_at_identical_cycles():
    """The first detection lands on the cycle the per-request-event path
    detected it on (deadline semantics, not just end-of-run equality)."""
    config = SystemConfig.tiny()
    machine = Machine(config, apache(num_cpus=4, scale=64, seed=1), seed=1)
    machine.inject_transient_faults(period=2_500, first_at=1_200)
    machine.run(2_000, max_cycles=5_000_000)
    log = machine.recovery.stats.fault_log
    assert log, "no fault was ever reported"
    assert log[0] == FIRST_DETECTION


def test_home_timeout_optional_and_inert_when_clean():
    """``home_request_timeout`` arms home-side deadlines through the same
    table machinery; on a clean run it must never fire and must not
    perturb the run's results."""
    results = {}
    for bound in (None, 3_000):
        config = SystemConfig.tiny(home_request_timeout=bound)
        machine = Machine(config, apache(num_cpus=4, scale=64, seed=3), seed=3)
        result = machine.run(2_000, max_cycles=5_000_000)
        results[bound] = (
            result.cycles, result.committed_instructions,
            result.recoveries, result.crashed,
            machine.stats.counter("net.messages_sent").value,
        )
        assert machine.stats.sum_counters(".home.timeouts") == 0
    assert results[None] == results[3_000]
