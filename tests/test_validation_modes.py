"""Event-driven validation replays its committed polled-mode oracle.

Sign-off is recomputed only when a clock edge, a pre-edge transaction
completion, or a detection-latency window close can change it.  Until the
historical poll loop was removed, this suite ran both schedules with one
announce policy and held them bit-identical across seeds, machine
shapes, fault scenarios, and nonzero detection latency.  A poll that
ever caught readiness the triggers missed would have made them diverge.
``tests/data/mode_golden.json`` keeps those runs; each cell here must
replay them exactly.
"""

import pytest

from golden import assert_replays, load_mode_records

CELLS = load_mode_records("validation")


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_modes_bit_identical(cell):
    fresh = assert_replays(CELLS[cell])
    if cell.startswith("transient"):
        # The scenario must actually exercise recovery to mean anything.
        assert fresh["result"]["recoveries"] > 0, \
            "transient scenario caused no recovery"


@pytest.mark.parametrize("shape", ["2x2", "2x3"])
def test_detection_latency_still_delays_validation(shape):
    """Nonzero detection latency holds the recovery point back: fewer
    RPCN advances than the same run without it, on every node."""
    detection = assert_replays(CELLS[f"detection-{shape}-1"])["counters"]
    clean = assert_replays(CELLS[f"clean-{shape}-1"])["counters"]
    updates = [k for k in clean if k.endswith(".validation.rpcn_updates")]
    assert updates
    for key in updates:
        assert detection[key] <= clean[key]
    assert sum(detection[k] for k in updates) < sum(clean[k] for k in updates)
