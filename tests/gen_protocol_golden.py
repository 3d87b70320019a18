"""Regenerate the golden baselines in ``tests/data``.

The acceptance bar for every simulator refactor is *bit identity*: a run
must produce exactly the RunResult fields, every registered counter, and
the kernel dispatch count that the reference code produced.  Those
baselines cannot be recomputed once the reference code is gone, so they
are captured here as data (see ``tests/golden.py``) and replayed forever
after:

* ``GOLDEN_SPECS`` -> ``protocol_golden.json``, replayed by
  ``tests/test_protocols.py``.  The first 13 records were captured on the
  last commit before pluggable protocols; the rest widen the matrix to
  every fault kind, an 8x8 machine, detection latency, the tiny preset's
  request timeouts, mesi/moesi through recovery, and the wrr/priority
  arbiters.
* ``MODE_CELLS`` -> ``mode_golden.json``, the machine-level cells of the
  mode-equivalence suites (``tests/test_timeout_modes.py``,
  ``test_validation_modes.py``, ``test_express_hops.py``,
  ``test_calendar_kernel.py``) and of the hot-path benchmarks'
  equivalence guards, captured while each still proved its alternative
  machine path bit-identical to the default one.
* ``ROUTE_SHAPES`` / ``ROUTE_KILL_SHAPES`` -> ``route_golden.json``, the
  all-pairs routing tables (display form, one digest per case) of every
  listed shape and of every single half-switch kill on the kill shapes,
  captured from the networkx-based ``RoutingTable``.

Re-run only to *extend* the matrix (new shapes/faults/seeds), never to
"refresh" baselines after a divergence — that would turn the oracle into
a mirror.  Existing records must come out byte-identical.

    PYTHONPATH=src python tests/gen_protocol_golden.py
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Iterator, Optional, Tuple

from golden import (
    MODE_GOLDEN_PATH,
    PROTOCOL_GOLDEN_PATH,
    ROUTE_GOLDEN_PATH,
    compact,
    route_case,
    run_golden,
)
from repro.experiments import RunSpec
from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import HalfSwitchId, TorusTopology

#: The equivalence matrix: seeds x shapes x fault modes, sized so the
#: whole golden sweep replays in well under a minute.
GOLDEN_SPECS = [
    RunSpec(workload=workload, instructions=2_000, warmup=0, seed=seed,
            scale=64, torus_width=w, torus_height=h,
            fault=fault, fault_period=period, fault_at=fault_at)
    for workload in ("apache",)
    for (w, h) in ((2, 2), (4, 4))
    for seed in (1, 2)
    for (fault, period, fault_at) in (
        ("none", None, None),
        ("transient", 2_500, 1_200),
        ("switch", None, 1_500),
    )
] + [
    # One jbb cell: a second workload's sharing mix on the default shape.
    RunSpec(workload="jbb", instructions=2_000, warmup=0, seed=1, scale=64,
            torus_width=2, torus_height=2),
] + [
    # Detected-message faults (CRC checker at the endpoints).  Fault
    # rates in the added cells leave room for the run to complete.
    RunSpec(workload="apache", instructions=2_000, seed=1, scale=64,
            torus_width=2, torus_height=2, fault=fault, fault_period=8_000,
            fault_at=3_000)
    for fault in ("corrupt", "misroute")
] + [
    # One 8x8 machine: diameter-8 routes, 64-node validation.
    RunSpec(workload="apache", instructions=600, seed=1, scale=64,
            torus_width=8, torus_height=8),
    # Detection latency holds validation back behind the fault window.
    RunSpec(workload="apache", instructions=2_000, seed=1, scale=64,
            torus_width=2, torus_height=2, fault="transient",
            fault_period=8_000, fault_at=3_000, detection_latency=6_250),
    # Request timeouts firing on the tiny preset's short timeout.
    RunSpec(workload="apache", instructions=2_000, seed=1, scale=64,
            preset="tiny", torus_width=2, torus_height=3, fault="transient",
            fault_period=2_500, fault_at=1_200),
] + [
    # Non-default protocols through recovery.
    RunSpec(workload="apache", instructions=2_000, seed=1, scale=64,
            torus_width=2, torus_height=2, protocol=protocol,
            fault="transient", fault_period=8_000, fault_at=3_000)
    for protocol in ("mesi", "moesi")
] + [
    # Non-default arbiters, on a shape with enough contention to matter.
    RunSpec(workload="apache", instructions=1_500, seed=2, scale=64,
            torus_width=4, torus_height=4, arbiter=arbiter)
    for arbiter in ("wrr", "priority")
]


def _mode_spec(shape, seed: int, scenario: str, instructions: int,
               alternate_jbb: bool) -> RunSpec:
    """A mode-suite cell: the tiny preset reshaped, apache (or jbb on
    even seeds), and the suites' shared fault schedules."""
    workload = "jbb" if alternate_jbb and seed % 2 == 0 else "apache"
    faults = {
        "clean": {},
        # Two tiny-preset checkpoint intervals.
        "detection": {"detection_latency": 4_000},
        "transient": {"fault": "transient", "fault_period": 2_500,
                      "fault_at": 1_200},
        "switch_kill": {"fault": "switch", "fault_at": 2_000},
    }[scenario]
    torus = ({} if shape == (2, 2)
             else {"torus_width": shape[0], "torus_height": shape[1]})
    return RunSpec(workload=workload, instructions=instructions, seed=seed,
                   max_cycles=5_000_000, preset="tiny", scale=64,
                   **torus, **faults)


def _cells(shapes, scenarios, instructions: Callable[[int], int],
           alternate_jbb: bool) -> Dict[str, RunSpec]:
    """Cells keyed by the suites' ``scenario-WxH-seed`` test ids."""
    return {
        f"{scenario}-{w}x{h}-{seed}": _mode_spec(
            (w, h), seed, scenario, instructions(w * h), alternate_jbb)
        for scenario in scenarios
        for (w, h) in shapes
        for seed in (1, 2)
    }


MODE_CELLS: Dict[str, Dict[str, RunSpec]] = {
    "timeout": _cells([(2, 2), (2, 3)], ["clean", "transient"],
                      lambda nodes: 2_000, alternate_jbb=False),
    "validation": _cells([(2, 2), (2, 3)],
                         ["clean", "transient", "detection"],
                         lambda nodes: 2_000, alternate_jbb=False),
    "express": {
        # Big tori get a shorter run: the sweep stays O(seconds).
        **_cells([(2, 2), (4, 4), (4, 8), (8, 8)],
                 ["clean", "transient", "switch_kill"],
                 lambda nodes: 600 if nodes >= 32 else 2_000,
                 alternate_jbb=True),
        # A drop fault whose armed windows open while segments are live.
        "mid-segment-drop": RunSpec(
            workload="apache", instructions=800, seed=5,
            max_cycles=5_000_000, preset="tiny", scale=64, torus_width=4,
            torus_height=8, fault="transient", fault_period=1_500,
            fault_at=900),
    },
    "calendar": _cells([(2, 2), (4, 4), (4, 8)],
                       ["clean", "transient", "switch_kill"],
                       lambda nodes: 1_500, alternate_jbb=True),
    # The default-machine runs the hot-path benchmarks' equivalence guards
    # compare (smoke and quick sizes).
    "bench": {
        f"{w}x{h}-{workload}-{instructions}": RunSpec(
            workload=workload, instructions=instructions, seed=1,
            max_cycles=20_000_000, scale=16,
            **({} if (w, h) == (4, 4)
               else {"torus_width": w, "torus_height": h}))
        for (w, h), workload, instructions in (
            ((4, 4), "apache", 1_000), ((4, 4), "apache", 4_000),
            ((4, 4), "jbb", 1_000), ((4, 4), "jbb", 4_000),
            ((8, 8), "apache", 400), ((8, 8), "apache", 1_000),
        )
    },
}


#: Fault-free routing tables, one case per shape.
ROUTE_SHAPES = ((2, 2), (2, 4), (3, 5), (4, 4), (4, 8), (8, 8))
#: Shapes whose every single half-switch kill is a case of its own.
ROUTE_KILL_SHAPES = ((4, 4), (3, 5))


def route_case_specs() -> Iterator[Tuple[str, int, int, Optional[HalfSwitchId]]]:
    """``(case id, width, height, killed half-switch or None)`` for every
    route-golden case."""
    for w, h in ROUTE_SHAPES:
        yield f"{w}x{h}", w, h, None
    for w, h in ROUTE_KILL_SHAPES:
        for half in TorusTopology(w, h).all_half_switches():
            yield f"{w}x{h}-kill-{half!r}", w, h, half


def route_record(width: int, height: int,
                 killed: Optional[HalfSwitchId]) -> dict:
    """The routing table of one case, in route-golden form."""
    topo = TorusTopology(width, height)
    if killed is not None:
        topo.kill_half_switch(killed)
    routing = RoutingTable(topo)
    return route_case(topo.num_nodes, lambda src, dst: map(
        topo.display, routing.path(src, dst)))


def _write(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_runs() -> None:
    records = []
    for spec in GOLDEN_SPECS:
        record = run_golden(spec)
        records.append(record)
        print(f"  {spec.label():<16} fault={spec.fault:<9} "
              f"hash={record['spec_hash']} cycles={record['result']['cycles']}")
    _write(PROTOCOL_GOLDEN_PATH, {"version": 1, "records": records})
    print(f"wrote {len(records)} golden records to {PROTOCOL_GOLDEN_PATH}")

    suites = {
        suite: {cell: compact(run_golden(spec))
                for cell, spec in cells.items()}
        for suite, cells in MODE_CELLS.items()
    }
    _write(MODE_GOLDEN_PATH, {"version": 1, "suites": suites})
    total = sum(len(cells) for cells in suites.values())
    print(f"wrote {total} mode records to {MODE_GOLDEN_PATH}")


def write_routes() -> None:
    cases = {case: route_record(w, h, killed)
             for case, w, h, killed in route_case_specs()}
    _write(ROUTE_GOLDEN_PATH, {"version": 1, "cases": cases})
    print(f"wrote {len(cases)} route records to {ROUTE_GOLDEN_PATH}")


def main() -> None:
    write_runs()
    write_routes()


if __name__ == "__main__":
    main()
