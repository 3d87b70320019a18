"""Committed bit-identity oracles: record and replay golden runs.

Two files under ``tests/data`` hold runs captured on the code that last
carried every alternative machine path (heap kernel, legacy hop
scheduling, per-request timeouts, polled validation), at a time when each
suite had proved those paths bit-identical to the default one:

* ``protocol_golden.json`` — full records (RunResult, every counter,
  kernel dispatch count), replayed by ``tests/test_protocols.py``;
* ``mode_golden.json`` — the cells the mode-equivalence suites swept,
  keyed by suite and test id; the counter snapshot is stored as a digest
  to keep the file small.

A third, ``route_golden.json``, holds the all-pairs routing tables the
networkx-based ``RoutingTable`` computed (one digest per torus shape or
single half-switch kill), replayed by ``tests/test_route_golden.py``.

``tests/gen_protocol_golden.py`` writes all three.  A replay that diverges
means the simulator's behaviour changed, not that the data is stale.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict

from repro.experiments import RunSpec, build_machine

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
PROTOCOL_GOLDEN_PATH = os.path.join(DATA_DIR, "protocol_golden.json")
MODE_GOLDEN_PATH = os.path.join(DATA_DIR, "mode_golden.json")
ROUTE_GOLDEN_PATH = os.path.join(DATA_DIR, "route_golden.json")

RESULT_FIELDS = (
    "cycles", "committed_instructions", "target_instructions", "completed",
    "crashed", "crash_reason", "recoveries", "lost_instructions",
    "reexecuted_instructions",
)


def counters_digest(counters: Dict[str, Any]) -> str:
    """Order-independent digest of a counter snapshot."""
    blob = json.dumps(counters, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_golden(spec: RunSpec) -> dict:
    """One golden record: results + every counter + dispatch count."""
    machine = build_machine(spec)
    result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
    return {
        "spec": spec.canonical(),
        "spec_hash": spec.spec_hash,
        "result": {fld: getattr(result, fld) for fld in RESULT_FIELDS},
        "counters": machine.stats.snapshot(),
        "events_dispatched": machine.sim.events_dispatched,
    }


def compact(record: dict) -> dict:
    """A mode-golden record: the counter snapshot folded into a digest."""
    out = {k: v for k, v in record.items() if k != "counters"}
    out["counters_sha256"] = counters_digest(record["counters"])
    return out


def load_protocol_records() -> list:
    with open(PROTOCOL_GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["records"]


def load_mode_records(suite: str) -> Dict[str, dict]:
    """``{test id: compact record}`` for one mode-equivalence suite."""
    with open(MODE_GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["suites"][suite]


def assert_replays(record: dict) -> dict:
    """Re-run a golden record's spec and require a byte-for-byte match.

    Accepts full and compact records; returns the fresh full record.
    """
    spec = RunSpec.from_dict(record["spec"])
    assert spec.spec_hash == record["spec_hash"], \
        "spec hashing changed: existing stores would orphan their records"
    fresh = run_golden(spec)
    for fld in RESULT_FIELDS:
        assert fresh["result"][fld] == record["result"][fld], \
            f"{fld} diverged from the golden"
    if "counters" in record:
        assert fresh["counters"] == record["counters"], \
            "counter snapshot diverged (values or registered-counter set)"
    else:
        assert counters_digest(fresh["counters"]) == \
            record["counters_sha256"], "counter snapshot diverged"
    assert fresh["events_dispatched"] == record["events_dispatched"], \
        "kernel dispatch count diverged"
    return fresh


def format_route(vertices) -> str:
    """Display form of one route: ``("node", n)`` endpoints as ``n<id>``,
    ``("sw", half)`` switches by the half-switch repr (``ew(1,0)``)."""
    return ">".join(f"n{v[1]}" if v[0] == "node" else repr(v[1])
                    for v in vertices)


def route_case(num_nodes: int, display_path) -> dict:
    """A route-golden record: ``display_path(src, dst)`` (display-form
    vertices) over every ordered pair of distinct nodes, as a digest plus
    two readable totals."""
    lines = []
    switches = 0
    for src in range(num_nodes):
        for dst in range(num_nodes):
            if src != dst:
                route = list(display_path(src, dst))
                switches += len(route) - 2
                lines.append(f"{src}->{dst}:{format_route(route)}")
    return {
        "pairs": len(lines),
        "switch_visits": switches,
        "routes_sha256": hashlib.sha256(
            "\n".join(lines).encode()).hexdigest(),
    }


def load_route_records() -> Dict[str, dict]:
    """``{case id: route record}``; ids are ``WxH`` or ``WxH-kill-<half>``."""
    with open(ROUTE_GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["cases"]
