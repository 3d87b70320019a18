"""Configurable-cadence time-series sampling of machine pressure state.

SafetyNet's costs are *occupancy* costs — CLB fill, switch buffering,
outstanding coherence transactions, armed detection deadlines — and a
single end-of-run peak hides the whole shape of an episode (a CLB that
sits near-empty and spikes during a long detection window looks identical
to one under steady pressure).  :class:`Sampler` captures those series at
a fixed cycle cadence, feeding ``repro trace --series`` and the
CLB-pressure items on the ROADMAP.

The sampler *does* schedule kernel events (one per sample), but its
callback only reads state: it never sends messages, mutates components,
or touches RNG streams, so a sampled run's :class:`RunResult
<repro.system.machine.RunResult>` — cycles, committed work, recoveries,
every counter — is bit-identical to an unsampled one (asserted by
``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

LABEL_SAMPLE = sys.intern("obs.sample")

#: Column order for the CSV/JSON views.
SAMPLE_FIELDS = (
    "cycle",
    "clb_entries",            # live cache+home CLB entries, machine-wide
    "clb_max_node",           # largest single node's cache+home occupancy
    "net_buffer_depth",       # live switch-buffer residents
    "net_in_flight",          # messages somewhere on the interconnect
    "outstanding_txns",       # open MSHRs + writeback txns + busy homes
    "deadline_entries",       # armed deadline-table timeouts
    "committed_instructions",
    "rpcn",                   # recovery-point checkpoint number
    "min_ccn",                # slowest node's checkpoint number
)


class Sampler:
    """Periodic read-only snapshots of one machine's pressure state.

    ::

        sampler = Sampler(machine, cadence=machine.config.checkpoint_interval)
        sampler.start()
        machine.run(...)
        sampler.rows()          # list of per-sample dicts
    """

    def __init__(self, machine, cadence: int) -> None:
        if cadence <= 0:
            raise ValueError("sampler cadence must be positive")
        self.machine = machine
        self.cadence = cadence
        self.rows_: List[Dict[str, Any]] = []
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.machine.sim.schedule_after(self.cadence, self._tick, LABEL_SAMPLE)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.rows_.append(self.sample())
        self.machine.sim.schedule_after(self.cadence, self._tick, LABEL_SAMPLE)

    # ------------------------------------------------------------------
    def sample(self) -> Dict[str, Any]:
        """One snapshot of the machine, taken now (also usable ad hoc)."""
        m = self.machine
        clb_total = 0
        clb_max = 0
        outstanding = 0
        deadlines = 0
        committed = 0
        min_ccn: Optional[int] = None
        for node in m.nodes:
            occ = node.cache_clb.occupancy + node.home_clb.occupancy
            clb_total += occ
            if occ > clb_max:
                clb_max = occ
            outstanding += (len(node.cache.mshrs) + len(node.cache.wb_txns)
                            + len(node.home.busy))
            deadlines += len(node.cache._timeout_table)
            if node.home._timeout_table is not None:
                deadlines += len(node.home._timeout_table)
            committed += node.core.position
            ccn = node.core.ccn
            if min_ccn is None or ccn < min_ccn:
                min_ccn = ccn
        return {
            "cycle": m.sim.now,
            "clb_entries": clb_total,
            "clb_max_node": clb_max,
            "net_buffer_depth": m.network.buffer_depth(),
            "net_in_flight": m.network.in_flight_count,
            "outstanding_txns": outstanding,
            "deadline_entries": deadlines,
            "committed_instructions": committed,
            "rpcn": m.controllers.rpcn,
            "min_ccn": min_ccn if min_ccn is not None else 0,
        }

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def rows(self) -> List[Dict[str, Any]]:
        return list(self.rows_)

    def to_csv(self, fh) -> None:
        fh.write(",".join(SAMPLE_FIELDS) + "\n")
        for row in self.rows_:
            fh.write(",".join(str(row[f]) for f in SAMPLE_FIELDS) + "\n")

    def to_json(self) -> str:
        return json.dumps({"cadence": self.cadence, "fields": SAMPLE_FIELDS,
                           "samples": self.rows_}, indent=2)

    def peak(self, field: str) -> int:
        """Largest sampled value of one column (0 with no samples)."""
        return max((row[field] for row in self.rows_), default=0)
