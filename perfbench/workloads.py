"""The benchmark's workloads: each builds a fresh, cold machine from a seed.

Only the simulator's public API is used: ``build_machine`` and, for the
fault schedule, ``Machine.inject_transient_faults``.

This module imports nothing but ``repro``, so ``setup_probe.py`` can time
``import repro`` + build in a fresh interpreter without counting the
benchmark harness's own imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.experiments.runner import build_machine
from repro.experiments.spec import RunSpec
from repro.system.machine import Machine

#: Transient faults on jbb-8x8-transient: four dropped messages, the first
#: at cycle 8000 and then every 10000 cycles.  The count is bounded because
#: unbounded periodic drops cascade (a recovery lengthens the run, which
#: admits more drops): at a 20000-cycle period seeds 1-10 saw 1 to 12
#: recoveries.  Bounded, 39 of seeds 1-40 see two and seed 14 sees one;
#: the benchmark checks for at least one.
JBB_FAULTS = dict(period=10_000, first_at=8_000, count=4)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Measured instructions per CPU of one simulation.
    instructions: int
    #: Instructions per CPU under ``--tiny`` (the smoke test).
    tiny_instructions: int
    #: ``seed -> Machine``: a freshly built machine, caches empty.
    build: Callable[[int], Machine]
    #: Minimum recoveries every run must record (0 for fault-free runs).
    min_recoveries: int = 0


def _apache(seed: int) -> Machine:
    return build_machine(RunSpec(workload="apache", seed=seed))


def _jbb_transient(seed: int) -> Machine:
    machine = build_machine(RunSpec(workload="jbb", seed=seed,
                                    torus_width=8, torus_height=8))
    machine.inject_transient_faults(**JBB_FAULTS)
    return machine


#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("apache-4x4", instructions=16_000, tiny_instructions=800,
             build=_apache),
    Workload("jbb-8x8-transient", instructions=1_500, tiny_instructions=500,
             build=_jbb_transient, min_recoveries=1),
)}
