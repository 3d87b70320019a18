"""Whole-run simulator benchmark: throughput, set-up and memory, per layer.

Run from the repository root::

    python3 perfbench/run.py --workload apache-4x4 --seed 1 --seconds 50 --trace 0

One process runs one workload.  Every simulation builds a fresh machine
(caches empty) through the public API and runs the workload's fixed
instruction count with ``Machine.run``.  One untimed warm-up simulation
comes first, so every timed sample runs in a warm interpreter; the warm-up
also fixes the reference fingerprint that every later sample must repeat.

``--trace 0`` reports the end-to-end metrics: the median ``sim_kips`` over
timed samples, the median ``setup_s`` over fresh-interpreter probes
(``setup_probe.py``) interleaved with them, this process's ``peak_rss_mb``
and the deterministic ``sim_cycles``.  ``--trace 1`` alternates untraced
and traced samples (see ``layers.py``) and reports per-layer medians plus
the tracing slowdown.  Each sample is checked (see :func:`check`); a
failed check counts against the samples attempted.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
``--tiny`` shrinks every run for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
from statistics import median
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(1, SRC)

from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Fresh-interpreter set-up probes per run (after one discarded probe
#: that may compile bytecode caches).
SETUP_PROBES = 7
#: Floor on timed samples, whatever ``--seconds`` says, so a median exists.
MIN_SAMPLES = 3
#: The traced run's layer times must sum to its wall time within this.
ACCOUNTING_TOLERANCE = 0.02
PROBE_TIMEOUT_S = 60

#: Units of the traced run's work counts that are not plain counts.
COUNT_UNITS = {"sim.events": "events",
               "interconnect.hops_per_send": "ratio",
               "coherence.misses_per_kinstr": "1/kinstr",
               "processor.instr_per_burst": "ratio",
               "checkpoint.peak_clb_entries": "entries",
               "core.recovery.lost_instructions": "instructions"}

Fingerprint = Tuple[int, int, int, int, int]


@dataclass
class Sample:
    """One simulation: its timing, fingerprint and check results."""

    traced: bool
    wall: float = 0.0
    committed: int = 0
    fingerprint: Optional[Fingerprint] = None
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def kips(self) -> float:
        return self.committed / self.wall / 1000.0


def check(machine, result, workload: Workload) -> List[str]:
    """Untimed correctness checks on a finished simulation."""
    problems = []
    if result.crashed:
        problems.append(f"crashed: {result.crash_reason}")
    if not result.completed:
        problems.append("did not complete")
    if result.committed_instructions < result.target_instructions:
        problems.append(f"committed {result.committed_instructions} < "
                        f"target {result.target_instructions}")
    if result.recoveries < workload.min_recoveries:
        problems.append(f"{result.recoveries} recoveries, expected at "
                        f"least {workload.min_recoveries}")
    if not machine.quiesce():
        problems.append("machine did not quiesce")
    try:
        machine.check_coherence_invariants()
    except AssertionError as exc:
        problems.append(f"coherence invariant: {exc}")
    return problems


def layer_counts(machine, result, tracer: LayerTracer) -> Dict[str, float]:
    """Work counts of a traced simulation, taken before it is quiesced."""
    calls = tracer.calls
    labels = tracer.counts
    kinstr = result.committed_instructions / 1000.0
    hops = labels.get("net.hop", 0) + labels.get("net.express", 0)
    bursts = labels.get("core.burst", 0)
    return {
        "sim.events": machine.sim.events_dispatched,
        "sim.peak_pending": machine.sim.peak_pending,
        "interconnect.sends": calls["interconnect.sends"],
        "interconnect.hop_dispatches": hops,
        "interconnect.hops_per_send":
            hops / max(1, calls["interconnect.sends"]),
        "coherence.cache_msgs": calls["coherence.cache_msgs"],
        "coherence.home_msgs": calls["coherence.home_msgs"],
        "coherence.misses": calls["coherence.misses"],
        "coherence.misses_per_kinstr": calls["coherence.misses"] / kinstr,
        "processor.bursts": bursts,
        "processor.instr_per_burst":
            result.committed_instructions / max(1, bursts),
        "workloads.ops": calls["workloads.ops"],
        "checkpoint.clb_appends": calls["checkpoint.clb_appends"],
        "checkpoint.validation_calls": calls["checkpoint.validation_calls"],
        "checkpoint.peak_clb_entries": max(
            max(n.cache_clb.peak_occupancy, n.home_clb.peak_occupancy)
            for n in machine.nodes),
        "checkpoint.store_throttles":
            machine.stats.sum_counters(".store_throttles"),
        "core.recovery.recoveries": result.recoveries,
        "core.recovery.lost_instructions": result.lost_instructions,
    }


def simulate(workload: Workload, seed: int, instructions: int,
             traced: bool) -> Sample:
    """Build, run (timed), then check one simulation."""
    sample = Sample(traced=traced)
    gc.collect()
    tracer = LayerTracer() if traced else None
    try:
        with tracer or nullcontext():
            machine = workload.build(seed)
            machine.sim.tracer = tracer
            started = perf_counter()
            result = machine.run(instructions)
            sample.wall = perf_counter() - started
        machine.sim.tracer = None
        sample.committed = result.committed_instructions
        sample.fingerprint = (result.cycles, result.committed_instructions,
                              result.recoveries, result.lost_instructions,
                              machine.sim.events_dispatched)
        if tracer is not None:
            sample.layers = tracer.layer_seconds(sample.wall)
            sample.counts = layer_counts(machine, result, tracer)
            accounted = sum(sample.layers.values())
            if abs(accounted - sample.wall) > ACCOUNTING_TOLERANCE * sample.wall:
                sample.problems.append(
                    f"layers account for {accounted:.4f}s of "
                    f"{sample.wall:.4f}s traced wall time")
            negative = [k for k, v in sample.layers.items() if v < 0]
            if negative:
                sample.problems.append(f"negative self time in {negative}")
        sample.problems += check(machine, result, workload)
    except Exception as exc:  # a crashing simulation is a failed sample
        sample.problems.append(f"{type(exc).__name__}: {exc}")
    return sample


def setup_probe(workload: Workload, seed: int) -> Optional[float]:
    """Seconds from a fresh interpreter's start to the machine built."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload.name, str(seed)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S)
        return float(proc.stdout.strip()) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError):
        return None


def provenance(args, samples: int) -> Dict[str, object]:
    """Where and on what code a result was measured."""
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # not an outer repo's
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(fh.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "hostname": platform.node(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every run (smoke test)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    instructions = workload.instructions
    probes = SETUP_PROBES
    if args.tiny:
        instructions = workload.tiny_instructions
        probes = 1
    traced_mode = bool(args.trace)

    warmup = simulate(workload, args.seed, instructions, traced=False)
    samples: List[Sample] = []
    setup: List[Optional[float]] = []
    if not traced_mode:
        setup_probe(workload, args.seed)  # may compile bytecode; discarded
    started = perf_counter()
    while True:
        lap = perf_counter()
        for with_trace in ((False, True) if traced_mode else (False,)):
            samples.append(
                simulate(workload, args.seed, instructions, with_trace))
        if not traced_mode and len(setup) < probes:
            setup.append(setup_probe(workload, args.seed))
        now = perf_counter()
        # Stop before a lap that would overrun the measuring window.
        if (len(samples) >= MIN_SAMPLES
                and now - started + (now - lap) > args.seconds):
            break
    while len(setup) < probes and not traced_mode:
        setup.append(setup_probe(workload, args.seed))

    finished = [s for s in [warmup] + samples if s.fingerprint is not None]
    untraced = [s for s in samples if s.fingerprint and not s.traced]
    traced = [s for s in samples if s.fingerprint and s.traced]
    if not untraced or (traced_mode and not traced):
        print("too few simulations finished:",
              [s.problems for s in [warmup] + samples], file=sys.stderr)
        return 1
    reference = finished[0].fingerprint
    for sample in finished:
        if sample.fingerprint != reference:
            sample.problems.append(
                f"fingerprint {sample.fingerprint} != {reference}")
    attempted = 1 + len(samples) + len(setup)
    failed = (sum(1 for s in [warmup] + samples if s.problems)
              + sum(1 for v in setup if v is None))

    metrics: Dict[str, Tuple[float, str]] = {}
    if traced_mode:
        for layer in traced[0].layers:
            metrics[f"{layer}.self_s"] = (
                median(s.layers[layer] for s in traced), "s")
        for name, value in traced[0].counts.items():
            metrics[name] = (value, COUNT_UNITS.get(name, "count"))
        untraced_wall = median(s.wall for s in untraced)
        metrics["sim.events_per_s"] = (
            traced[0].counts["sim.events"] / untraced_wall, "1/s")
        metrics["trace.slowdown"] = (
            median(s.wall for s in traced) / untraced_wall, "x")
    else:
        valid_setup = [v for v in setup if v is not None]
        metrics["sim_kips"] = (median(s.kips for s in untraced), "kinstr/s")
        metrics["setup_s"] = (median(valid_setup) if valid_setup else 0.0, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["sim_cycles"] = (reference[0], "cycles")

    print("provenance", json.dumps(provenance(args, len(samples) + len(setup))))
    for i, sample in enumerate([warmup] + samples):
        kind = "warmup" if i == 0 else ("traced" if sample.traced else "timed")
        kips = f"{sample.kips:.3f}" if sample.wall else "-"
        print(f"{kind:7s} wall={sample.wall:.4f}s sim_kips={kips} "
              f"fingerprint={sample.fingerprint} problems={sample.problems}")
    cycles, committed, recoveries, lost, events = reference
    print(f"run: sim_cycles={cycles} committed={committed} "
          f"recoveries={recoveries} lost_instructions={lost} events={events}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
