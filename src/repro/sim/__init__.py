"""Discrete-event simulation substrate.

The kernel advances an integer cycle clock and dispatches events in
deterministic order.  Everything above it (network, coherence, SafetyNet)
schedules work through :class:`~repro.sim.kernel.Simulator`.
"""

from repro.sim.calendar import CalendarSimulator
from repro.sim.deadlines import DeadlineTable
from repro.sim.kernel import Event, Simulator
from repro.sim.profile import (DispatchProfile, ProfileReport, profile_spec,
                               queue_health)
from repro.sim.rng import DeterministicRng, spawn_streams
from repro.sim.stats import BandwidthMeter, Counter, Histogram, StatsRegistry

__all__ = [
    "Event",
    "Simulator",
    "CalendarSimulator",
    "DeadlineTable",
    "DispatchProfile",
    "ProfileReport",
    "profile_spec",
    "queue_health",
    "DeterministicRng",
    "spawn_streams",
    "BandwidthMeter",
    "Counter",
    "Histogram",
    "StatsRegistry",
]
