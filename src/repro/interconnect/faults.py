"""Fault injectors for the two faults evaluated in the paper (Table 1).

* :class:`DropMessageFault` — a transient (e.g. alpha particle) corrupts or
  misroutes one coherence message inside a switch.  The paper's Experiment 2
  injects one every 100 million cycles ("ten times per second" at 1 GHz).
* :class:`KillSwitchFault` — a hard fault (e.g. electromigration) kills one
  half-switch after a delay, losing all of its buffered messages
  (Experiment 3: after one million cycles).

:class:`PeriodicArmedFault` is the shared arming machinery, also reused by
the corruption/misroute injectors in :mod:`repro.detection.faults`.
"""

from __future__ import annotations

from typing import Optional

from repro.interconnect.messages import Message
from repro.interconnect.network import Network
from repro.interconnect.topology import HalfSwitchId
from repro.sim.kernel import Simulator


class PeriodicArmedFault:
    """Arms itself every ``period`` cycles and fires on a message
    entering a switch.

    Subclasses implement :meth:`_fire`; its return value decides whether
    the chosen message is dropped (True) or continues, possibly mutated
    (False).  ``count`` bounds the number of injections (None =
    unbounded).

    Victim selection is *slotted*, like the network's delivery and
    link-claim ties: while armed, switch entries observed during a cycle
    are collected and the fault fires at the end of that cycle on the
    entry with the smallest ``msg_id`` — not on whichever dispatch
    happened to run first.  Same-cycle dispatch order is a history of
    event insertion (exactly what express-hop advancement compresses),
    so picking the victim by arrival order would make fault runs diverge
    between express and hop-by-hop scheduling; the canonical key keeps
    them bit-identical.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        period: int,
        *,
        first_at: Optional[int] = None,
        count: Optional[int] = None,
    ) -> None:
        if period <= 0:
            raise ValueError("fault period must be positive")
        self.sim = sim
        self.network = network
        self.period = period
        self.remaining = count
        self.injected = 0
        self._armed = False
        self._stopped = False
        # Switch entries seen this cycle while armed: (msg, half-switch).
        self._candidates: list = []
        #: Optional :class:`repro.obs.trace.TraceLog` (wired by
        #: ``Machine.attach_tracer``): each injection is journalled.
        self.trace = None
        # Managed: express advancement stays enabled outside the armed
        # windows; _arm/_hook bracket each window with hold/release so the
        # hook observes every switch a message traverses while armed.
        network.add_drop_hook(self._hook, managed=True)
        sim.schedule(first_at if first_at is not None else period,
                     self._arm, "fault.arm")

    def stop(self) -> None:
        """Disarm permanently (e.g. before quiescing for invariant checks)."""
        self._stopped = True
        if self._armed:
            self._armed = False
            self.network.express_release()

    def _arm(self) -> None:
        if self._stopped:
            return
        if self.remaining is not None and self.injected >= self.remaining:
            return
        if not self._armed:
            self._armed = True
            self.network.express_hold()

    def _hook(self, msg: Message, half: HalfSwitchId) -> bool:
        if not self._armed:
            return False
        # Never drop synchronously: collect this cycle's switch entries
        # and resolve the victim at end of cycle (see class docstring).
        if not self._candidates:
            self.sim.schedule(self.sim.now, self._resolve, "fault.resolve")
        self._candidates.append((msg, half))
        return False

    def _resolve(self) -> None:
        candidates = self._candidates
        self._candidates = []
        if not self._armed or not candidates:
            return  # stopped between collection and resolution
        msg, half = min(candidates, key=lambda c: c[0].msg_id)
        self._armed = False
        self.network.express_release()
        self.injected += 1
        trace = self.trace
        if trace is not None:
            trace.emit(self.sim.now, "fault.inject",
                       fault=type(self).__name__, at=str(half),
                       msg_kind=msg.kind.name, src=msg.src, dst=msg.dst)
        if self.remaining is None or self.injected < self.remaining:
            self.sim.schedule_after(self.period, self._arm, "fault.arm")
        if self._fire(msg):
            self.network.drop_in_flight(
                msg, f"fault injection at {half}")

    def _fire(self, msg: Message) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class DropMessageFault(PeriodicArmedFault):
    """Periodically drops one message inside a switch (transient)."""

    def _fire(self, msg: Message) -> bool:
        return True  # the drop is the fault


class KillSwitchFault:
    """Kills one half-switch at a fixed cycle (hard fault)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        half: HalfSwitchId,
        at_cycle: int,
    ) -> None:
        # Reject a half-switch outside the torus now, not when the kill fires.
        network.topology.switch_id(half)
        self.sim = sim
        self.network = network
        self.half = half
        self.fired = False
        self.messages_lost_in_switch = 0
        #: Optional :class:`repro.obs.trace.TraceLog` (see Machine).
        self.trace = None
        self._event = sim.schedule(at_cycle, self._fire, "fault.kill_switch")

    def stop(self) -> None:
        """Cancel the kill if it has not fired yet (already-dead switches
        stay dead — hard faults are not undone by disarming)."""
        if not self.fired:
            self._event.cancel()

    def _fire(self) -> None:
        self.fired = True
        self.messages_lost_in_switch = self.network.kill_half_switch(self.half)
        trace = self.trace
        if trace is not None:
            trace.emit(self.sim.now, "fault.inject",
                       fault=type(self).__name__, at=str(self.half),
                       messages_lost=self.messages_lost_in_switch)
