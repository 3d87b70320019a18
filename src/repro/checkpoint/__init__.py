"""The checkpoint-lifecycle subsystem.

Owns SafetyNet's whole recovery-point protocol in one place — previously
scattered across ``core/clock.py``, ``core/validation.py``,
``core/commit.py``, ``core/recovery.py`` and duck-typed hooks in the
coherence and processor layers:

* :mod:`repro.checkpoint.participant` — the
  :class:`CheckpointParticipant` protocol every in-sphere component
  implements (CCN stepping, open-interval reporting, RPCN deallocation,
  readiness signalling).
* :mod:`repro.checkpoint.agent` — the per-node
  :class:`ValidationAgent`: edge-triggered readiness recomputation and
  sign-off announcement.
* :mod:`repro.checkpoint.controllers` — the redundant
  :class:`ServiceControllers` with incremental running-min sign-off
  tracking.

``repro.core.validation`` re-exports the public names for backward
compatibility.
"""

from repro.checkpoint.agent import ValidationAgent
from repro.checkpoint.controllers import ServiceControllers
from repro.checkpoint.participant import (
    CheckpointParticipant,
    ReadinessCallback,
    missing_members,
)

__all__ = [
    "CheckpointParticipant",
    "ReadinessCallback",
    "ServiceControllers",
    "ValidationAgent",
    "missing_members",
]
