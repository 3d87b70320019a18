"""Back-compat shim: the validation machinery moved to
:mod:`repro.checkpoint` (the unified checkpoint-lifecycle subsystem).

Import :class:`ValidationAgent` and :class:`ServiceControllers` from
``repro.checkpoint`` in new code; this module keeps the historical
``repro.core.validation`` import path working.
"""

from repro.checkpoint.agent import (
    LABEL_DETECT,
    LABEL_RESYNC,
    ValidationAgent,
)
from repro.checkpoint.controllers import ServiceControllers

__all__ = [
    "LABEL_DETECT",
    "LABEL_RESYNC",
    "ServiceControllers",
    "ValidationAgent",
]
