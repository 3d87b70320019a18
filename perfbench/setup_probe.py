"""Time a fresh interpreter's set-up: ``import repro`` + build one machine.

Run by ``run.py`` in a child process, once per ``setup_s`` sample::

    python3 perfbench/setup_probe.py apache-4x4 1

Prints the seconds from this script's first statement to the machine
being built.  Interpreter start-up itself is not the repository's cost
and is left out.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# The script's own directory is already sys.path[0]; add the sources.
sys.path.insert(1, os.path.join(os.path.dirname(os.path.abspath(sys.path[0])),
                                "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(repr(time.perf_counter() - _STARTED))
