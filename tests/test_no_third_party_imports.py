"""The simulator runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies, so the package must
import and simulate in an interpreter that cannot see site-packages at
all (``python -S``).  This drives the CLI module and both benchmark
machines — default apache on the 4x4 torus and jbb on 8x8 — for a few
hundred instructions each in such an interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCRIPT = textwrap.dedent("""
    import sys
    assert not any("site-packages" in p for p in sys.path), sys.path
    import repro
    import repro.cli
    from repro.experiments import RunSpec, build_machine

    for spec in (RunSpec(workload="apache", instructions=300),
                 RunSpec(workload="jbb", instructions=200,
                         torus_width=8, torus_height=8)):
        machine = build_machine(spec)
        result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
        assert result.completed and not result.crashed, result
        print(spec.workload, machine.config.num_processors,
              result.committed_instructions)
    assert "networkx" not in sys.modules
""")


def test_runs_without_site_packages():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert lines[0].split()[:2] == ["apache", "16"]
    assert lines[1].split()[:2] == ["jbb", "64"]
