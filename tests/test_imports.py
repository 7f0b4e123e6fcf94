"""Import hygiene: a serving process imports only what serving runs.

Package re-exports resolve lazily and leaf modules import eagerly
(docs/PERFORMANCE.md §12). Each check runs a fresh interpreter, because
the test process itself has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: The LP and topology stack that serving never runs.
HEAVY = ("scipy.optimize", "scipy.sparse", "networkx")


def _heavy_after(code: str) -> list[str]:
    """The HEAVY modules in ``sys.modules`` after a fresh ``code`` run."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_serving_imports_leave_out_the_lp_and_topology_stack():
    code = "import repro.service\nimport repro.cli\nrepro.service.AllocationSession"
    assert _heavy_after(code) == []


def test_serve_setup_leaves_out_the_lp_stack():
    # ``repro-edge serve`` builds its scenario before it listens. The
    # metro topology still loads networkx; the LP stack must stay out.
    code = (
        "from repro.cli import _service_setup, build_parser\n"
        "_service_setup(build_parser().parse_args(['serve', '--stdio']))"
    )
    assert [m for m in _heavy_after(code) if m != "networkx"] == []


def test_the_sweep_roster_still_imports_the_lp_stack():
    # The sweep process imports its roster before it forks pool workers,
    # which then inherit scipy.optimize instead of importing it per sweep.
    code = "from repro.experiments.settings import all_paper_algorithms"
    assert "scipy.optimize" in _heavy_after(code)


def test_telemetry_watch_stays_the_function():
    # ``watch`` is a submodule of repro.telemetry and the function it
    # defines; importing the submodule directly must not rebind the name.
    code = (
        "import repro.diagnostics.convergence\n"
        "from repro.telemetry import watch\n"
        "assert callable(watch), watch\n"
    )
    assert _heavy_after(code) == []
