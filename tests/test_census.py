"""The consumer census must pass on the repo and fail on an unconsumed name.

`scripts/census.py` is the CI gate that keeps ``src/repro`` free of
top-level definitions only tests call. These tests pin both directions —
green on the committed tree, red on a copy that adds a public function
with no consumer, and red when an allowlisted name gains one.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "census.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        check=False,
    )


def _copy_tree(tmp_path: Path) -> Path:
    """The parts of the repo the census reads, copied under ``tmp_path``."""
    root = tmp_path / "repo"
    for directory in ("src", "examples", "scripts", "benchmarks", "perfbench"):
        shutil.copytree(
            REPO_ROOT / directory,
            root / directory,
            ignore=shutil.ignore_patterns("__pycache__", "results"),
        )
    return root


def test_committed_tree_passes():
    result = _run()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "census: 0 problem(s)" in result.stdout


def test_unconsumed_public_function_fails(tmp_path):
    root = _copy_tree(tmp_path)
    module = root / "src" / "repro" / "core" / "bounds.py"
    module.write_text(
        module.read_text()
        + "\n\ndef orphan_helper(x):\n    return orphan_helper(x - 1) if x else 0\n"
    )
    result = _run(str(root))
    assert result.returncode == 1
    assert "src/repro/core/bounds.py" in result.stdout
    assert "orphan_helper (2 lines) has no consumer" in result.stdout


def test_allowlisted_name_with_a_consumer_fails(tmp_path):
    root = _copy_tree(tmp_path)
    (root / "examples" / "uses_ring_sink.py").write_text(
        "from repro.telemetry.sinks import RingSink\n\nprint(RingSink)\n"
    )
    result = _run(str(root))
    assert result.returncode == 1
    assert "RingSink is allowlisted but has a consumer" in result.stdout
