"""Fail when a top-level ``src/repro`` definition has no consumer.

A definition (a module-level ``def`` or ``class``) has a consumer when

* other ``src/`` code references it: an AST walk of ``src/repro`` counts
  every name and attribute load, including quoted annotations, outside
  the definition's own body. Imports and ``__all__`` entries are not
  references, so a package re-export alone does not keep a name; or
* a runner mentions it: a whole-word match in a ``.py`` file under
  ``examples/``, ``scripts/``, ``benchmarks/`` or ``perfbench/``.

Tests are not consumers. Dunder names (module ``__getattr__``) are called
by Python and are skipped. A name without a consumer fails the census
unless it is on :data:`ALLOWLIST`, which says why it stays; an
allowlisted name that gains a consumer or disappears fails too, so the
list cannot go stale. Run it from the repo root (CI runs it next to
``scripts/check_docs.py``)::

    python scripts/census.py
    python scripts/census.py path/to/other/checkout
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories whose ``.py`` files count as runners.
RUNNER_DIRS = ("examples", "scripts", "benchmarks", "perfbench")

#: Names that stay without a consumer, each with the reason.
ALLOWLIST = {
    "construct_dual_solution": "core/duality.py; the online Lemma 2 "
    "certificate (ROADMAP item 9) replaces it",
    "recover_slot_duals": "core/duality.py; replaced together with "
    "construct_dual_solution (ROADMAP item 9)",
    "load_trace_csv": "io/traces.py; the reader of the trace CSV format "
    "that save_trace_csv writes, pinned by round-trip tests",
    "save_trace_json": "io/traces.py; the writer of the trace JSON format "
    "that serve --trace and loadgen --trace read",
    "load_ratio_points_csv": "io/figures.py; the reader of the figure CSV "
    "format that the fig drivers write",
    "RingSink": "telemetry/sinks.py; the in-memory sink that tests "
    "substitute for a file sink",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loads(tree: ast.AST) -> list[str]:
    """Names and attributes read under ``tree``, with quoted annotations."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                try:
                    names.extend(_loads(ast.parse(annotation.value, mode="eval")))
                except SyntaxError:
                    pass
    return names


def _runner_text(root: Path) -> str:
    """The concatenated runner sources (this script excluded)."""
    texts = []
    for directory in RUNNER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path.name != Path(__file__).name:
                texts.append(path.read_text(encoding="utf-8"))
    return "\n".join(texts)


def census(root: Path) -> list[str]:
    """Return one problem line per unconsumed or stale-allowlisted name."""
    modules = {
        str(path.relative_to(root)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((root / "src" / "repro").rglob("*.py"))
    }
    # name -> {(module, enclosing top-level name)} of every src reference
    references: dict[str, set[tuple[str, str]]] = {}
    for path, tree in modules.items():
        for node in tree.body:
            for name in _loads(node):
                references.setdefault(name, set()).add(
                    (path, getattr(node, "name", ""))
                )
    runners = _runner_text(root)
    problems = []
    seen = set()
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, _DEFINITIONS) or (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                continue
            name = node.name
            seen.add(name)
            consumed = any(
                (where, owner) != (path, name)
                for where, owner in references.get(name, ())
            ) or re.search(rf"\b{re.escape(name)}\b", runners) is not None
            if name in ALLOWLIST:
                if consumed:
                    problems.append(
                        f"{path}:{node.lineno}: {name} is allowlisted but has a "
                        "consumer; drop it from ALLOWLIST"
                    )
            elif not consumed:
                size = node.end_lineno - node.lineno + 1
                problems.append(
                    f"{path}:{node.lineno}: {name} ({size} lines) has no "
                    "consumer outside tests"
                )
    for name in sorted(set(ALLOWLIST) - seen):
        problems.append(f"ALLOWLIST: {name} is no longer defined in src/repro")
    return problems


def main(argv: list[str] | None = None) -> int:
    """Entry point; the optional argument is the repo root to census."""
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]).resolve() if argv else REPO_ROOT
    problems = census(root)
    for problem in problems:
        print(problem)
    print(f"census: {len(problems)} problem(s), {len(ALLOWLIST)} allowlisted")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
