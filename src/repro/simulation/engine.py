"""The discrete-time simulator: run algorithms over instances, score them.

"We built a discrete-time simulator in Python to validate the performance
of the proposed online resource allocation algorithm" (Section V). The
engine resolves any :class:`AllocationAlgorithm` to its controller form
(:func:`repro.simulation.spine.controller_for`), drives it over the
instance's observation stream with :func:`repro.simulation.spine.simulate`
— the single per-slot loop shared by batch and streamed execution —
accounts costs incrementally, verifies feasibility of what came back, and
assembles paper-style comparisons normalized by offline-opt.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..core.problem import ProblemInstance
from ..parallel.executor import SweepExecutor
from ..telemetry import get_registry
from .observations import SystemDescription, iter_observations
from .results import Comparison, RunResult
from .spine import controller_for, simulate

if TYPE_CHECKING:  # the baselines build on this package; type-only import
    from ..baselines.base import AllocationAlgorithm


def run_algorithm(
    algorithm: "AllocationAlgorithm",
    instance: ProblemInstance,
    *,
    require_feasible: bool = True,
    feasibility_tol: float = 1e-5,
    keep_schedule: bool = True,
) -> RunResult:
    """Run one algorithm on one instance and account its costs.

    The algorithm is resolved to its controller form and driven through the
    streaming spine; ``keep_schedule=False`` drops each slot's allocation
    after accounting (``result.schedule`` is then ``None``) so memory stays
    bounded on long horizons.

    Raises ValueError when the algorithm returns an infeasible schedule and
    ``require_feasible`` is set (all algorithms in this project are supposed
    to be feasible by construction; this is the engine's safety net).
    """
    telemetry = get_registry()
    run_tags = (
        {"run": telemetry.next_run_id(), "algorithm": algorithm.name}
        if telemetry.enabled
        else {}
    )
    with telemetry.context(**run_tags), telemetry.span("run"):
        start = time.perf_counter()
        system = SystemDescription.from_instance(instance)
        controller = controller_for(algorithm, instance, system)
        sim = simulate(
            controller,
            iter_observations(instance),
            system,
            keep_schedule=keep_schedule,
        )
        elapsed = time.perf_counter() - start
        if telemetry.enabled:
            telemetry.event(
                "run_end",
                slots=sim.total_slots,
                wall_s=elapsed,
                totals=sim.breakdown.totals(),
            )
            # Run boundaries are the natural checkpoints of a streaming
            # manifest: force them to disk so a watcher never sees a run's
            # slots without its run_end for longer than one run.
            telemetry.flush()
    report = sim.feasibility
    if require_feasible and report.worst() > feasibility_tol:
        raise ValueError(
            f"{algorithm.name} returned an infeasible schedule: "
            f"demand {report.demand_violation:.3e}, "
            f"capacity {report.capacity_violation:.3e}, "
            f"negativity {report.negativity_violation:.3e}"
        )
    return RunResult(
        algorithm=algorithm.name,
        schedule=sim.schedule,
        breakdown=sim.breakdown,
        feasibility=report,
        wall_time_s=elapsed,
    )


def _run_algorithm_cell(
    work: "tuple[AllocationAlgorithm, ProblemInstance, bool, bool]",
) -> RunResult:
    """Module-level cell body so the process pool can pickle it."""
    algorithm, instance, require_feasible, keep_schedule = work
    return run_algorithm(
        algorithm,
        instance,
        require_feasible=require_feasible,
        keep_schedule=keep_schedule,
    )


def compare_algorithms(
    algorithms: "list[AllocationAlgorithm]",
    instance: ProblemInstance,
    *,
    baseline: str = "offline-opt",
    require_feasible: bool = True,
    workers: int | None = 1,
    keep_schedule: bool = True,
) -> Comparison:
    """Run every algorithm on the same instance; normalize by ``baseline``.

    The baseline must be among the algorithms (the paper normalizes
    everything by offline-opt). ``workers > 1`` fans the per-algorithm runs
    across a process pool — useful for a one-off comparison on a large
    instance; whole sweeps parallelize better per (instance, repetition)
    cell via :class:`repro.parallel.SweepExecutor`. ``keep_schedule=False``
    drops per-slot allocations after cost accounting (ratios only need the
    cost totals).
    """
    if workers is None or workers > 1:
        cell_results = SweepExecutor(max_workers=workers).map(
            _run_algorithm_cell,
            [
                (algorithm, instance, require_feasible, keep_schedule)
                for algorithm in algorithms
            ],
            keys=[algorithm.name for algorithm in algorithms],
        )
        failed = [r for r in cell_results if not r.ok]
        if failed:
            raise ValueError(
                f"{len(failed)} algorithm(s) failed: "
                + "; ".join(f"{r.key}: {r.error}" for r in failed)
            )
        results = {r.key: r.value for r in cell_results}
    else:
        results = {
            algorithm.name: run_algorithm(
                algorithm,
                instance,
                require_feasible=require_feasible,
                keep_schedule=keep_schedule,
            )
            for algorithm in algorithms
        }
    return Comparison(results=results, baseline=baseline)
