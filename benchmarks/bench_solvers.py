"""ABL-SOLVER — ablation: structured interior-point vs SciPy trust-constr.

The paper solved P2 with IPOPT; this repository ships one solver, the
structured interior-point method. The ablation times one representative
P2 subproblem solve with it and with the generic trust-constr oracle the
tests cross-check it against, and checks they agree on the optimum —
quantifying what the structured Woodbury solver buys (typically an order
of magnitude).
"""

import numpy as np
import pytest

from repro.core.subproblem import RegularizedSubproblem
from repro.experiments.report import format_table
from repro.simulation.scenario import Scenario
from repro.solvers.interior_point import InteriorPointBackend
from tests.solvers.trust_constr import TrustConstrOracle

from ._util import publish_report

_RESULTS: dict[str, float] = {}


def _subproblem(scale):
    instance = Scenario(
        num_users=scale.num_users, num_slots=scale.num_slots
    ).build(seed=scale.seed)
    rng = np.random.default_rng(scale.seed)
    x_prev = rng.uniform(0.0, 1.0, size=(instance.num_clouds, instance.num_users))
    x_prev *= np.asarray(instance.workloads)[None, :] / instance.num_clouds
    return RegularizedSubproblem.from_instance(
        instance, slot=1, x_prev=x_prev, eps1=1.0, eps2=1.0
    )


@pytest.mark.parametrize(
    "backend",
    [InteriorPointBackend(), TrustConstrOracle()],
    ids=["structured-ipm", "scipy-trust-constr"],
)
def test_p2_solve(benchmark, scale, backend):
    sub = _subproblem(scale)
    program = sub.build_program()
    result = benchmark(lambda: backend.solve(program, tol=1e-8))
    _RESULTS[backend.name] = result.objective

    if len(_RESULTS) == 2:
        values = list(_RESULTS.values())
        scale_obj = max(1.0, abs(values[0]))
        assert abs(values[0] - values[1]) < 1e-4 * scale_obj
        report = "\n".join(
            [
                "ABL-SOLVER - P2 backend agreement (timings in pytest-benchmark table)",
                format_table(
                    ["backend", "objective"],
                    [[name, obj] for name, obj in _RESULTS.items()],
                ),
            ]
        )
        publish_report("solver_ablation", report)
