"""Per-slot optimality certificates: tightness, validity, and purity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.regularization import OnlineRegularizedAllocator
from repro.core.subproblem import RegularizedSubproblem
from repro.diagnostics import (
    certify_solution,
    duality_gap_bound,
    lp_multipliers,
    record_certificate,
    recover_multipliers,
    worst_certificate,
)
from repro.simulation.scenario import Scenario
from repro.telemetry import telemetry_session


@pytest.fixture(scope="module")
def small_run():
    """One certified online run on a small instance (shared, read-only)."""
    instance = Scenario(num_users=6, num_slots=3).build(seed=11)
    algorithm = OnlineRegularizedAllocator(certify=True)
    schedule = algorithm.run(instance)
    return instance, algorithm, schedule


def _subproblem(instance, slot=0, x_prev=None):
    if x_prev is None:
        x_prev = np.zeros((instance.num_clouds, instance.num_users))
    return RegularizedSubproblem.from_instance(
        instance, slot, x_prev, eps1=1.0, eps2=1.0
    )


class TestCertifySolution:
    def test_solver_result_certifies_tightly(self, small_run):
        instance, algorithm, _ = small_run
        subproblem = _subproblem(instance)
        certificate = certify_solution(subproblem, algorithm.last_solves[0])
        assert certificate.ok()
        assert certificate.relative_gap <= 1e-6
        assert certificate.kkt_residual < 1e-4
        assert certificate.source in ("solver", "recovered")
        assert certificate.backend == algorithm.last_solves[0].backend
        # The solver's own multipliers certify its point at the stop rule.
        assert certificate.solver_gap is not None
        assert certificate.solver_gap <= 1e-9

    def test_bare_point_uses_recovered_multipliers(self, small_run):
        instance, _, schedule = small_run
        subproblem = _subproblem(instance)
        certificate = certify_solution(subproblem, schedule.x[0].ravel())
        assert certificate.source == "recovered"
        assert certificate.solver_gap is None
        assert certificate.ok()

    def test_suboptimal_point_gets_a_large_gap(self, small_run):
        instance, _, _ = small_run
        subproblem = _subproblem(instance)
        # The canonical interior point is feasible but far from optimal.
        certificate = certify_solution(subproblem, subproblem.interior_point())
        assert not certificate.ok()
        assert certificate.relative_gap > 1e-3

    def test_gap_bound_is_an_actual_upper_bound(self, small_run):
        """f(x) - bound <= f(x*) for a clearly suboptimal feasible x."""
        instance, algorithm, _ = small_run
        subproblem = _subproblem(instance)
        optimum = float(subproblem.objective(algorithm.last_solves[0].x))
        point = subproblem.interior_point()
        theta, rho = recover_multipliers(subproblem, point)
        gap = duality_gap_bound(subproblem, point, theta, rho)
        value = float(subproblem.objective(point))
        assert value - gap <= optimum + 1e-8

    def test_gap_bound_nonnegative_for_any_multipliers(self, small_run):
        instance, algorithm, _ = small_run
        subproblem = _subproblem(instance)
        flat = algorithm.last_solves[0].x
        zeros_t = np.zeros(subproblem.num_users)
        zeros_r = np.zeros(subproblem.num_clouds)
        assert duality_gap_bound(subproblem, flat, zeros_t, zeros_r) >= 0.0

    def test_lp_multipliers_realize_the_frank_wolfe_gap(self, small_run):
        """With exact LP duals the closed-form bound equals
        ``grad·x - min_y grad·y`` and never loses to the other sources."""
        instance, algorithm, _ = small_run
        subproblem = _subproblem(instance)
        flat = algorithm.last_solves[0].x
        theta, rho = lp_multipliers(subproblem, flat)
        assert theta.shape == (subproblem.num_users,)
        assert rho.shape == (subproblem.num_clouds,)
        assert (theta >= 0).all() and (rho >= 0).all()
        lp_gap = duality_gap_bound(subproblem, flat, theta, rho)
        theta_r, rho_r = recover_multipliers(subproblem, flat)
        assert lp_gap <= duality_gap_bound(subproblem, flat, theta_r, rho_r) * (
            1 + 1e-9
        )


class TestInRunCertification:
    def test_certify_flag_populates_certificates(self, small_run):
        instance, algorithm, _ = small_run
        assert len(algorithm.last_certificates) == instance.num_slots
        assert [c.slot for c in algorithm.last_certificates] == [0, 1, 2]
        assert all(c.ok() for c in algorithm.last_certificates)
        assert worst_certificate(algorithm.last_certificates) is max(
            algorithm.last_certificates, key=lambda c: c.relative_gap
        )

    def test_certify_off_is_bit_identical(self):
        instance = Scenario(num_users=6, num_slots=3).build(seed=11)
        plain = OnlineRegularizedAllocator(certify=False).run(instance)
        certified = OnlineRegularizedAllocator(certify=True).run(instance)
        assert np.array_equal(plain.x, certified.x)  # exact equality


class TestRecording:
    def test_record_certificate_emits_metrics_and_event(self, small_run):
        _, algorithm, _ = small_run
        certificate = algorithm.last_certificates[0]
        with telemetry_session() as registry:
            record_certificate(certificate)
        assert registry.histogram("diag.kkt.residual").count == 1
        assert registry.histogram("diag.duality_gap").count == 1
        events = [e for e in registry.events if e["type"] == "diag.certificate"]
        assert len(events) == 1
        assert events[0]["relative_gap"] == certificate.relative_gap
        assert events[0]["source"] == certificate.source

    def test_record_is_noop_when_disabled(self, small_run):
        _, algorithm, _ = small_run
        record_certificate(algorithm.last_certificates[0])  # must not raise


class TestWorstCertificate:
    def test_empty_is_none(self):
        assert worst_certificate([]) is None
