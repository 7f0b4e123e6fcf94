"""Manifest cost verification on parallel sweeps and on damaged manifests.

A ``--workers 4`` run merges four per-cell registries into one manifest;
the ``(cell, run)`` keying must keep every run's slot events attached to
its own ``run_end`` so the per-slot sums still reconcile to 1e-9. A
truncated or damaged manifest must fail the check, not pass it.
"""

from __future__ import annotations

import pytest

from repro.analysis import load_manifest, verify_manifest_costs
from repro.cli import main
from repro.telemetry import RunRecord

TINY = ["--users", "4", "--slots", "2", "--repetitions", "2"]


@pytest.fixture(scope="module")
def pooled_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("pooled") / "run.jsonl"
    assert main(["fig2", *TINY, "--workers", "4", "--telemetry", str(path)]) == 0
    return load_manifest(path)


class TestPooledManifestCosts:
    def test_every_run_reconciles(self, pooled_manifest):
        checks = verify_manifest_costs(pooled_manifest)
        assert checks, "expected runs in the pooled manifest"
        for check in checks:
            assert check.slots == 2
            assert check.ok(tol=1e-9), (check.key, check.deviation)

    def test_runs_come_from_distinct_cells(self, pooled_manifest):
        keys = {check.key for check in verify_manifest_costs(pooled_manifest)}
        cells = {cell for cell, _ in keys}
        assert len(keys) == len(verify_manifest_costs(pooled_manifest))
        assert len(cells) > 1  # repetitions spread over several sweep cells

    def test_pooled_checks_match_serial(self, pooled_manifest, tmp_path):
        path = tmp_path / "serial.jsonl"
        assert main(["fig2", *TINY, "--workers", "1", "--telemetry", str(path)]) == 0
        serial = {
            check.key: check.summed
            for check in verify_manifest_costs(load_manifest(path))
        }
        pooled = {
            check.key: check.summed
            for check in verify_manifest_costs(pooled_manifest)
        }
        assert pooled.keys() == serial.keys()
        for key, summed in pooled.items():
            for name, value in summed.items():
                assert value == pytest.approx(serial[key][name], abs=1e-12)


def _slot(run, total, **fields):
    costs = {"op": total, "sq": 0.0, "rc": 0.0, "mg": 0.0, "total": total}
    return {"type": "slot", "cell": [0, run], "run": run, **costs, **fields}


def _run_end(run, total):
    totals = {
        "operation": total,
        "service_quality": 0.0,
        "reconfiguration": 0.0,
        "migration": 0.0,
        "total": total,
    }
    return {"type": "run_end", "cell": [0, run], "run": run, "totals": totals}


class TestDamagedManifests:
    def test_checks_follow_run_end_order(self):
        # Two runs whose slots interleave; run 2 ends first.
        events = [
            _slot(1, 1.0),
            _slot(2, 2.0),
            _slot(1, 0.5),
            _run_end(2, 2.0),
            _run_end(1, 1.5),
        ]
        checks = verify_manifest_costs(RunRecord(events=events))
        assert [check.key for check in checks] == [((0, 2), 2), ((0, 1), 1)]
        assert [check.slots for check in checks] == [1, 2]
        assert all(check.ok() for check in checks)
        assert checks[1].summed["operation"] == 1.5

    def test_a_wrong_total_fails_the_check(self):
        events = [_slot(1, 1.0), _run_end(1, 1.25)]
        (check,) = verify_manifest_costs(RunRecord(events=events))
        assert not check.ok()
        assert check.deviation == pytest.approx(0.25)

    def test_run_end_without_slots_raises(self):
        with pytest.raises(ValueError, match="run_end but no slot events"):
            verify_manifest_costs(RunRecord(events=[_run_end(1, 1.0)]))

    def test_slots_without_run_end_raise(self):
        events = [_slot(1, 1.0), _run_end(1, 1.0), _slot(2, 1.0)]
        with pytest.raises(ValueError, match="no run_end record"):
            verify_manifest_costs(RunRecord(events=events))

    def test_slot_missing_a_cost_field_raises(self):
        slot = _slot(1, 1.0)
        del slot["mg"]
        with pytest.raises(ValueError, match="missing a cost field"):
            verify_manifest_costs(RunRecord(events=[slot, _run_end(1, 1.0)]))
