"""Golden alert sequences: the one alerting engine reproduces its predecessors.

Every sequence below was recorded at commit 86b6b2f, before the watchdog
rules (``telemetry/watchdog.py``) and the SLO tracker
(``telemetry/slo.py``) were merged into :mod:`repro.telemetry.alerting`:
the streams of ``alert_streams.py`` were replayed through the old rule
classes, the old SLO objectives and the old watchdog sink (with its
cooldown), and the incident-smoke storm through the serving session.
The unified rules must reproduce them exactly. Fallback-storm alerts
carried ``slot=None`` at 86b6b2f and later the slot they fired on. Since the
fallback-storm rule and the fallback-rate objective were retired with
the SciPy fallback solver, their storm and burn cases replay the same
positions as deadline misses (``alert_streams.py``), and the mixed
stream's golden drops their firings; each changed line carries a
``# was ...`` note with its earlier text.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro import Scenario
from repro.service import AllocationSession, ServiceConfig, run_loadgen
from repro.simulation.observations import (
    SystemDescription,
    observations_from_instance,
)
from repro.telemetry import (
    AlertEvaluator,
    AlertSink,
    FlightRecorder,
    MetricsRegistry,
    RingSink,
    Rule,
    alerting,
    default_rules,
    default_slos,
    read_bundle,
    streaming_manifest_session,
)
from tests.conftest import make_tiny_instance
from tests.telemetry.alert_streams import BURN_STREAMS, ENGINE_STREAMS, SINK_STREAMS

DEFAULTS = {rule.name: rule for rule in default_rules()}


def _rule(name: str, **changes) -> Rule:
    """A default rule with some thresholds changed."""
    return replace(DEFAULTS[name], **changes)


def _miss_objective(**changes) -> Rule:
    return replace(
        Rule(
            "deadline-miss",
            "deadline-miss",
            budget=0.1,
            window=8,
            slow_window=16,
            fast_burn=5.0,
            slow_burn=2.0,
            min_samples=4,
        ),
        **changes,
    )


_SMALL = dict(budget=0.5, window=4, slow_window=8, fast_burn=1.5, slow_burn=1.0,
              min_samples=2)

#: case -> (rules, [(rule, slot)] of every firing, cooldown not applied).
ENGINE_GOLDENS = {
    "stall-after-warmup": ([_rule("solver-stall")], [("solver-stall", 20)]),
    "stall-warmup-silent": ([_rule("solver-stall")], []),
    "stall-ordinary": ([_rule("solver-stall")], []),
    "miss-storm-once": (  # was "fallback-storm-once"
        [_rule("deadline-miss")],  # was [_rule("fallback-storm")]
        [("deadline-miss", 0)],  # was [("fallback-storm", 0)]
    ),
    # was "fallback-spread": ([_rule("fallback-storm", window=10)], [])
    "miss-spread": ([_rule("deadline-miss", window=10)], []),
    "certificate-gap": ([_rule("certificate-gap")], [("certificate-gap", 2)]),
    "ratio-point": ([_rule("ratio-over-bound")], [("ratio-over-bound", 4)]),
    "ratio-violation": ([_rule("ratio-over-bound")], [("ratio-over-bound", 1)]),
    "alert-not-reevaluated": (default_rules(), []),
    "alerts-accumulate": (
        [_rule("certificate-gap", limit=0.0)],
        [("certificate-gap", 0), ("certificate-gap", 1)],
    ),
    "deadline-fires-once": (
        [_rule("deadline-miss", count=2, window=5)],
        [("deadline-miss", 1)],
    ),
    "deadline-age-out": ([_rule("deadline-miss", count=2, window=3)], []),
    "deadline-threshold-one": (
        [_rule("deadline-miss", count=1, window=2)],
        [("deadline-miss", 0), ("deadline-miss", 4)],
    ),
    "deadline-default": ([_rule("deadline-miss")], []),
    "two-miss-storms": (  # was "two-fallback-storms"
        default_rules(),
        # was [("fallback-storm", 4), ("fallback-storm", 72)]
        [("deadline-miss", 4), ("deadline-miss", 72)],
    ),
    "mixed": (
        default_rules(),
        [
            # was ("fallback-storm", 7)
            ("solver-stall", 30),
            ("certificate-gap", 40),
            ("ratio-over-bound", 45),
            ("ratio-over-bound", 45),
            # was ("fallback-storm", 52)
            ("deadline-miss", 62),
        ],
    ),
}

#: case -> (rules, [(objective, state, slot)] transitions, final burn rates
#: as {objective: (fast, slow, firing)}).
BURN_GOLDENS = {
    "all-good": ((_miss_objective(),), [], {"deadline-miss": (0.0, 0.0, False)}),
    "storm-resolves": (
        (_miss_objective(),),
        [("deadline-miss", "firing", 3), ("deadline-miss", "resolved", 12)],
        {"deadline-miss": (0.0, 0.0, False)},
    ),
    "short-blip": (
        (_miss_objective(min_samples=6),),
        [],
        {"deadline-miss": (10.0, 10.0, False)},
    ),
    "slow-window-gates": (
        (_miss_objective(slow_burn=6.0),),
        [],
        {"deadline-miss": (10.0, 5.0, False)},
    ),
    "latency": (
        (Rule("latency", "latency", limit=10.0, **_SMALL),),
        [("latency", "firing", 1)],
        {"latency": (2.0, 2.0, True)},
    ),
    "miss-burn": (  # was "fallback"
        (Rule("deadline-miss", "deadline-miss", **_SMALL),),  # was "fallback"
        [("deadline-miss", "firing", 1)],  # was "fallback"
        {"deadline-miss": (2.0, 2.0, True)},  # was "fallback"
    ),
    "miss-clears": (  # was "fallback-clears"
        (default_slos()[1],),  # was default_slos()[2], the fallback-rate SLO
        [],
        {"deadline-miss": (50.0, 50.0, False)},  # was "fallback-rate"
    ),
    "ratio-bound": (
        (default_slos()[2],),  # was default_slos()[3]
        [("ratio-bound", "firing", 3)],
        {"ratio-bound": (1000.0, 1000.0, True)},
    ),
    "unknown-records": (default_slos(), [], {}),
    "mixed": (
        default_slos(),
        [
            # was ("fallback-rate", "firing", 7)
            # was ("fallback-rate", "resolved", 30)
            ("ratio-bound", "firing", 45),
            ("deadline-miss", "firing", 63),
            ("ratio-bound", "resolved", 77),
            ("deadline-miss", "resolved", 92),
        ],
        {
            "latency-p99": (0.0, 1.0, False),
            "deadline-miss": (0.0, 4.0, False),
            # was "fallback-rate": (0.0, 6.0, False)
            "ratio-bound": (0.0, 10.0, False),
        },
    ),
}

_GAP = [_rule("certificate-gap", limit=0.0)]

#: case -> (stream, rules, cooldown, emitted records, suppressed, point and
#: storm firings).
SINK_GOLDENS = {
    "cooldown-25": ("cooldown", _GAP, 25, [("alert", "certificate-gap", 0)], 9, 10),
    "cooldown-3": (
        "cooldown",
        _GAP,
        3,
        [("alert", "certificate-gap", slot) for slot in (0, 3, 6, 9)],
        6,
        10,
    ),
    "cooldown-0": (
        "cooldown",
        _GAP,
        0,
        [("alert", "certificate-gap", slot) for slot in range(10)],
        0,
        10,
    ),
    "mixed": (
        "mixed",
        default_rules() + default_slos(),
        25,
        [
            # was ("alert", "fallback-storm", 7)
            # was ("slo.burn", "fallback-rate", "firing", 7)
            # was ("alert", "slo:fallback-rate", 7)
            ("alert", "solver-stall", 30),
            # was ("slo.burn", "fallback-rate", "resolved", 30)
            ("alert", "certificate-gap", 40),
            ("alert", "ratio-over-bound", 45),
            ("slo.burn", "ratio-bound", "firing", 45),
            ("alert", "slo:ratio-bound", 45),
            # was ("alert", "fallback-storm", 52)
            ("alert", "deadline-miss", 62),
            ("slo.burn", "deadline-miss", "firing", 63),
            ("alert", "slo:deadline-miss", 63),
            ("slo.burn", "ratio-bound", "resolved", 77),
            ("slo.burn", "deadline-miss", "resolved", 92),
        ],
        1,
        5,  # was 7 (two fallback-storm firings)
    ),
}

#: The mixed stream's burn-rate gauges after the last record.
MIXED_GAUGES = {
    # was "slo.burn.fast.fallback-rate": 0.0
    # was "slo.burn.slow.fallback-rate": 6.0
    "slo.burn.fast.ratio-bound": 0.0,
    "slo.burn.slow.ratio-bound": 10.0,
    "slo.burn.fast.latency-p99": 0.0,
    "slo.burn.slow.latency-p99": 1.0,
    "slo.burn.fast.deadline-miss": 0.0,
    "slo.burn.slow.deadline-miss": 4.0,
}

_BOTH = ["alert:deadline-miss", "alert:slo:deadline-miss"]

#: Serving storms (every slot truncated to one Newton iteration): the
#: alerts fed to the session's flight recorder, and the bundles written.
SERVICE_GOLDENS = {
    "incident-smoke": ([("deadline-miss", 2), ("slo:deadline-miss", 7)], _BOTH),
    "tiny-storm": ([("deadline-miss", 2)], ["alert:deadline-miss"]),
    "long-storm": ([("deadline-miss", 2), ("slo:deadline-miss", 7)], _BOTH),
}


@pytest.mark.parametrize("case", sorted(ENGINE_GOLDENS))
def test_engine_firings_match_the_golden(case):
    rules, golden = ENGINE_GOLDENS[case]
    evaluator = AlertEvaluator(rules)
    for record in ENGINE_STREAMS[case]:
        evaluator.observe(record)
    assert [(a.rule, a.slot) for a in evaluator.alerts] == golden


@pytest.mark.parametrize("case", sorted(BURN_GOLDENS))
def test_burn_transitions_match_the_golden(case):
    rules, golden, rates = BURN_GOLDENS[case]
    evaluator = AlertEvaluator(rules)
    transitions = [
        (raised["objective"], raised["state"], raised.get("slot"))
        for record in BURN_STREAMS[case]
        for raised in evaluator.observe(record)
        if raised["type"] == "slo.burn"
    ]
    assert transitions == golden
    assert {
        name: (r["fast"], r["slow"], r["firing"])
        for name, r in evaluator.burn_rates().items()
    } == rates


@pytest.mark.parametrize("case", sorted(SINK_GOLDENS))
def test_emitted_stream_matches_the_golden(case, monkeypatch):
    stream, rules, cooldown, golden, suppressed, fired = SINK_GOLDENS[case]
    monkeypatch.setattr(alerting, "ALERT_COOLDOWN", cooldown)
    ring = RingSink(capacity=10_000)
    sink = AlertSink(ring, rules)
    registry = MetricsRegistry(sink=sink)
    sink.bind(registry)
    for record in SINK_STREAMS[stream]:
        payload = dict(record)
        registry.event(payload.pop("type"), **payload)
    emitted = [
        ("alert", r["rule"], r.get("slot"))
        if r["type"] == "alert"
        else ("slo.burn", r["objective"], r["state"], r.get("slot"))
        for r in ring.records
        if r["type"] in ("alert", "slo.burn")
    ]
    assert emitted == golden
    assert sink.evaluator.suppressed == suppressed
    assert registry.counter("watchdog.suppressed").value == suppressed
    non_slo = [a for a in sink.evaluator.alerts if not a.rule.startswith("slo:")]
    assert len(non_slo) == fired
    if case == "mixed":
        gauges = registry.snapshot()["gauges"]
        assert {k: v for k, v in gauges.items() if k.startswith("slo.burn.")} == (
            MIXED_GAUGES
        )


@pytest.mark.parametrize("case", sorted(SERVICE_GOLDENS))
def test_serving_storm_matches_the_golden(case, tmp_path, monkeypatch):
    golden_alerts, golden_reasons = SERVICE_GOLDENS[case]
    fed = []
    observe_event = FlightRecorder.observe_event

    def spy(recorder, record):
        if record.get("type") == "alert":
            fed.append((record["rule"], record.get("slot")))
        observe_event(recorder, record)

    monkeypatch.setattr(FlightRecorder, "observe_event", spy)
    if case == "incident-smoke":
        instance = Scenario(num_users=6, num_slots=10).build(seed=7)
    else:
        instance = make_tiny_instance(num_slots=12 if case == "long-storm" else 5)
    system = SystemDescription.from_instance(instance)
    observations = observations_from_instance(instance)
    config = ServiceConfig(max_iterations=1)
    recorder = FlightRecorder(
        6 if case == "incident-smoke" else 4, incident_dir=tmp_path
    )
    with streaming_manifest_session(
        None, rules=default_rules() + default_slos(), recorder=recorder
    ):
        if case == "incident-smoke":
            report = run_loadgen(
                system, observations, config, speed=0, batch_reference=False
            )
            bundles = report.incident_bundles
        else:
            session = AllocationSession(system, config)
            for observation in observations:
                session.step(observation)
            bundles = recorder.bundles_written
    assert fed == golden_alerts
    assert [read_bundle(path).reason for path in bundles] == golden_reasons
    assert [Path(path).name for path in bundles] == [
        f"incident-{index:03d}-{reason[len('alert:'):].replace(':', '-')}.jsonl"
        for index, reason in enumerate(golden_reasons)
    ]
