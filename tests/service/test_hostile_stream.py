"""Rejected updates never advance the aggregated session's mover baseline.

An aggregated slot regroups only the users whose attachment changed
since the last *accepted* update. Hypothesis builds ``serve --stdio``
streams that mix torn, duplicated, late, future and wrong-length lines —
each carrying an attachment of its own — between the valid updates of a
churning stream, and runs them through :func:`serve_stdio` on an
aggregated :class:`AllocationSession`. Every hostile line must be one
``error`` reply, and the streamed total cost must equal the batch
:func:`simulate` cost over the accepted updates to 1e-9.
"""

import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import AggregationConfig
from repro.core.regularization import OnlineRegularizedAllocator
from repro.service import AllocationSession, ServiceConfig, observation_to_update
from repro.service.server import serve_stdio
from repro.simulation.observations import SystemDescription, iter_observations
from repro.simulation.spine import simulate
from tests.aggregate.test_factored_accounting import churned_instance

HOSTILE = ("torn", "duplicate", "late", "future", "short", "long")


def _hostile_line(kind, slot, updates, rng, num_clouds):
    """One line the session must refuse while it expects ``slot``."""
    update = dict(updates[slot])
    scrambled = rng.integers(0, num_clouds, size=len(update["attachment"])).tolist()
    if kind == "torn":
        text = json.dumps(update)
        return text[: len(text) // 2]
    if kind == "duplicate" and slot > 0:
        return json.dumps(updates[slot - 1])
    if kind == "late" and slot > 0:
        return json.dumps({**updates[slot - 1], "attachment": scrambled})
    if kind == "future" and slot + 1 < len(updates):
        return json.dumps({**updates[slot + 1], "attachment": scrambled})
    if kind == "long":
        return json.dumps({**update, "attachment": scrambled + [0]})
    # "short", and the kinds with no neighbouring slot to borrow from.
    return json.dumps({**update, "attachment": scrambled[:-1]})


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_users=st.integers(min_value=2, max_value=16),
    num_clouds=st.integers(min_value=2, max_value=4),
    num_slots=st.integers(min_value=1, max_value=5),
    buckets=st.sampled_from([None, 3]),
    hostile=st.lists(st.lists(st.sampled_from(HOSTILE), max_size=3), max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_streamed_cost_equals_batch_over_the_accepted_updates(
    seed, num_users, num_clouds, num_slots, buckets, hostile
):
    instance = churned_instance(seed, num_users, num_clouds, num_slots, churn=0.3)
    system = SystemDescription.from_instance(instance)
    observations = list(iter_observations(instance))
    updates = [observation_to_update(o) for o in observations]
    rng = np.random.default_rng(seed)
    lines, refused = [json.dumps({"type": "hello"})], 0
    for slot in range(num_slots):
        kinds = hostile[slot] if slot < len(hostile) else []
        lines += [_hostile_line(k, slot, updates, rng, num_clouds) for k in kinds]
        refused += len(kinds)
        lines.append(json.dumps(updates[slot]))
    config = AggregationConfig(lambda_buckets=buckets)
    session = AllocationSession(system, ServiceConfig(aggregation=config))
    out = io.StringIO()

    served = serve_stdio(session, io.StringIO("\n".join(lines) + "\n"), out)

    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    kinds = [reply["type"] for reply in replies]
    assert served == num_slots
    assert kinds.count("slot_result") == num_slots
    assert kinds.count("error") == refused
    batch = simulate(
        OnlineRegularizedAllocator().as_controller(system),
        observations,
        system,
        keep_schedule=False,
        aggregation=config,
    )
    assert abs(session.total_cost - batch.total_cost) <= 1e-9 * max(
        1.0, abs(batch.total_cost)
    )
