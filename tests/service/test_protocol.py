"""Wire-protocol validation: every malformed input is a ProtocolError."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    AllocationSession,
    ProtocolError,
    ServiceConfig,
    encode,
    observation_to_update,
    parse_message,
    parse_update,
)
from repro.service.protocol import _has_boolean_literal
from repro.simulation.observations import SlotObservation
from repro.telemetry import telemetry_session


def _update(slot=0, num_clouds=3, num_users=4, **overrides):
    message = {
        "type": "update",
        "slot": slot,
        "op_prices": [1.0] * num_clouds,
        "attachment": [0] * num_users,
        "access_delay": [0.1] * num_users,
    }
    message.update(overrides)
    return message


#: Lines that once escaped ``AllocationSession.handle_line`` as an
#: exception or were silently truncated: nesting past the recursion
#: limit, an attachment entry beyond int64 (``orjson`` decodes it as a
#: float) and a fractional one (``np.asarray`` truncated 1.5 to 1), and
#: JSON booleans, which ``array.array`` took as 1/0.
HOSTILE_LINES = {
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "attachment-beyond-int64": json.dumps(_update(attachment=[2**70, 0, 0, 0])),
    "attachment-fractional": json.dumps(_update(attachment=[1.5, 0, 0, 0])),
    "attachment-boolean": json.dumps(_update(attachment=[1, False, 0, 0])),
    "access-delay-boolean": json.dumps(_update(access_delay=[0.1, True, 0.1, 0.1])),
}

def _with_price(literal: str) -> str:
    """A valid update line whose first operation price reads ``literal``."""
    return json.dumps(_update()).replace("[1.0,", f"[{literal},", 1)


#: Literals ``json.loads`` accepted and the wire decoder refuses as
#: invalid JSON.
REFUSED_LITERALS = {
    **{
        literal: _with_price(literal)
        for literal in ("NaN", "Infinity", "-Infinity", "1e400")
    },
    "lone-surrogate": '{"type": "hello", "client": "\\ud800"}',
}

#: Doubles that stress a decimal-to-binary parser: signed zero, the
#: subnormal range and its edges, the largest double, 17-digit mantissas.
EDGE_DOUBLES = [
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1 / 3,
    9007199254740993.0,
    1.2345678901234567e-300,
    4.9406564584124654e-310,
]


class TestParseMessage:
    def test_round_trips_a_valid_line(self):
        line = encode({"type": "hello"})
        assert line.endswith(b"\n")
        assert parse_message(line) == {"type": "hello"}
        assert parse_message(line.decode("utf-8")) == {"type": "hello"}

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "   \n",
            '{"type": "update", "slot":',  # torn mid-message
            '"just a string"',
            "[1, 2, 3]",
            '{"type": "launch_missiles"}',
            '{"no_type": true}',
            b"\xff\xfe invalid utf-8 \xff",
            pytest.param(HOSTILE_LINES["deep-nesting"], id="deep-nesting"),
        ],
    )
    def test_rejects_malformed_lines(self, line):
        with pytest.raises(ProtocolError):
            parse_message(line)

    @pytest.mark.parametrize(
        "field, values",
        [
            ("op_prices", [1.0, True, 1.0]),
            ("attachment", [0, 1, False, 2]),
            ("access_delay", [0.1, 0.2, 0.3, True]),
            ("access_delay", [False, 0.2, 0.3, 0.4]),
        ],
    )
    def test_refuses_json_booleans_in_vectors(self, field, values):
        line = encode(_update(**{field: values}))
        with pytest.raises(ProtocolError, match=f"{field} entries must be numbers"):
            parse_message(line)
        with pytest.raises(ProtocolError, match="not JSON booleans"):
            parse_message(line.decode("utf-8"))

    def test_booleans_outside_the_vectors_are_left_alone(self):
        # The literal gates the entry check; the vectors themselves pass.
        message = _update(client={"verbose": True, "dry_run": False})
        assert parse_message(encode(message)) == message

    @given(text=st.text(alphabet="truefals_u0f,[]", max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_boolean_literal_scan_matches_substring_search(self, text):
        want = "true" in text or "false" in text
        assert _has_boolean_literal(text) is want
        assert _has_boolean_literal(text.encode("utf-8")) is want

    @pytest.mark.parametrize("literal", sorted(REFUSED_LITERALS))
    def test_refuses_literals_the_stdlib_accepted(self, literal, tiny_stream):
        line = REFUSED_LITERALS[literal]
        json.loads(line)  # the stdlib decoder took it
        with pytest.raises(ProtocolError, match="invalid JSON"):
            parse_message(line)
        system, _ = tiny_stream
        with telemetry_session() as registry:
            reply = AllocationSession(system, ServiceConfig()).handle_line(line)
        assert reply["type"] == "error" and reply["expected_slot"] == 0
        assert registry.counter("service.protocol.rejected").value == 1

    @pytest.mark.parametrize("name", sorted(HOSTILE_LINES))
    def test_hostile_lines_are_one_counted_error_reply(self, name, tiny_stream):
        system, _ = tiny_stream
        with telemetry_session() as registry:
            reply = AllocationSession(system, ServiceConfig()).handle_line(
                HOSTILE_LINES[name]
            )
        assert reply["type"] == "error" and reply["expected_slot"] == 0
        assert registry.counter("service.protocol.rejected").value == 1


class TestParseUpdate:
    def _parse(self, message, expected_slot=0):
        return parse_update(
            message, expected_slot=expected_slot, num_clouds=3, num_users=4
        )

    def test_accepts_a_well_formed_update(self):
        observation = self._parse(_update())
        assert observation.slot == 0
        assert observation.op_prices.shape == (3,)
        assert observation.attachment.shape == (4,)
        assert observation.access_delay.shape == (4,)

    def test_rejects_late_updates(self):
        with pytest.raises(ProtocolError, match="late update.*already solved"):
            self._parse(_update(slot=1), expected_slot=3)

    def test_rejects_future_updates(self):
        with pytest.raises(ProtocolError, match="future update.*skip slots"):
            self._parse(_update(slot=5), expected_slot=3)

    @pytest.mark.parametrize("slot", ["0", 1.5, None, True])
    def test_rejects_non_integer_slots(self, slot):
        with pytest.raises(ProtocolError, match="slot must be an integer"):
            self._parse(_update(slot=slot))

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ProtocolError, match="op_prices"):
            self._parse(_update(op_prices=[1.0, 2.0]))
        with pytest.raises(ProtocolError, match="attachment"):
            self._parse(_update(attachment=[[0, 1], [2, 0]]))
        with pytest.raises(ProtocolError, match="missing"):
            message = _update()
            del message["access_delay"]
            self._parse(message)

    def test_rejects_non_numeric_and_non_finite_values(self):
        with pytest.raises(ProtocolError, match="not numeric"):
            self._parse(_update(op_prices=["a", "b", "c"]))
        with pytest.raises(ProtocolError, match="non-finite"):
            self._parse(_update(access_delay=[0.1, float("nan"), 0.1, 0.1]))

    @pytest.mark.parametrize(
        "entry",
        [1.5, 2**70, -(2**70), 2**63, 1e21, "1", None, [0]],
        ids=[
            "fractional",
            "above-int64",
            "below-int64",
            "int64-max-plus-one",
            "integral-float",
            "string",
            "null",
            "list",
        ],
    )
    def test_rejects_attachment_entries_outside_int64(self, entry):
        message = _update(attachment=[entry, 0, 0, 0])
        # In process, and as the wire decoder hands it over.
        for candidate in (message, parse_message(json.dumps(message))):
            with pytest.raises(ProtocolError, match="entries must be int64"):
                self._parse(candidate)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("op_prices", ["1.5", "2", " 3 "]),
            ("op_prices", [1.0, "2", 3.0]),
            ("access_delay", ["0.1", "0.2", "0.3", "0.4"]),
            ("access_delay", [0.1, 0.2, None, 0.4]),
        ],
        ids=[
            "op-prices-all-strings",
            "op-prices-one-string",
            "access-delay-all-strings",
            "access-delay-null",
        ],
    )
    def test_rejects_numeric_strings_in_float_vectors(self, field, value):
        message = _update(**{field: value})
        # In process, and as the wire decoder hands it over.
        for candidate in (message, parse_message(json.dumps(message))):
            with pytest.raises(ProtocolError, match=f"{field} is not numeric"):
                self._parse(candidate)

    def test_rejects_out_of_range_attachment(self):
        with pytest.raises(ProtocolError, match="attachment entries"):
            self._parse(_update(attachment=[0, 1, 3, 0]))
        with pytest.raises(ProtocolError, match="attachment entries"):
            self._parse(_update(attachment=[0, -1, 2, 0]))


class TestEncoding:
    def test_observation_round_trip(self):
        observation = SlotObservation(
            slot=2,
            op_prices=np.array([1.0, 2.0, 3.0]),
            attachment=np.array([0, 1, 2, 1]),
            access_delay=np.array([0.1, 0.2, 0.3, 0.4]),
        )
        message = json.loads(encode(observation_to_update(observation)))
        parsed = parse_update(
            message, expected_slot=2, num_clouds=3, num_users=4
        )
        assert parsed.slot == observation.slot
        assert np.array_equal(parsed.op_prices, observation.op_prices)
        assert np.array_equal(parsed.attachment, observation.attachment)
        assert np.array_equal(parsed.access_delay, observation.access_delay)


wire_doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    EDGE_DOUBLES
)


@given(data=st.data(), num_users=st.integers(min_value=1, max_value=40))
@settings(max_examples=150, deadline=None)
def test_decoder_is_bit_equal_to_the_stdlib_reference(data, num_users):
    """``parse_message`` + ``parse_update`` read what ``json.loads`` reads."""

    def vector(elements, length):
        return np.array(data.draw(st.lists(elements, min_size=length, max_size=length)))

    observation = SlotObservation(
        slot=data.draw(st.integers(min_value=0, max_value=2**40)),
        op_prices=vector(wire_doubles, 3),
        attachment=vector(st.integers(0, 2), num_users),
        access_delay=vector(wire_doubles, num_users),
    )
    line = encode(observation_to_update(observation))
    shape = dict(expected_slot=observation.slot, num_clouds=3, num_users=num_users)
    decoded = parse_update(parse_message(line), **shape)
    reference = parse_update(json.loads(line), **shape)
    for field in ("op_prices", "attachment", "access_delay"):
        got, want = getattr(decoded, field), getattr(reference, field)
        sent = np.asarray(getattr(observation, field), dtype=want.dtype)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes() == sent.tobytes()
