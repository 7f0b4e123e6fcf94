"""The service's JSON-lines wire protocol.

One JSON object per line, both directions. Client messages:

* ``{"type": "hello"}`` — handshake; the server replies ``welcome`` with
  the system shape and the slot it expects next.
* ``{"type": "update", "slot": t, "op_prices": [...], "attachment":
  [...], "access_delay": [...]}`` — the slot-t observation; the server
  solves it and replies ``slot_result``. An optional ``"trace"`` field
  (a :meth:`repro.telemetry.TraceContext.to_wire` dict) propagates the
  client's distributed-trace context: the server solves the slot under
  it and echoes its ``trace_id`` on the ``slot_result``, making the
  update → solve → reply round-trip one connected trace. A malformed
  trace field is ignored (observability must never reject a request).
* ``{"type": "reset"}`` — start a fresh horizon (slot 0, zero carried
  decision, cold solver caches); reply ``reset_ok``.
* ``{"type": "stats"}`` — reply ``stats`` with slot counts, cost totals,
  deadline misses, and latency percentiles.

Client lines are decoded with ``orjson`` (strict RFC 8259: the ``NaN``,
``Infinity`` and ``-Infinity`` literals, numbers that overflow a double
and lone surrogates are invalid JSON); replies are encoded with the
standard library, so their bytes do not depend on the decoder. An update
whose vectors hold a JSON ``true`` or ``false`` is refused; only a line
that spells one of those literals somewhere has its entries looked at.

Malformed input — torn or invalid JSON, a non-object line, a
wrong-shaped array, a non-integral or out-of-range attachment entry, a
*late* update (slot already solved) or a *future* one (slots skipped) —
raises :class:`ProtocolError`, which the session turns into an ``error``
reply **without** tearing down the session: the stream continues at the
same expected slot. See docs/SERVING.md.
"""

from __future__ import annotations

import array
import json

import numpy as np
import orjson

from ..simulation.observations import SlotObservation
from ..telemetry import TraceContext


class ProtocolError(ValueError):
    """A client message the service refuses (the session survives it)."""


#: Client message types the session dispatches on.
CLIENT_TYPES = ("hello", "update", "reset", "stats")


def parse_message(line: str | bytes) -> dict:
    """Decode one wire line into a message dict.

    Raises:
        ProtocolError: on torn/invalid JSON (non-UTF-8 bytes included) or
            a non-object payload.
    """
    if not line.strip():
        raise ProtocolError("empty line")
    try:
        payload = orjson.loads(line)
    except (orjson.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"torn or invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("type")
    if kind not in CLIENT_TYPES:
        raise ProtocolError(
            f"unknown message type {kind!r} (expected one of {CLIENT_TYPES})"
        )
    if kind == "update" and _has_boolean_literal(line):
        _refuse_booleans(payload)
    return payload


def _has_boolean_literal(line: str | bytes) -> bool:
    """Whether the raw line spells ``true`` or ``false`` anywhere.

    Equivalent to ``"true" in line or "false" in line``, but it hops
    between the line's ``u``s and ``f``s with single-character searches:
    an update has one ``u`` (in ``"update"``) and ``f``s only in hex
    trace ids, so the scan runs at ``memchr`` speed (a 634 kB line takes
    ~0.02 ms against ~0.9 ms for the two substring searches) and never
    visits the decoded lists.
    """
    if isinstance(line, str):
        literals = (("u", 2, "true"), ("f", 0, "false"))
    else:
        literals = ((b"u", 2, b"true"), (b"f", 0, b"false"))
    for letter, offset, word in literals:
        pos = line.find(letter)
        while pos != -1:
            if pos >= offset and line.startswith(word, pos - offset):
                return True
            pos = line.find(letter, pos + 1)
    return False


def _refuse_booleans(payload: dict) -> None:
    """Refuse JSON booleans in an update's vectors.

    ``array.array`` takes ``True``/``False`` as 1/0 (``bool`` is an
    ``int``), so without this an attachment entry ``false`` would put a
    user at cloud 0 and an ``access_delay`` of ``true`` would be solved
    as 1.0.
    """
    for key in ("op_prices", "attachment", "access_delay"):
        raw = payload.get(key)
        if isinstance(raw, list) and any(type(value) is bool for value in raw):
            raise ProtocolError(f"{key} entries must be numbers, not JSON booleans")


def _vector(payload: dict, key: str, length: int, kind: str) -> np.ndarray:
    """Extract one 1-D numeric array field, validating length and dtype."""
    raw = payload.get(key)
    if raw is None:
        raise ProtocolError(f"update is missing {key!r}")
    if kind == "int":
        # array.array refuses what np.asarray(..., np.int64) would
        # truncate (1.5 becomes 1) or let escape as OverflowError: floats
        # (orjson decodes integers beyond 64 bits as floats), strings,
        # None and integers outside int64.
        try:
            vector = np.frombuffer(array.array("q", raw), dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"{key} entries must be int64 integers: {exc}") from exc
    else:
        # array.array("d") refuses the numeric strings ("1.5") and nulls
        # that np.asarray(..., float) would convert. It takes booleans as
        # 0/1, like array.array("q"); parse_message refuses JSON ones.
        try:
            vector = np.frombuffer(array.array("d", raw))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"{key} is not numeric: {exc}") from exc
    if vector.ndim != 1 or vector.shape[0] != length:
        raise ProtocolError(
            f"{key} must be a length-{length} vector, got shape {vector.shape}"
        )
    # The wire decoder refuses non-finite literals; in-process callers
    # hand over dicts that can still carry them.
    if kind == "float" and not np.all(np.isfinite(vector)):
        raise ProtocolError(f"{key} contains non-finite values")
    return vector


def parse_update(
    payload: dict,
    *,
    expected_slot: int,
    num_clouds: int,
    num_users: int,
) -> SlotObservation:
    """Validate an ``update`` message into a :class:`SlotObservation`.

    The service is strictly in-order: the carried decision x*_{t-1} only
    makes sense against slot t, so a **late** update (``slot`` below the
    expected one — already solved) and a **future** one (``slot`` above —
    slots would be silently skipped) are both protocol errors. The
    session stays alive and keeps expecting the same slot.

    Raises:
        ProtocolError: on a slot mismatch or a wrong-shaped array.
    """
    slot_raw = payload.get("slot")
    if not isinstance(slot_raw, int) or isinstance(slot_raw, bool):
        raise ProtocolError(f"update slot must be an integer, got {slot_raw!r}")
    if slot_raw < expected_slot:
        raise ProtocolError(
            f"late update for slot {slot_raw}: slot already solved "
            f"(expecting slot {expected_slot})"
        )
    if slot_raw > expected_slot:
        raise ProtocolError(
            f"future update for slot {slot_raw}: would skip slots "
            f"(expecting slot {expected_slot})"
        )
    op_prices = _vector(payload, "op_prices", num_clouds, "float")
    attachment = _vector(payload, "attachment", num_users, "int")
    if attachment.size and (attachment.min() < 0 or attachment.max() >= num_clouds):
        raise ProtocolError(
            f"attachment entries must lie in [0, {num_clouds}), got "
            f"[{attachment.min()}, {attachment.max()}]"
        )
    access_delay = _vector(payload, "access_delay", num_users, "float")
    return SlotObservation(
        slot=slot_raw,
        op_prices=op_prices,
        attachment=attachment,
        access_delay=access_delay,
    )


def observation_to_update(
    observation: SlotObservation, *, trace: TraceContext | None = None
) -> dict:
    """The ``update`` message form of an observation (loadgen's encoder).

    When ``trace`` is given, the message carries the client's trace
    context so the server-side solve joins the client's trace.
    """
    message = {
        "type": "update",
        "slot": int(observation.slot),
        "op_prices": np.asarray(observation.op_prices, dtype=float).tolist(),
        "attachment": np.asarray(observation.attachment).astype(int).tolist(),
        "access_delay": np.asarray(observation.access_delay, dtype=float).tolist(),
    }
    if trace is not None:
        message["trace"] = trace.to_wire()
    return message


def encode(message: dict) -> bytes:
    """Serialize one reply as a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")
