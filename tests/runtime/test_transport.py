"""Transport protocol unit tests: framing edge cases, backpressure, and
conformance of both transports to one message vocabulary.

The tensor frame codec is the part of the TCP transport that cannot be
allowed to fail quietly: every structurally invalid body must raise
:class:`~repro.runtime.resilience.CorruptedPayloadError` (so the
router's retry machinery handles it), never return wrong numbers, and
never crash the stream with an untyped error.  These tests hit the
codec directly — no sockets — plus the :class:`CreditGate` backpressure
primitive, the per-shard slot free list of both transports.

The conformance tests pair each transport's router endpoint with its
worker transport inside this process — shm over a
``multiprocessing.Pipe`` plus a slot ring, TCP over a
``socket.socketpair`` — and check that every message of the vocabulary
comes out the other side as the same normalized event on both.
"""

import contextlib
import multiprocessing
import socket
import threading
import time

import numpy as np
import pytest

from repro.runtime import transport_tcp
from repro.runtime.resilience import CorruptedPayloadError
from repro.runtime.session import SessionSpec
from repro.runtime.shm_ring import ShmSlotRing
from repro.runtime.transport import (
    FRAME_HEADER,
    FRAME_TENSOR,
    MAX_FRAME_BYTES,
    MAX_MODEL_ID_BYTES,
    CreditGate,
    pack_bundle_payload,
    pack_control_frame,
    pack_tensor_frame,
    tensor_frame_meta,
    tensor_frame_req_id,
    unpack_control_body,
    unpack_tensor_frame,
    verify_bundle_payload,
)
from repro.runtime.transport_shm import ShmShardEndpoint, ShmWorkerTransport
from repro.runtime.transport_tcp import TcpShardEndpoint, TcpWorkerTransport


def _body(frame: bytes) -> bytes:
    """Strip the 5-byte (length, type) header off a packed frame."""
    length, ftype = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
    body = frame[FRAME_HEADER.size:]
    assert len(body) == length
    return body


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestTensorFrameRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int8])
    def test_dtype_roundtrip_bitwise(self, dtype):
        """The dtypes serving actually moves (inputs, logits, quantized
        payloads) must survive the wire bit-for-bit."""
        rng = np.random.default_rng(3)
        if np.issubdtype(dtype, np.floating):
            arr = rng.standard_normal((2, 3, 8, 8)).astype(dtype)
        else:
            arr = rng.integers(-128, 128, size=(2, 3, 8, 8), dtype=dtype)
        req_id, remaining, out, trace_id, model = unpack_tensor_frame(
            _body(pack_tensor_frame(17, arr))
        )
        assert req_id == 17 and remaining is None and trace_id == 0 and model == ""
        assert out.dtype == arr.dtype and out.flags.writeable
        np.testing.assert_array_equal(out, arr)

    def test_deadline_survives_as_remaining_seconds(self):
        arr = np.ones((1, 4), np.float32)
        _, remaining, _, _, _ = unpack_tensor_frame(_body(pack_tensor_frame(0, arr, 0.25)))
        assert remaining == pytest.approx(0.25)
        _, remaining, _, _, _ = unpack_tensor_frame(_body(pack_tensor_frame(0, arr, None)))
        assert remaining is None

    def test_trace_id_rides_the_frame(self):
        """A sampled request's trace id crosses the wire untouched (0 =
        unsampled, the overwhelmingly common case)."""
        arr = np.ones((1, 4), np.float32)
        tid = 0xDEADBEEFCAFEF00D
        req_id, _, _, trace_id, _ = unpack_tensor_frame(
            _body(pack_tensor_frame(3, arr, None, trace_id=tid))
        )
        assert req_id == 3 and trace_id == tid

    def test_model_id_rides_the_frame(self):
        """The model id names which session a multi-tenant worker should
        run; it must survive the wire exactly, including non-ASCII."""
        arr = np.ones((1, 4), np.float32)
        for name in ["alpha", "résnet-50", "m" * MAX_MODEL_ID_BYTES]:
            req_id, _, out, _, model = unpack_tensor_frame(
                _body(pack_tensor_frame(8, arr, model=name))
            )
            assert req_id == 8 and model == name
            np.testing.assert_array_equal(out, arr)
        assert tensor_frame_meta(
            _body(pack_tensor_frame(8, arr, 0.5, model="beta"))
        ) == (8, pytest.approx(0.5), 0, "beta")
        with pytest.raises(ValueError, match="model id"):
            pack_tensor_frame(0, arr, model="x" * (MAX_MODEL_ID_BYTES + 1))

    def test_meta_peeks_without_verifying(self):
        """A worker must be able to attribute a corrupt frame to its
        request id without decoding the (unverifiable) payload."""
        frame = pack_tensor_frame(99, np.ones((2, 2), np.float32), 1.5, trace_id=42)
        body = bytearray(_body(frame))
        body[-1] ^= 0xFF  # corrupt the payload
        assert tensor_frame_meta(bytes(body)) == (99, pytest.approx(1.5), 42, "")
        assert tensor_frame_req_id(bytes(body)) == 99
        with pytest.raises(CorruptedPayloadError, match="checksum"):
            unpack_tensor_frame(bytes(body))
        assert tensor_frame_meta(b"\x00" * 8) is None  # prefix cut short
        assert tensor_frame_meta(b"\x00" * 16) is None  # still short of req+trace+deadline
        assert tensor_frame_req_id(b"\x00\x01") is None

    def test_noncontiguous_input_is_framed_contiguously(self):
        arr = np.arange(64, dtype=np.float32).reshape(8, 8)[:, ::2]
        assert not arr.flags.c_contiguous
        _, _, out, _, _ = unpack_tensor_frame(_body(pack_tensor_frame(1, arr)))
        np.testing.assert_array_equal(out, arr)

    def test_control_frame_roundtrip(self):
        msg = ("err", 12, "deadline", "over budget")
        assert unpack_control_body(_body(pack_control_frame(msg))) == msg


# ----------------------------------------------------------------------
# Rejections (the satellite cases: zero-size, oversize, truncation)
# ----------------------------------------------------------------------
class TestFramingRejections:
    def test_zero_size_batch_refused_at_pack(self):
        """An empty batch can't produce a row per sample: refuse it at
        the framing boundary with a ValueError, not three processes
        later with a shape error."""
        with pytest.raises(ValueError, match="at least one sample"):
            pack_tensor_frame(0, np.empty((0, 3, 8, 8), np.float32))
        with pytest.raises(ValueError, match="zero-size"):
            pack_tensor_frame(0, np.empty((4, 0, 8, 8), np.float32))

    def test_zero_size_payload_refused_at_unpack(self):
        """A frame *claiming* zero size on the wire is corruption: pack
        never produces one."""
        frame = pack_tensor_frame(5, np.ones((2, 2), np.float32))
        body = bytearray(_body(frame))
        # zero out the dims (offset 30 = 8 req_id + 8 trace_id + 8 deadline
        # + 4 crc + 1 ndim + 1 empty-model length byte)
        body[30:38] = b"\x00" * 8
        with pytest.raises(CorruptedPayloadError, match="zero-size"):
            unpack_tensor_frame(bytes(body))

    def test_oversize_rank_refused_both_ways(self):
        with pytest.raises(ValueError, match="rank"):
            pack_tensor_frame(0, np.ones((1,) * 17, np.float32))
        frame = pack_tensor_frame(0, np.ones((2, 2), np.float32))
        body = bytearray(_body(frame))
        body[28] = 200  # ndim byte
        with pytest.raises(CorruptedPayloadError, match="rank"):
            unpack_tensor_frame(bytes(body))

    def test_larger_than_max_frame_refused(self):
        """Tensors past the frame bound raise instead of desynchronizing
        the stream (the router separately sizes requests to slot_bytes,
        far below this)."""

        class _HugeFake(np.ndarray):
            pass

        # don't allocate 1 GiB for real: check the bound arithmetic via a
        # modest array and the documented constant
        arr = np.ones((2, 2), np.float32)
        assert len(pack_tensor_frame(0, arr)) < MAX_FRAME_BYTES
        # the length prefix itself is validated on the read side too (see
        # read_frame), so a forged giant length can't cause a giant alloc

    @pytest.mark.parametrize(
        "cut",
        [
            4,    # inside the req_id/trace_id/deadline prefix
            26,   # inside the fixed header (prefix truncated)
            34,   # inside the dims
            43,   # inside the dtype string
            -3,   # inside the payload
        ],
    )
    def test_truncated_frame_raises_corrupted(self, cut):
        frame = pack_tensor_frame(7, np.arange(24, dtype=np.float64).reshape(2, 3, 4))
        body = _body(frame)
        with pytest.raises(CorruptedPayloadError, match="truncated|cut short"):
            unpack_tensor_frame(body[:cut])

    def test_payload_length_mismatch_raises(self):
        frame = pack_tensor_frame(7, np.ones((2, 3), np.float32))
        body = _body(frame)
        with pytest.raises(CorruptedPayloadError, match="payload"):
            unpack_tensor_frame(body + b"\x00\x00\x00\x00")  # too long

    def test_invalid_dtype_raises_corrupted(self):
        frame = pack_tensor_frame(7, np.ones(4, np.float32))
        body = bytearray(_body(frame))
        # dtype string starts after prefix(29) + model len(1) + dims(4) + len byte(1)
        body[35:38] = b"\xff\xff\xff"
        with pytest.raises(CorruptedPayloadError, match="dtype|truncated"):
            unpack_tensor_frame(bytes(body))

    def test_flipped_payload_byte_fails_checksum(self):
        frame = pack_tensor_frame(7, np.ones((4, 4), np.float32))
        body = bytearray(_body(frame))
        body[-1] ^= 0x01
        with pytest.raises(CorruptedPayloadError, match="checksum"):
            unpack_tensor_frame(bytes(body))


# ----------------------------------------------------------------------
# Bundle payloads: handshake/hot-load shipping of session bundles
# ----------------------------------------------------------------------
class TestBundlePayload:
    def test_roundtrip(self):
        data = b"\x00npz-bytes" * 100
        assert verify_bundle_payload("alpha", pack_bundle_payload(data)) == data

    def test_truncation_fails_typed_naming_the_model(self):
        """A half-shipped multi-bundle handshake must not half-load: the
        error is typed and says *which* model's bundle was damaged."""
        crc, size, data = pack_bundle_payload(b"x" * 512)
        with pytest.raises(CorruptedPayloadError, match="'beta'.*truncated"):
            verify_bundle_payload("beta", (crc, size, data[:100]))

    def test_bitflip_fails_checksum(self):
        crc, size, data = pack_bundle_payload(b"y" * 512)
        flipped = bytes([data[0] ^ 0x01]) + data[1:]
        with pytest.raises(CorruptedPayloadError, match="'gamma'.*checksum"):
            verify_bundle_payload("gamma", (crc, size, flipped))

    def test_malformed_tuple_fails_typed(self):
        with pytest.raises(CorruptedPayloadError, match="malformed"):
            verify_bundle_payload("delta", ("not", "a-bundle"))


# ----------------------------------------------------------------------
# CreditGate: the per-shard slot free list
# ----------------------------------------------------------------------
class TestCreditGate:
    def test_acquire_release_cycle(self):
        gate = CreditGate(2)
        a, b = gate.acquire(0.1), gate.acquire(0.1)
        assert {a, b} == {0, 1}
        assert gate.acquire(timeout=0.01) is None  # full -> timeout, not hang
        got: list = []
        waiter = threading.Thread(target=lambda: got.append(gate.acquire(timeout=5.0)))
        waiter.start()
        gate.release(a)  # wakes the blocked acquirer with the freed token
        waiter.join(timeout=5.0)
        assert not waiter.is_alive() and got == [a]
        gate.release(a)
        assert gate.acquire(0.1) == a  # LIFO free list
        assert gate.free == 0

    def test_double_release_rejected(self):
        gate = CreditGate(1)
        token = gate.acquire(0.1)
        gate.release(token)
        with pytest.raises(ValueError, match="double release"):
            gate.release(token)

    @pytest.mark.parametrize("token", [-1, 2, 99])
    def test_release_out_of_range_rejected(self, token):
        """Tokens are slot indices on shm: one outside ``0..credits-1``
        (a bogus slot in a worker reply) must not enter the free list."""
        gate = CreditGate(2)
        with pytest.raises(ValueError, match="out of range"):
            gate.release(token)
        assert gate.free == 2

    def test_close_wakes_blocked_acquirer_with_error(self):
        gate = CreditGate(1)
        gate.acquire(0.1)
        errors: list = []

        def blocked():
            try:
                gate.acquire(timeout=5.0)
            except RuntimeError as exc:
                errors.append(exc)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        gate.close()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert errors and "closed" in str(errors[0])
        with pytest.raises(RuntimeError, match="closed"):  # and so does every later one
            gate.acquire(timeout=5.0)

    def test_invalid_credit_count(self):
        with pytest.raises(ValueError, match="credits"):
            CreditGate(0)


# ----------------------------------------------------------------------
# Conformance: both transports carry one vocabulary (in process)
# ----------------------------------------------------------------------
SLOTS = 2
SLOT_BYTES = 4096


class _Process:
    """Worker-process handle of an in-process shm pair: always alive."""

    pid = None

    def is_alive(self):
        return True

    def terminate(self):
        pass

    def join(self, timeout=None):
        pass


@contextlib.contextmanager
def _shm_pair():
    router_conn, worker_conn = multiprocessing.Pipe()
    ring = ShmSlotRing.create(SLOTS, SLOT_BYTES)
    endpoint = ShmShardEndpoint(_Process(), router_conn, ring)
    worker = ShmWorkerTransport(
        worker_conn, ShmSlotRing.attach(ring.name, SLOTS, ring.slot_bytes)
    )
    try:
        yield endpoint, worker
    finally:
        worker.close()
        endpoint.close()
        endpoint.dispose()


@contextlib.contextmanager
def _tcp_pair():
    router_sock, worker_sock = socket.socketpair()
    endpoint = TcpShardEndpoint(router_sock, credits=SLOTS)
    worker = TcpWorkerTransport(worker_sock, payload_capacity=SLOT_BYTES)
    try:
        yield endpoint, worker
    finally:
        worker.close()
        endpoint.close()


PAIRS = {"shm": _shm_pair, "tcp": _tcp_pair}
X = np.arange(12, dtype=np.float32).reshape(1, 3, 2, 2)
OUT = np.linspace(-1.0, 1.0, 10, dtype=np.float32).reshape(1, 10)
SPEC = SessionSpec("smallcnn", (3, 8, 8), "beta.npz")


def _array(a: np.ndarray) -> tuple:
    return ("array", a.dtype.str, a.shape, a.tobytes())


def _normalize(msg: tuple) -> tuple:
    """An event with arrays as ``(dtype, shape, bytes)`` and exceptions
    as their type, so two transports' events compare with ``==``."""
    return tuple(
        _array(v) if isinstance(v, np.ndarray)
        else type(v) if isinstance(v, BaseException)
        else v
        for v in msg
    )


def _exchange(transport: str) -> tuple[list, list]:
    """Send every message of the vocabulary both ways through one pair;
    returns the normalized events the worker and the router saw."""
    to_worker = [
        ("ping", 7),
        ("load", "beta", SPEC, pack_bundle_payload(b"bundle bytes")),
        ("unload", "beta"),
        ("stop",),
    ]
    to_router = [
        ("ready", 123),
        ("pong", 7, {"requests": 1}),
        ("trace", 5, [{"name": "execute", "t0": 0.0, "t1": 1.0}]),
        ("model", "load", "beta", None),
        ("model", "unload", "beta", "KeyError: 'beta'"),
        ("fatal", "boom"),
        ("bye", {"requests": 1}),
    ]
    worker_saw, router_saw = [], []
    with PAIRS[transport]() as (endpoint, worker):
        for msg in to_worker:
            endpoint.send(msg)
            worker_saw.append(worker.recv())
        for msg in to_router:
            worker.send(msg)
            router_saw.append(endpoint.recv())
        for req_id, reply in enumerate(("result", "error", "corrupt"), start=1):
            endpoint.send_request(endpoint.acquire(timeout=0), req_id, X, None,
                                  trace_id=9, model="alpha")
            kind, rid, deadline_at, trace_id, model, handle = worker.recv()
            worker_saw.append((kind, rid, deadline_at, trace_id, model,
                               worker.read_payload(handle)))
            if reply == "error":
                worker.send_error(rid, handle, "deadline", "too late")
            else:
                worker.send_result(rid, handle, OUT, corrupt=reply == "corrupt")
            router_saw.append(endpoint.recv())
    return ([_normalize(m) for m in worker_saw], [_normalize(m) for m in router_saw])


def test_both_transports_carry_the_same_vocabulary():
    shm, tcp = _exchange("shm"), _exchange("tcp")
    assert shm == tcp
    worker_saw, router_saw = shm
    assert worker_saw == [
        ("ping", 7),
        ("load", "beta", SPEC, pack_bundle_payload(b"bundle bytes")),
        ("unload", "beta"),
        ("stop",),
        *[("req", rid, None, 9, "alpha", _array(X)) for rid in (1, 2, 3)],
    ]
    assert router_saw[:7] == [
        ("ready", 123),
        ("pong", 7, {"requests": 1}),
        ("trace", 5, [{"name": "execute", "t0": 0.0, "t1": 1.0}]),
        ("model", "load", "beta", None),
        ("model", "unload", "beta", "KeyError: 'beta'"),
        ("fatal", "boom"),
        ("bye", {"requests": 1}),
    ]
    assert router_saw[7:] == [
        ("res", 1, _array(OUT), None),
        ("err", 2, "deadline", "too late"),
        ("res", 3, None, CorruptedPayloadError),  # caught by the router's checksum
    ]


def _free_credits(endpoint) -> int:
    tokens = []
    while (token := endpoint.acquire(timeout=0)) is not None:
        tokens.append(token)
    for token in tokens:
        endpoint.release(token)
    return len(tokens)


@pytest.mark.parametrize("transport", PAIRS)
@pytest.mark.parametrize("reply", ["result", "error", "corrupt"])
def test_every_reply_releases_its_credit(transport, reply):
    """A reply of any kind — result, typed error, corrupted result —
    hands its slot/credit back inside ``recv``, one per reply."""
    with PAIRS[transport]() as (endpoint, worker):
        tokens = [endpoint.acquire(timeout=0) for _ in range(SLOTS)]
        assert None not in tokens and _free_credits(endpoint) == 0
        for req_id, token in enumerate(tokens):
            endpoint.send_request(token, req_id, X, None)
        for served in range(1, SLOTS + 1):
            _, req_id, _, _, _, handle = worker.recv()
            if reply == "error":
                worker.send_error(req_id, handle, "error", "failed")
            else:
                worker.send_result(req_id, handle, OUT, corrupt=reply == "corrupt")
            event = endpoint.recv()
            assert event[:2] == ("err" if reply == "error" else "res", req_id)
            assert _free_credits(endpoint) == served


@pytest.mark.parametrize("transport", PAIRS)
@pytest.mark.parametrize("budget_s", [5.0, -1.0])
def test_deadline_arrives_on_the_worker_clock(transport, budget_s):
    """A deadline is absolute on the router's monotonic clock and
    arrives absolute on the worker's (TCP re-anchors it from remaining
    seconds); a spent budget arrives already past."""
    with PAIRS[transport]() as (endpoint, worker):
        deadline_at = time.monotonic() + budget_s
        endpoint.send_request(endpoint.acquire(timeout=0), 1, X, deadline_at)
        assert worker.recv()[2] == pytest.approx(deadline_at, abs=0.05)
        endpoint.send_request(endpoint.acquire(timeout=0), 2, X, None)
        assert worker.recv()[2] is None


def test_tcp_silent_link_is_declared_dead(monkeypatch):
    """Half-open detection: a connection whose socket never reports EOF
    but carries no frame for the heartbeat timeout is not alive."""
    monkeypatch.setattr(transport_tcp, "HEARTBEAT_TIMEOUT_S", 0.2)
    with _tcp_pair() as (endpoint, worker):
        assert endpoint.alive()  # no frame yet: nothing to judge by
        worker.send(("pong", 1, None))
        assert endpoint.recv() == ("pong", 1, None)
        assert endpoint.alive()
        time.sleep(0.3)
        assert not endpoint.alive()
