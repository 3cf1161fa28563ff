"""Abstract shard transport: the protocol the cluster router speaks.

The router, resilience, and fault-injection layers talk to three small
abstractions, and *where a shard process lives* is a detail of which
implementation is plugged in —

* :class:`ShardEndpoint` — the router's handle to one shard: acquire /
  release backpressure tokens, send framed tensor requests (req_id +
  deadline + CRC) and control messages, receive **normalized events**,
  and answer lifecycle questions (alive? pid? kill, join, dispose).
* :class:`WorkerTransport` — the worker-side mirror: receive requests
  and control messages, read (checksum-verified) payloads, send
  results, errors, and control messages back.
* :class:`ShardLauncher` — the factory that brings a shard incarnation
  into existence (spawn a local process, or connect to a worker at an
  address) and hands back its endpoint.  Respawn-after-crash is just
  ``launch(index)`` again.

Implementations: :mod:`repro.runtime.transport_shm` (shared-memory slot
rings + pipes, single host) and :mod:`repro.runtime.transport_tcp`
(length-prefixed numpy frames over sockets — shards on any host).

**The message vocabulary** — the one table of it; every transport
carries exactly these tuples.  Tensor requests and replies go through
the dedicated calls (``send_request`` / ``send_result`` /
``send_error``), whose payload bytes and backpressure tokens the
transport handles *inside* the endpoint; everything else is one
``send(msg)`` call.

Router -> worker (``ShardEndpoint.send_request`` / ``send``; yielded by
``WorkerTransport.recv``):

========================================  =====================================
``("req", req_id, deadline_at, trace_id,  one request (``send_request``):
model, handle)``                          ``deadline_at`` re-anchored to the
                                          worker's monotonic clock (None = no
                                          deadline), ``trace_id`` 0 = untraced,
                                          ``model`` "" = the sole model;
                                          ``handle`` is opaque, passed back to
                                          ``read_payload`` / the reply
``("ping", seq)``                         health probe, answered by ``pong``
``("stop",)``                             drain the queues and exit (``bye``)
``("load", name, spec, payload)``         hot-load a model; ``payload`` is the
                                          CRC-framed bundle
                                          (:func:`bundle_payload`) or None
``("unload", name)``                      drain and drop a model
========================================  =====================================

Worker -> router (``WorkerTransport.send_result`` / ``send_error`` /
``send``; returned by ``ShardEndpoint.recv``):

========================================  =====================================
``("ready", pid)``                        worker built its session(s)
``("res", req_id, out, exc)``             reply (``send_result``): ``out``
                                          ndarray, or ``exc``
                                          (``CorruptedPayloadError`` etc.)
``("err", req_id, code, text)``           worker-side typed failure
                                          (``send_error``); ``code in
                                          {"deadline","corrupt","unknown_model",
                                          "error"}``
``("pong", seq, stats)``                  health reply + serving-stats snapshot
``("bye", stats)``                        worker drained and is exiting
``("fatal", text)``                       session build failed (permanent)
``("trace", req_id, spans)``              worker-side span timeline for a
                                          sampled (traced) request
``("model", op, name, detail)``           ack for a ``load`` / ``unload``;
                                          ``detail`` is an error string or None
========================================  =====================================

The byte-level **tensor framing** used by stream transports also lives
here (:func:`pack_tensor_frame` / :func:`unpack_tensor_frame`) so it can
be unit-tested without sockets: a frame is a 5-byte ``(length, type)``
header followed by either a pickled control tuple or a tensor body of
``req_id (u64) | trace_id (u64, 0 = untraced) | deadline_remaining_s
(f64, NaN = none) | crc32 (u32) | ndim (u8) | model (u8 length + utf-8,
empty = the single default model) | dims (u32 each) | dtype-str (u8
length + ascii) | raw payload bytes``.  Deadlines cross host boundaries
as *remaining seconds* (absolute ``time.monotonic`` values are
meaningless on another machine) and are re-anchored to the receiver's
clock; trace ids ride the same prefix so a sampled request stays
sampled across the wire (see :mod:`repro.runtime.telemetry`); the model
id routes the request to the right per-model micro-batch queue inside a
multi-tenant worker (see :mod:`repro.runtime.worker`).
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import struct
import tempfile
import threading
import zlib
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.runtime.resilience import CorruptedPayloadError

__all__ = [
    "TransportClosedError",
    "ShardEndpoint",
    "WorkerTransport",
    "ShardLauncher",
    "CreditGate",
    "FRAME_CONTROL",
    "FRAME_TENSOR",
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "MAX_MODEL_ID_BYTES",
    "pack_control_frame",
    "unpack_control_body",
    "pack_tensor_frame",
    "unpack_tensor_frame",
    "tensor_frame_req_id",
    "tensor_frame_meta",
    "pack_bundle_payload",
    "bundle_payload",
    "verify_bundle_payload",
    "materialize_bundle",
]


class TransportClosedError(ConnectionError):
    """The peer (worker or router) is gone: the pipe/socket hit EOF, a
    send failed, or the transport was torn down mid-operation.  The
    router treats this exactly like a shard crash (rehome in-flight
    requests, respawn/reconnect); a worker treats it as "router died,
    exit"."""


# ----------------------------------------------------------------------
# Stream framing (transport-agnostic byte level; used by TCP, unit-tested
# directly)
# ----------------------------------------------------------------------
#: frame header: payload byte length (excluding header) + frame type
FRAME_HEADER = struct.Struct(">IB")
FRAME_CONTROL = 0  # body = pickled control tuple
FRAME_TENSOR = 1  # body = tensor header + raw ndarray bytes

#: hard sanity bound on any single frame — a length prefix beyond this
#: means a desynchronized or hostile stream, not a real tensor
MAX_FRAME_BYTES = 1 << 30

#: tensor body prefix: req_id, trace_id (0 = untraced), deadline_remaining_s
#: (NaN = no deadline), crc32 of the payload bytes, ndim
_TENSOR_PREFIX = struct.Struct(">QQdIB")
_MAX_NDIM = 16
#: the model id is a u8-length-prefixed utf-8 string right after the
#: fixed prefix — bounded so a corrupt length byte cannot demand a
#: megabyte name
MAX_MODEL_ID_BYTES = 255


def pack_control_frame(msg: Any) -> bytes:
    """One framed control message (pickled tuple) as raw bytes."""
    body = pickle.dumps(msg)
    return FRAME_HEADER.pack(len(body), FRAME_CONTROL) + body


def unpack_control_body(body: bytes) -> Any:
    return pickle.loads(body)


def pack_tensor_frame(
    req_id: int,
    arr: np.ndarray,
    deadline_remaining_s: float | None = None,
    trace_id: int = 0,
    model: str = "",
) -> bytes:
    """Frame one tensor (header + body) for a byte-stream transport.

    ``trace_id`` (0 = untraced) propagates request sampling across the
    wire so the worker knows to collect spans for this request.
    ``model`` ("" = the single default model) names the tenant the
    request is for; a multi-model worker uses it to pick the right
    micro-batch queue.

    Zero-size tensors are refused up front: an empty request cannot
    produce a row per sample, so framing one is always a caller bug —
    better a ``ValueError`` here than a shape error three processes away.
    """
    arr = np.ascontiguousarray(arr)
    if arr.size == 0:
        raise ValueError(
            f"refusing to frame a zero-size tensor (shape {arr.shape}): "
            "batches must contain at least one sample"
        )
    if arr.ndim > _MAX_NDIM:
        raise ValueError(f"tensor rank {arr.ndim} exceeds the frame limit of {_MAX_NDIM}")
    model_bytes = model.encode("utf-8")
    if len(model_bytes) > MAX_MODEL_ID_BYTES:
        raise ValueError(
            f"model id {model!r} encodes to {len(model_bytes)} bytes "
            f"(limit {MAX_MODEL_ID_BYTES})"
        )
    dtype_str = arr.dtype.str.encode("ascii")
    payload = arr.tobytes()
    remaining = math.nan if deadline_remaining_s is None else float(deadline_remaining_s)
    body = b"".join(
        (
            _TENSOR_PREFIX.pack(req_id, trace_id, remaining, zlib.crc32(payload), arr.ndim),
            struct.pack(">B", len(model_bytes)),
            model_bytes,
            struct.pack(f">{arr.ndim}I", *arr.shape),
            struct.pack(">B", len(dtype_str)),
            dtype_str,
            payload,
        )
    )
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"tensor frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    return FRAME_HEADER.pack(len(body), FRAME_TENSOR) + body


def tensor_frame_req_id(body: bytes) -> int | None:
    """Best-effort request id from a (possibly corrupt) tensor body, so
    a failed :func:`unpack_tensor_frame` can still be attributed to the
    request it answered (and retried) instead of killing the stream."""
    if len(body) < 8:
        return None
    return struct.unpack_from(">Q", body)[0]


def tensor_frame_meta(body: bytes) -> tuple[int, float | None, int, str] | None:
    """``(req_id, deadline_remaining_s, trace_id, model)`` from a tensor
    body prefix without decoding (or verifying) the payload — lets a
    worker route a corrupt frame's typed error to the right request
    instead of tearing the stream down.  ``None`` when the body is too
    short to carry even the prefix; the model id degrades to ``""`` when
    its bytes are cut short or undecodable (the request can still be
    attributed and failed typed)."""
    if len(body) < 24:
        return None
    req_id, trace_id, remaining = struct.unpack_from(">QQd", body)
    model = ""
    if len(body) > _TENSOR_PREFIX.size:
        (model_len,) = struct.unpack_from(">B", body, _TENSOR_PREFIX.size)
        raw = body[_TENSOR_PREFIX.size + 1 : _TENSOR_PREFIX.size + 1 + model_len]
        if len(raw) == model_len:
            try:
                model = raw.decode("utf-8")
            except UnicodeDecodeError:
                model = ""
    return req_id, (None if math.isnan(remaining) else remaining), trace_id, model


def unpack_tensor_frame(
    body: bytes,
) -> tuple[int, float | None, np.ndarray, int, str]:
    """Decode a tensor body into ``(req_id, deadline_remaining_s, array,
    trace_id, model)``.

    Every structural defect — truncated header, impossible rank, bogus
    model id or dtype, payload shorter or longer than the dims promise,
    zero-size payload, checksum mismatch — raises
    :class:`~repro.runtime.resilience.CorruptedPayloadError`: the bytes
    are provably not what :func:`pack_tensor_frame` produced, and the
    router's retry machinery (not the client) should deal with it.
    """
    if len(body) < _TENSOR_PREFIX.size:
        raise CorruptedPayloadError(
            f"truncated tensor frame: {len(body)} bytes < {_TENSOR_PREFIX.size}-byte header"
        )
    req_id, trace_id, remaining, crc, ndim = _TENSOR_PREFIX.unpack_from(body)
    if ndim > _MAX_NDIM:
        raise CorruptedPayloadError(f"tensor frame claims rank {ndim} > {_MAX_NDIM}")
    offset = _TENSOR_PREFIX.size
    if len(body) < offset + 1:
        raise CorruptedPayloadError("truncated tensor frame: model id cut short")
    (model_len,) = struct.unpack_from(">B", body, offset)
    offset += 1
    if len(body) < offset + model_len:
        raise CorruptedPayloadError("truncated tensor frame: model id cut short")
    try:
        model = body[offset : offset + model_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptedPayloadError(f"tensor frame carries an invalid model id: {exc}") from None
    offset += model_len
    dims_size = 4 * ndim
    if len(body) < offset + dims_size + 1:
        raise CorruptedPayloadError("truncated tensor frame: header cut short")
    shape = struct.unpack_from(f">{ndim}I", body, offset)
    offset += dims_size
    (dtype_len,) = struct.unpack_from(">B", body, offset)
    offset += 1
    if len(body) < offset + dtype_len:
        raise CorruptedPayloadError("truncated tensor frame: dtype cut short")
    try:
        dtype = np.dtype(body[offset : offset + dtype_len].decode("ascii"))
    except (TypeError, UnicodeDecodeError) as exc:
        raise CorruptedPayloadError(f"tensor frame carries an invalid dtype: {exc}") from None
    offset += dtype_len
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    payload = body[offset:]
    if expected == 0:
        raise CorruptedPayloadError(
            f"tensor frame describes a zero-size payload (shape {tuple(shape)})"
        )
    if len(payload) != expected:
        raise CorruptedPayloadError(
            f"truncated tensor frame: payload holds {len(payload)} bytes but shape "
            f"{tuple(shape)} ({dtype}) needs {expected}"
        )
    got = zlib.crc32(payload)
    if got != crc:
        raise CorruptedPayloadError(
            f"tensor frame failed checksum (crc {got:#010x} != expected {crc:#010x}, "
            f"shape {tuple(shape)}, {dtype})"
        )
    arr = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    return req_id, (None if math.isnan(remaining) else remaining), arr, trace_id, model


# ----------------------------------------------------------------------
# Bundle payloads (handshake / hot-load shipping of .npz session bundles)
# ----------------------------------------------------------------------
def pack_bundle_payload(data: bytes) -> tuple[int, int, bytes]:
    """Wrap raw bundle bytes as ``(crc32, size, data)`` for shipment in a
    handshake or a hot ``("load", ...)`` control message."""
    return zlib.crc32(data), len(data), data


def bundle_payload(spec, process) -> tuple[int, int, bytes] | None:
    """What ships ``spec``'s session bundle to a shard's worker, in a
    handshake or a hot ``("load", ...)`` message: ``None`` when the
    shard has a local ``process`` (it shares this filesystem and reads
    ``spec.bundle_path`` itself), else the bundle's bytes CRC-framed.

    The file is read at every call, never cached: a bundle rewritten at
    the same path ships its new bytes on the next (re)connect.  An
    unreadable file also yields ``None`` — the worker then tries the
    spec's own path and reports a build failure as ``fatal``."""
    if process is not None:
        return None
    try:
        with open(spec.bundle_path, "rb") as fh:
            return pack_bundle_payload(fh.read())
    except OSError:
        return None


def verify_bundle_payload(name: str, payload: tuple) -> bytes:
    """Check a shipped bundle's size and CRC; returns the verified bytes.

    A truncated or corrupted multi-bundle handshake must fail *typed*
    (:class:`~repro.runtime.resilience.CorruptedPayloadError` names the
    offending model) instead of half-loading: the worker reports it as a
    fatal build failure and the router marks the shard permanently
    failed rather than serving a model zoo with a silently missing or
    damaged tenant.
    """
    try:
        crc, size, data = payload
    except (TypeError, ValueError):
        raise CorruptedPayloadError(
            f"bundle payload for model {name!r} is malformed: expected "
            "(crc32, size, bytes)"
        ) from None
    if len(data) != size:
        raise CorruptedPayloadError(
            f"bundle for model {name!r} was truncated in transit: "
            f"{len(data)} bytes arrived but {size} were sent"
        )
    got = zlib.crc32(data)
    if got != crc:
        raise CorruptedPayloadError(
            f"bundle for model {name!r} failed checksum "
            f"(crc {got:#010x} != expected {crc:#010x})"
        )
    return data


def materialize_bundle(name: str, spec, payload: tuple):
    """Verify a shipped bundle (:func:`verify_bundle_payload`) and write
    it to a local ``repro-bundle-<name>-*.npz`` temp file; returns
    ``spec`` repointed at that file.  The caller owns the file and
    deletes ``spec.bundle_path`` once the model is gone."""
    data = verify_bundle_payload(name, payload)
    fd, path = tempfile.mkstemp(prefix=f"repro-bundle-{name}-", suffix=".npz")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
    except BaseException:
        os.unlink(path)
        raise
    return dataclasses.replace(spec, bundle_path=path)


# ----------------------------------------------------------------------
# Backpressure: the per-shard slot free list
# ----------------------------------------------------------------------
class CreditGate:
    """The router-side free list of one shard's transport slots, for
    every transport: ``credits`` concurrent requests per shard,
    :meth:`acquire` blocks or times out when all are out, :meth:`release`
    returns one.

    Tokens are ``0 .. credits - 1``.  The shm endpoint uses them as the
    slot indices of its ring; TCP has no physical slots, so its tokens
    only count.  The free list is LIFO (the most recently released slot
    is hottest in cache); releasing a token twice or one out of range
    raises ``ValueError``, and :meth:`close` wakes every blocked
    acquirer with ``RuntimeError``.
    """

    def __init__(self, credits: int) -> None:
        if credits < 1:
            raise ValueError(f"credits must be >= 1, got {credits}")
        self.credits = credits
        self._free = list(reversed(range(credits)))
        self._available = threading.Condition(threading.Lock())
        self._closed = False

    def acquire(self, timeout: float | None = None) -> int | None:
        """Take a credit token; ``None`` on timeout (all credits out)."""
        with self._available:
            if not self._available.wait_for(lambda: bool(self._free) or self._closed, timeout):
                return None
            if self._closed:
                raise RuntimeError("credit gate is closed")
            return self._free.pop()

    def release(self, token: int) -> None:
        if not 0 <= token < self.credits:
            raise ValueError(f"token {token} out of range 0..{self.credits - 1}")
        with self._available:
            if token in self._free:
                raise ValueError(f"token {token} is already free (double release)")
            self._free.append(token)
            self._available.notify()

    @property
    def free(self) -> int:
        with self._available:
            return len(self._free)

    def close(self) -> None:
        """Wake every blocked acquirer with the closed error (idempotent)."""
        with self._available:
            self._closed = True
            self._available.notify_all()


# ----------------------------------------------------------------------
# The protocol proper
# ----------------------------------------------------------------------
class ShardEndpoint(ABC):
    """Router-side handle to one shard incarnation.

    Transport operations raise :class:`TransportClosedError` once the
    peer is gone; the router maps that to its crash-handling path.
    ``recv`` reads payloads and releases backpressure tokens internally,
    so the router only ever sees the normalized events documented in the
    module docstring.  Backpressure is the same for every transport: a
    :class:`CreditGate` of ``credits`` tokens, one per outstanding
    request.
    """

    def __init__(self, credits: int) -> None:
        self._gate = CreditGate(credits)

    # -- backpressure ---------------------------------------------------
    def acquire(self, timeout: float | None = None) -> int | None:
        """Reserve capacity for one request: a slot index / credit token,
        or ``None`` when the shard is full past ``timeout``."""
        try:
            return self._gate.acquire(timeout=timeout)
        except RuntimeError as exc:  # gate closed: shard died while we waited
            raise TransportClosedError(str(exc)) from exc

    def release(self, token: int) -> None:
        """Return capacity: a token reserved by :meth:`acquire` but never
        sent (a dispatch that aborted), or one whose reply arrived."""
        try:
            self._gate.release(token)
        except ValueError:
            pass  # already back (endpoint torn down under us)

    # -- sending --------------------------------------------------------
    @abstractmethod
    def send_request(
        self,
        token: int,
        req_id: int,
        x: np.ndarray,
        deadline_at: float | None,
        trace_id: int = 0,
        model: str = "",
    ) -> None:
        """Frame and send one request tensor.  ``deadline_at`` is an
        absolute local ``time.monotonic`` value (or None); cross-host
        transports convert it to remaining seconds on the wire.
        ``trace_id`` (0 = untraced) marks a sampled request: the worker
        collects spans and ships them back as a ``("trace", ...)``
        event after the reply.  ``model`` names the tenant queue the
        worker should dispatch into ("" = the single default model)."""

    @abstractmethod
    def send(self, msg: tuple) -> None:
        """Send one router -> worker control message (``ping``, ``stop``,
        ``load``, ``unload``; see the module docstring)."""

    # -- receiving ------------------------------------------------------
    @abstractmethod
    def recv(self) -> tuple:
        """Block for the next normalized event (see module docstring);
        raises :class:`TransportClosedError` when the peer is gone."""

    # -- lifecycle ------------------------------------------------------
    @property
    @abstractmethod
    def pid(self) -> int | None:
        """Worker process id, or ``None`` for a remote shard."""

    @abstractmethod
    def alive(self) -> bool:
        """Best-effort liveness: process running / connection healthy."""

    @abstractmethod
    def kill(self) -> None:
        """Forcefully end this incarnation (terminate the local process
        and/or sever the connection).  Idempotent."""

    @abstractmethod
    def join(self, timeout: float | None = None) -> None:
        """Wait for this incarnation to end (process exit / peer
        disconnect), up to ``timeout`` seconds."""

    @abstractmethod
    def close(self) -> None:
        """Release the router-side handles (connection, ring mapping);
        safe while other threads may still race operations.  Idempotent."""

    def dispose(self) -> None:
        """Final resource teardown at server close (e.g. unlink shared
        memory).  Default: just :meth:`close`."""
        self.close()


class WorkerTransport(ABC):
    """Worker-side mirror of :class:`ShardEndpoint`, consumed by
    :func:`repro.runtime.worker.run_worker`.

    ``recv`` yields the router -> worker messages of the module
    docstring; a request's opaque ``handle`` carries whatever the
    transport needs to read the payload and route the reply (an shm
    slot, a decoded TCP frame).
    """

    #: largest reply payload the transport can carry (bytes), or None
    #: for unbounded — the worker refuses larger outputs with a typed
    #: error instead of corrupting the transport
    payload_capacity: int | None = None

    @abstractmethod
    def recv(self) -> tuple:
        """Next inbound message; raises :class:`TransportClosedError`
        when the router is gone."""

    @abstractmethod
    def read_payload(self, handle) -> np.ndarray:
        """Copy the request tensor out of ``handle``, checksum-verified
        (raises :class:`CorruptedPayloadError` on mismatch)."""

    @abstractmethod
    def send_result(self, req_id: int, handle, out: np.ndarray, corrupt: bool = False) -> None:
        """Send a successful reply.  ``corrupt=True`` (fault injection
        only) clobbers the payload *after* its checksum was computed so
        the router's verification provably catches it."""

    @abstractmethod
    def send_error(self, req_id: int, handle, code: str, text: str) -> None:
        """Send a typed failure (``code in {"deadline","corrupt",
        "unknown_model","error"}``)."""

    @abstractmethod
    def send(self, msg: tuple) -> None:
        """Send one worker -> router control message (``ready``,
        ``pong``, ``bye``, ``fatal``, ``trace``, ``model``; see the
        module docstring)."""

    @abstractmethod
    def close(self) -> None: ...


class ShardLauncher(ABC):
    """Factory for shard incarnations.  ``launch(index)`` starts (or
    connects to) the worker for shard ``index`` and returns its
    endpoint; the router calls it again to respawn after a crash."""

    @abstractmethod
    def launch(self, index: int) -> ShardEndpoint: ...
