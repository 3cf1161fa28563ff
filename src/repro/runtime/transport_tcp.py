"""TCP shard transport: length-prefixed numpy frames over sockets.

Everything the router does — retries, hedging, circuit breakers,
deadlines, fault injection, respawn — already speaks the
:mod:`repro.runtime.transport` protocol (its module docstring is the
table of messages); this module makes a shard's location irrelevant by
speaking that protocol over a socket:

* **Framing** — every message is a 5-byte ``(length, type)`` header plus
  either a pickled control tuple or a raw tensor body (req_id, deadline,
  CRC32, dims, dtype, payload bytes; see
  :func:`~repro.runtime.transport.pack_tensor_frame`).  Payloads are
  checksum-verified on both sides, exactly like the shm slots.
* **Handshake** — the router opens a connection and sends
  ``("hello", {specs, bundles, fault_plan, payload_bytes, protocol})``.
  ``specs`` is the full model registry (``{name: SessionSpec}``);
  ``bundles`` maps each model to ``(crc32, size, bytes)`` of its raw
  ``.npz`` session bundle, read afresh at every connect, when the worker
  has no local process and so may not share a filesystem (``None`` when
  it has one; :func:`~repro.runtime.transport.bundle_payload`) — each
  shipped bundle is size-checked and CRC-verified
  before the worker materializes it to a temp file, so a truncated
  multi-bundle handshake fails typed (``fatal``) instead of half-loading
  the zoo.  A protocol-version mismatch is answered with a ``fatal``
  frame naming both versions, so the router surfaces a clear error
  instead of a silent disconnect.
* **Deadlines re-anchored** — absolute ``time.monotonic`` values are
  meaningless across hosts, so deadlines travel as *remaining seconds*
  and are converted back to the worker's own clock on arrival.
* **Backpressure** — the same :class:`~repro.runtime.transport.CreditGate`
  that hands out the shm endpoint's slots: ``slots_per_shard`` requests
  may be outstanding per shard; credits release as replies arrive.
* **Liveness** — a local worker is watched through its process handle; a
  remote one through the connection itself: EOF/RST surfaces
  immediately as :class:`~repro.runtime.transport.TransportClosedError`,
  and a connection that stops carrying frames (not even health pongs)
  past :data:`HEARTBEAT_TIMEOUT_S` is declared dead — the half-open-socket
  case EOF never reports.

A shard is either spawned or addressed, and :class:`TcpShardLauncher`
does both: ``launch(index)`` spawns a loopback worker process and
connects to the port it reports (crash = process death, respawn = fresh
process — this runs the whole cluster test matrix over TCP);
``launch(index, address)`` connects to an externally started
``python -m repro worker --listen HOST:PORT`` with bounded retries and
backoff.  That worker keeps listening after a router disconnects, so
for an addressed shard a respawn is a reconnect: a router restart, a
network blip, or a drained connection just re-handshakes, and a worker
that stays unreachable is marked permanently failed by the router.

Security note: the control channel carries pickled tuples (as the
multiprocessing pipes always did), so this transport trusts its network
— run it on a private interconnect, not the open internet.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import numpy as np

from repro.runtime.faults import FaultPlan
from repro.runtime.resilience import CorruptedPayloadError
from repro.runtime.session import SessionSpec
from repro.runtime.transport import (
    FRAME_HEADER,
    FRAME_TENSOR,
    MAX_FRAME_BYTES,
    ShardEndpoint,
    ShardLauncher,
    TransportClosedError,
    WorkerTransport,
    bundle_payload,
    materialize_bundle,
    pack_control_frame,
    pack_tensor_frame,
    tensor_frame_meta,
    tensor_frame_req_id,
    unpack_control_body,
    unpack_tensor_frame,
)
from repro.runtime.transport_shm import MP_CONTEXT, spawn_with_env

__all__ = [
    "TcpShardEndpoint",
    "TcpWorkerTransport",
    "TcpShardLauncher",
    "worker_serve",
    "parse_hostport",
]

#: handshake protocol version (bumped on wire-format changes; v2 added
#: the trace_id field to the tensor-frame prefix and the ("trace", ...)
#: control message; v3 added the model id to the tensor frame, the
#: multi-spec/multi-bundle handshake, and hot model load/unload control
#: messages)
PROTOCOL_VERSION = 3

#: a connection to a worker without a local process that carried no
#: frame (not even a pong) for this long is considered dead even though
#: the socket never EOF'd (half-open peer).  Generous: the router pings
#: every ``health_interval_s`` and any frame resets the clock, so only a
#: truly wedged link trips this.
HEARTBEAT_TIMEOUT_S = 10.0

#: how long a spawned loopback worker may take to report its port
PORT_REPORT_TIMEOUT_S = 30.0

#: connection attempts per (re)launch, each bounded by
#: ``CONNECT_TIMEOUT_S``, with exponential backoff between them — for an
#: addressed shard a respawn is a reconnect
CONNECT_RETRIES = 3
CONNECT_BACKOFF_S = 0.3
CONNECT_TIMEOUT_S = 10.0


def parse_hostport(address: str) -> tuple[str, int]:
    """Split ``"host:port"`` (no IPv6 brackets — serving interconnects
    here are named hosts or dotted quads)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"invalid port in {address!r}") from None


# ----------------------------------------------------------------------
# Socket frame I/O
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except OSError as exc:
            raise TransportClosedError(f"connection lost mid-frame: {exc}") from exc
        if not chunk:
            raise TransportClosedError(
                "peer closed the connection" + (" mid-frame" if buf else "")
            )
        buf += chunk
    return bytes(buf)


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one ``(type, body)`` frame; :class:`TransportClosedError` on
    EOF, reset, or an insane length prefix (desynchronized stream)."""
    length, ftype = FRAME_HEADER.unpack(_recv_exact(sock, FRAME_HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise TransportClosedError(
            f"frame claims {length} bytes (> {MAX_FRAME_BYTES}): stream desynchronized"
        )
    return ftype, _recv_exact(sock, length)


def _send_bytes(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
    except OSError as exc:
        raise TransportClosedError(f"send failed: {exc}") from exc


def _configure(sock: socket.socket) -> socket.socket:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # tiny control frames
    sock.settimeout(None)
    return sock


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class TcpWorkerTransport(WorkerTransport):
    """Worker half of one router connection."""

    def __init__(self, sock: socket.socket, payload_capacity: int | None = None) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self.payload_capacity = payload_capacity

    def recv(self) -> tuple:
        ftype, body = read_frame(self._sock)
        if ftype == FRAME_TENSOR:
            meta = tensor_frame_meta(body)
            if meta is None:  # not even a request id: the stream is gone
                raise TransportClosedError("tensor frame too short to carry a request id")
            req_id, remaining, trace_id, model = meta
            # re-anchor the deadline to *this* host's monotonic clock; a
            # budget already spent arrives negative and is shed on submit
            deadline_at = None if remaining is None else time.monotonic() + remaining
            return ("req", req_id, deadline_at, trace_id, model, body)
        return unpack_control_body(body)  # ping / stop / load / unload

    def read_payload(self, handle) -> np.ndarray:
        # full decode deferred to here so a corrupt payload surfaces as
        # CorruptedPayloadError on *this request*, not a dead stream
        return unpack_tensor_frame(handle)[2]

    def _send_frame(self, frame: bytes) -> None:
        with self._send_lock:
            _send_bytes(self._sock, frame)

    def send_result(self, req_id: int, handle, out: np.ndarray, corrupt: bool = False) -> None:
        frame = pack_tensor_frame(req_id, out)
        if corrupt:
            # injected fault: flip the last payload byte *after* the
            # checksum was computed — the router's verify must catch it
            frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
        self._send_frame(frame)

    def send_error(self, req_id: int, handle, code: str, text: str) -> None:
        self.send(("err", req_id, code, text))

    def send(self, msg: tuple) -> None:
        self._send_frame(pack_control_frame(msg))

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def _serve_connection(conn: socket.socket) -> None:
    """Handshake + serve one router connection until stop/EOF."""
    from repro.runtime.worker import run_worker

    bundle_paths: list[str] = []
    try:
        ftype, body = read_frame(conn)
        msg = unpack_control_body(body) if ftype != FRAME_TENSOR else None
        if not (isinstance(msg, tuple) and msg and msg[0] == "hello"):
            raise TransportClosedError("peer did not open with a hello handshake")
        info = msg[1]
        transport = TcpWorkerTransport(
            _configure(conn), payload_capacity=info.get("payload_bytes")
        )
        if info.get("protocol") != PROTOCOL_VERSION:
            # answer with a fatal frame so the router sees *why* instead
            # of an unexplained disconnect (version skew across hosts is
            # exactly the failure a remote deploy hits first)
            text = (
                f"protocol mismatch: router speaks {info.get('protocol')}, "
                f"worker speaks {PROTOCOL_VERSION}"
            )
            try:
                transport.send(("fatal", text))
            except TransportClosedError:
                pass
            raise TransportClosedError(text)
        specs: dict[str, SessionSpec] = dict(info["specs"])
        bundles: dict[str, tuple] = info.get("bundles") or {}
        try:
            for name, payload in bundles.items():
                if payload is None or name not in specs:
                    continue
                # the router may not share our filesystem: verify the
                # shipped bundle (size + CRC — a truncated multi-bundle
                # handshake must fail typed, not half-load the zoo) and
                # materialize it locally
                specs[name] = materialize_bundle(name, specs[name], payload)
                bundle_paths.append(specs[name].bundle_path)
        except CorruptedPayloadError as exc:
            try:
                transport.send(("fatal", str(exc)))
            except TransportClosedError:
                pass
            raise TransportClosedError(str(exc))
        run_worker(specs, transport, info.get("fault_plan"))
    except (TransportClosedError, EOFError, OSError):
        pass  # router vanished mid-handshake/serve: back to accept()
    finally:
        try:
            conn.close()
        except OSError:
            pass
        for path in bundle_paths:
            try:
                os.unlink(path)
            except OSError:
                pass


def worker_serve(
    host: str,
    port: int,
    *,
    once: bool = False,
    on_bound=None,
    log=None,
) -> None:
    """Accept-loop of ``python -m repro worker --listen HOST:PORT``.

    Serves one router connection at a time (a shard worker has exactly
    one router); when that router disconnects — drain, crash, or network
    blip — the worker returns to ``accept()`` so the router's respawn
    logic can simply reconnect.  ``once=True`` exits after the first
    connection ends (used for the loopback workers
    :class:`TcpShardLauncher` spawns, whose router respawns whole
    processes).  ``on_bound(port)`` reports the actual
    port after binding (for ``port=0`` ephemeral listens).
    """
    srv = socket.create_server((host, port), backlog=4)
    try:
        bound = srv.getsockname()[1]
        if on_bound is not None:
            on_bound(bound)
        if log is not None:
            log(f"worker listening on {host}:{bound}")
        while True:
            conn, addr = srv.accept()
            if log is not None:
                log(f"router connected from {addr[0]}:{addr[1]}")
            _serve_connection(conn)
            if log is not None:
                log("router disconnected; awaiting a new connection")
            if once:
                return
    finally:
        srv.close()


def _tcp_worker_main(report_conn) -> None:
    """Spawn target for :class:`TcpShardLauncher` (module-level: must be
    importable under spawn).  Binds an ephemeral loopback port, reports
    it back through the bootstrap pipe, serves one router connection."""
    def on_bound(port: int) -> None:
        report_conn.send(port)
        report_conn.close()

    worker_serve("127.0.0.1", 0, once=True, on_bound=on_bound)


# ----------------------------------------------------------------------
# Router side
# ----------------------------------------------------------------------
class TcpShardEndpoint(ShardEndpoint):
    """Router half of one shard connection (local or remote worker)."""

    def __init__(
        self,
        sock: socket.socket,
        *,
        credits: int,
        process=None,
        address: str | None = None,
    ) -> None:
        super().__init__(credits)
        self._sock = sock
        self.process = process  # local worker process handle, or None (remote)
        self.address = address
        self._send_lock = threading.Lock()
        self._token_lock = threading.Lock()
        self._tokens: dict[int, int] = {}  # req_id -> credit token
        self._dead = threading.Event()
        self._last_rx = time.monotonic()
        self._got_frame = False

    def _release_for(self, req_id: int) -> None:
        with self._token_lock:
            token = self._tokens.pop(req_id, None)
        if token is not None:
            self.release(token)

    # -- sending --------------------------------------------------------
    def send_request(
        self,
        token: int,
        req_id: int,
        x: np.ndarray,
        deadline_at: float | None,
        trace_id: int = 0,
        model: str = "",
    ) -> None:
        remaining = None if deadline_at is None else deadline_at - time.monotonic()
        frame = pack_tensor_frame(req_id, x, remaining, trace_id, model)
        with self._token_lock:
            self._tokens[req_id] = token  # mapped before send: the reply may race us
        self._send_frame(frame)

    def send(self, msg: tuple) -> None:
        self._send_frame(pack_control_frame(msg))

    def _send_frame(self, frame: bytes) -> None:
        try:
            with self._send_lock:
                _send_bytes(self._sock, frame)
        except TransportClosedError:
            self._dead.set()
            raise

    # -- receiving ------------------------------------------------------
    def recv(self) -> tuple:
        try:
            ftype, body = read_frame(self._sock)
        except TransportClosedError:
            self._dead.set()
            raise
        self._last_rx = time.monotonic()
        self._got_frame = True
        if ftype == FRAME_TENSOR:
            try:
                req_id, _, out, _, _ = unpack_tensor_frame(body)
                err: Exception | None = None
            except Exception as exc:  # CorruptedPayloadError: retryable
                rid = tensor_frame_req_id(body)
                if rid is None:
                    self._dead.set()
                    raise TransportClosedError(
                        "undecodable tensor frame (stream desynchronized)"
                    ) from exc
                req_id, out, err = rid, None, exc
            self._release_for(req_id)
            return ("res", req_id, out, err)
        msg = unpack_control_body(body)
        if msg[0] == "err":
            self._release_for(msg[1])
        return msg  # err / ready / pong / bye / fatal / model

    # -- lifecycle ------------------------------------------------------
    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        if self._dead.is_set():
            return False
        if self.process is not None:
            return self.process.is_alive()
        if self._got_frame:
            # half-open detection: a healthy worker answers pings, so a
            # frameless connection this old is wedged even without EOF
            return (time.monotonic() - self._last_rx) <= HEARTBEAT_TIMEOUT_S
        return True

    def kill(self) -> None:
        self._dead.set()
        if self.process is not None:
            self.process.terminate()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def join(self, timeout: float | None = None) -> None:
        if self.process is not None:
            self.process.join(timeout=timeout)
        else:
            self._dead.wait(timeout=timeout)

    def close(self) -> None:
        self._dead.set()
        self._gate.close()  # wake any dispatcher blocked on acquire
        try:
            self._sock.close()
        except OSError:
            pass


def _connect(index: int, address: str) -> socket.socket:
    """Connect to the worker at ``address``, retrying with backoff."""
    host, port = parse_hostport(address)
    last: Exception | None = None
    for attempt in range(CONNECT_RETRIES):
        if attempt:
            time.sleep(CONNECT_BACKOFF_S * (2 ** (attempt - 1)))
        try:
            return _configure(socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S))
        except OSError as exc:
            last = exc
    raise RuntimeError(
        f"shard {index} unreachable at {address} after {CONNECT_RETRIES} attempts: {last}"
    )


class TcpShardLauncher(ShardLauncher):
    """Brings TCP shards up: ``launch(index)`` spawns a loopback worker
    process and connects to the port it reports; ``launch(index,
    address)`` connects to an externally started worker at
    ``"host:port"``.  Either way the connection opens with the
    ``hello`` handshake, which carries session-bundle bytes for exactly
    the models of a shard without a local process
    (:func:`~repro.runtime.transport.bundle_payload`).

    ``specs`` is the cluster's **live** model registry (shared by
    reference): every launch snapshots it, so a new incarnation —
    respawn, reconnect or elastic add — builds the current model set
    from the bundles as they are on disk now.
    """

    def __init__(
        self,
        specs: dict[str, SessionSpec],
        *,
        slots_per_shard: int,
        slot_bytes: int,
        fault_plan: FaultPlan | None = None,
        worker_env: dict[str, str] | None = None,
    ) -> None:
        self.specs = specs
        self.slots_per_shard = slots_per_shard
        self.slot_bytes = slot_bytes
        self._fault_plan = fault_plan
        self._worker_env = worker_env

    def launch(self, index: int, address: str | None = None) -> TcpShardEndpoint:
        process = sock = None
        try:
            if address is None:
                process, address = self._spawn(index)
            sock = _connect(index, address)
            specs = dict(self.specs)  # snapshot the live registry at connect time
            _send_bytes(sock, pack_control_frame(("hello", {
                "protocol": PROTOCOL_VERSION,
                "specs": specs,
                "bundles": {name: bundle_payload(spec, process) for name, spec in specs.items()},
                "fault_plan": self._fault_plan,
                "payload_bytes": self.slot_bytes,
            })))
        except BaseException:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
            if process is not None:
                process.terminate()
                process.join(timeout=5.0)
            raise
        return TcpShardEndpoint(
            sock, credits=self.slots_per_shard, process=process, address=address
        )

    def _spawn(self, index: int) -> tuple:
        """Start a loopback worker; returns ``(process, "127.0.0.1:port")``."""
        parent_conn, child_conn = MP_CONTEXT.Pipe(duplex=False)
        process = MP_CONTEXT.Process(
            target=_tcp_worker_main,
            args=(child_conn,),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        spawn_with_env(process, self._worker_env)
        child_conn.close()
        try:
            if not parent_conn.poll(PORT_REPORT_TIMEOUT_S):
                raise RuntimeError(
                    f"shard {index} worker never reported its port "
                    f"(waited {PORT_REPORT_TIMEOUT_S}s)"
                )
            return process, f"127.0.0.1:{parent_conn.recv()}"
        except BaseException:
            process.terminate()
            process.join(timeout=5.0)
            raise
        finally:
            parent_conn.close()
