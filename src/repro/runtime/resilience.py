"""Resilience primitives for the serving stack: typed failure taxonomy,
per-shard circuit breakers, and latency-aware routing scores.

The sharded cluster (:mod:`repro.runtime.cluster`) and the in-process
micro-batcher (:mod:`repro.runtime.serving`) share one failure
vocabulary so clients can branch on *what* went wrong instead of
string-matching ``RuntimeError`` messages:

* :class:`QueueFullError` — admission refused because the backlog (or
  every transport slot) was full within the caller's patience.
* :class:`DeadlineExceededError` — the request's latency budget ran out
  before a result landed; over-deadline work is shed, never executed.
* :class:`CorruptedPayloadError` — a checksummed shared-memory payload
  failed verification (a torn or corrupted transport, caught instead of
  silently returning wrong numbers).
* :class:`RequestTimeoutError` — one attempt stalled past the
  router-side per-request timeout and no retry budget remained.
* :class:`InjectedFaultError` — a deliberate fault from
  :mod:`repro.runtime.faults` (chaos tests assert on this type to
  separate injected failures from real bugs).
* :class:`UnknownModelError` — the request named a model that is not in
  the cluster's registry (a client-side mistake or a race with unload,
  never retried into oblivion: the registry is authoritative).

All subclass ``RuntimeError`` so pre-existing ``except RuntimeError``
call sites keep working (back-compat is load-bearing for
``MicroBatchServer.submit``).

:class:`CircuitBreaker` is the classic closed → open → half-open state
machine: consecutive failures trip it open, an open breaker sheds load
for ``reset_s``, then exactly one half-open probe is admitted — its
outcome decides between closing again and another open period.  The
router holds one breaker per shard and consults it before dispatch, so
a stalled or flapping worker stops receiving traffic *before* piling up
more doomed requests.

:func:`route_score` folds the p50/p95 latencies that each worker's
:class:`~repro.runtime.serving.ServingStats` estimates from its
request-latency histogram into the routing decision: the score
estimates the completion time of a request
joining a shard's queue, so a slow-but-idle shard and a fast-but-busy
shard compete on equal terms (plain least-outstanding routing treats a
stalling shard as *attractive* — its queue never drains, as the PR 3
crash tests exploited).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = [
    "QueueFullError",
    "DeadlineExceededError",
    "CorruptedPayloadError",
    "RequestTimeoutError",
    "InjectedFaultError",
    "UnknownModelError",
    "ResilienceConfig",
    "CircuitBreaker",
    "route_score",
]


class QueueFullError(RuntimeError):
    """Admission refused: the queue/slot backlog stayed full past the
    caller's ``timeout`` (shed at the door, nothing was executed)."""


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before a result could be delivered
    (shed before dispatch where possible, failed in flight otherwise)."""


class CorruptedPayloadError(RuntimeError):
    """A shared-memory payload failed its checksum — the transport
    delivered bytes that are provably not what the sender wrote."""


class RequestTimeoutError(RuntimeError):
    """An attempt stalled past the per-request timeout with no retry
    budget left (the shard is likely wedged; its breaker has been
    notified)."""


class InjectedFaultError(RuntimeError):
    """A deliberate failure injected by :mod:`repro.runtime.faults`."""


class UnknownModelError(RuntimeError):
    """The request named a model the cluster does not serve — either a
    typo'd ``submit(..., model=...)`` or a race with a completed unload."""


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the cluster's retry / breaker / deadline behaviour.

    Attributes:
        max_retries: extra dispatch attempts after the first one when a
            shard crashes (or a payload arrives corrupted) with the
            request in flight.  ``0`` restores the PR 3 behaviour:
            clients see :class:`~repro.runtime.cluster.ShardCrashedError`
            on the first crash.
        hedge_after_ms: age at which a still-unanswered request is
            *hedged* — a duplicate attempt is dispatched to a different
            shard and the first response wins (the loser is discarded,
            its slot reclaimed).  ``None`` disables hedging.
        breaker_threshold: consecutive attempt failures (crashes, stall
            timeouts, corrupted payloads) that trip a shard's breaker
            open.
        breaker_reset_s: how long an open breaker sheds load before
            admitting one half-open probe.
        request_timeout_s: router-side cap on a single attempt's age.
            A request older than this counts a breaker failure against
            its shard and is retried elsewhere (or failed with
            :class:`RequestTimeoutError` when retries are exhausted).
            ``None`` disables stall detection.
    """

    max_retries: int = 2
    hedge_after_ms: float | None = None
    breaker_threshold: int = 3
    breaker_reset_s: float = 1.0
    request_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.hedge_after_ms is not None and self.hedge_after_ms <= 0:
            raise ValueError(f"hedge_after_ms must be > 0, got {self.hedge_after_ms}")
        if self.breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, got {self.breaker_threshold}")
        if self.breaker_reset_s <= 0:
            raise ValueError(f"breaker_reset_s must be > 0, got {self.breaker_reset_s}")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )

    @property
    def max_attempts(self) -> int:
        """Total dispatch attempts a request may consume (first + retries
        + hedges share one budget, so a hedged pair cannot retry forever)."""
        return 1 + self.max_retries


class CircuitBreaker:
    """Closed → open → half-open breaker over consecutive failures.

    Thread-safe; time is injectable for deterministic tests.  The
    half-open state admits exactly one probe at a time: the first
    :meth:`try_acquire` after ``reset_s`` returns True, further calls
    return False until :meth:`record_success` (→ closed) or
    :meth:`record_failure` (→ open again) settles the probe.

    ``on_transition(old_state, new_state)`` (optional) is invoked after
    every state change — outside the breaker lock, so it may safely log
    or emit events — which is how breaker transitions reach the
    cluster's structured event log.
    """

    def __init__(
        self,
        threshold: int = 3,
        reset_s: float = 1.0,
        clock=time.monotonic,
        *,
        on_transition=None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if reset_s <= 0:
            raise ValueError(f"reset_s must be > 0, got {reset_s}")
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_outstanding = False
        self._on_transition = on_transition
        self._pending_transitions: list[tuple[str, str]] = []
        # observability counters (monotonic, never reset)
        self.trips = 0
        self.failures = 0
        self.successes = 0

    def _set_state_locked(self, new: str) -> None:
        old = self._state
        if old != new:
            self._state = new
            if self._on_transition is not None:
                self._pending_transitions.append((old, new))

    def _drain_locked(self) -> list[tuple[str, str]]:
        pending, self._pending_transitions = self._pending_transitions, []
        return pending

    def _fire(self, pending: list[tuple[str, str]]) -> None:
        """Deliver queued transition notifications (lock released)."""
        for old, new in pending:
            try:
                self._on_transition(old, new)
            except Exception:  # observers never break the breaker
                pass

    @property
    def state(self) -> str:
        """``'closed'`` | ``'open'`` | ``'half_open'`` (open flips to
        half-open lazily once ``reset_s`` has elapsed)."""
        with self._lock:
            state = self._state_locked()
            pending = self._drain_locked()
        self._fire(pending)
        return state

    def _state_locked(self) -> str:
        if self._state == "open" and self._clock() - self._opened_at >= self.reset_s:
            self._set_state_locked("half_open")
            self._probe_outstanding = False
        return self._state

    def try_acquire(self) -> bool:
        """May a request be routed here right now?

        Closed: always.  Open: never.  Half-open: exactly one caller
        gets True (the probe); everyone else waits for its verdict.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                allowed = True
            elif state == "half_open" and not self._probe_outstanding:
                self._probe_outstanding = True
                allowed = True
            else:
                allowed = False
            pending = self._drain_locked()
        self._fire(pending)
        return allowed

    def record_success(self) -> None:
        """An attempt completed: close the breaker, clear the streak."""
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            self._probe_outstanding = False
            self._set_state_locked("closed")
            pending = self._drain_locked()
        self._fire(pending)

    def record_failure(self) -> None:
        """An attempt failed (crash / stall timeout / corruption): extend
        the streak; trip open at the threshold.  A half-open probe
        failure re-opens immediately."""
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            state = self._state_locked()
            if state == "half_open" or (
                state == "closed" and self._consecutive_failures >= self.threshold
            ):
                self._set_state_locked("open")
                self._opened_at = self._clock()
                self._probe_outstanding = False
                self.trips += 1
            pending = self._drain_locked()
        self._fire(pending)

    def snapshot(self) -> dict:
        """Picklable point-in-time view (for ``cluster_stats``)."""
        with self._lock:
            snap = {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
                "failures": self.failures,
                "successes": self.successes,
            }
            pending = self._drain_locked()
        self._fire(pending)
        return snap


def route_score(outstanding: int, p50_ms: float, p95_ms: float) -> float:
    """Estimated completion time (ms) of a request joining this shard.

    Each queued request ahead of us costs roughly the shard's typical
    latency (p50); our own request then pays the tail (p95) — so the
    score is ``outstanding * p50 + p95``.  Shards that have not reported
    latency stats yet score by outstanding count alone (both terms fall
    back to 1.0 ms, preserving plain least-outstanding routing until the
    first health pong arrives).
    """
    p50 = p50_ms if p50_ms and p50_ms > 0 else 1.0
    p95 = p95_ms if p95_ms and p95_ms > 0 else p50
    return outstanding * p50 + p95
