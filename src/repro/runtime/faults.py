"""Deterministic fault injection for the serving stack.

Chaos engineering needs *reproducible* chaos: a test that kills a worker
on a coin flip proves nothing when it goes green on the retry.
:class:`FaultPlan` makes every fault decision a pure function of
``(seed, request id)`` — the same plan replayed over the same request
ids injects exactly the same faults, in any process, with no shared
state.  The plan is a small frozen dataclass, so it pickles through the
``spawn`` boundary to shard workers unchanged.

Fault kinds (all rates are independent probabilities in ``[0, 1]``,
summing to at most 1):

* ``crash`` — the worker process hard-exits (``os._exit``) with the
  request in flight: the deterministic version of a SIGKILL mid-request.
* ``stall`` — the worker sleeps ``stall_s`` before serving the request,
  blocking its whole receive loop: a wedged-but-alive shard, the case
  circuit breakers exist for.
* ``slow`` — the worker sleeps ``slow_s``: tail latency, not failure.
* ``corrupt`` — the response payload is corrupted *after* its checksum
  was computed: the transport must catch it
  (:class:`~repro.runtime.resilience.CorruptedPayloadError`), never
  deliver it.
* ``slot_exhaust`` — a router-side slot acquisition is refused as if
  every transport slot were busy: overload without traffic.

Hooks are no-ops by default: every injection point — slot exhaustion
at the router's slot acquisition in
:class:`~repro.runtime.cluster.ShardedServer`, the worker loop
(:func:`~repro.runtime.worker.run_worker`), and
:class:`~repro.runtime.serving.MicroBatchServer` — checks an optional
injector that is ``None`` in production.

Usage::

    plan = FaultPlan(seed=7, crash_rate=0.1, stall_rate=0.1, corrupt_rate=0.1)
    server = ShardedServer(spec, num_shards=4, faults=plan)
    # every request now either returns a (checksum-verified) correct
    # result or a typed error — chaos tests assert exactly that
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass

__all__ = ["FaultPlan", "FaultInjector", "FAULT_KINDS"]

#: decision order is part of the plan's determinism contract
FAULT_KINDS = ("crash", "stall", "slow", "corrupt", "slot_exhaust")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, picklable recipe for which requests fault and how.

    Attributes:
        seed: decision seed; two plans differing only in seed inject
            faults on different request ids.
        crash_rate / stall_rate / slow_rate / corrupt_rate /
        slot_exhaust_rate: per-kind probabilities (must sum to <= 1).
        stall_s: sleep length of a ``stall`` fault (long enough to trip
            stall detection / breakers, short enough for tests).
        slow_s: sleep length of a ``slow`` fault.
        start_after: request ids below this never fault — lets warmup
            traffic (session build verification, breaker priming)
            through untouched.
    """

    seed: int = 0
    crash_rate: float = 0.0
    stall_rate: float = 0.0
    slow_rate: float = 0.0
    corrupt_rate: float = 0.0
    slot_exhaust_rate: float = 0.0
    stall_s: float = 0.5
    slow_s: float = 0.05
    start_after: int = 0

    def __post_init__(self) -> None:
        rates = (self.crash_rate, self.stall_rate, self.slow_rate,
                 self.corrupt_rate, self.slot_exhaust_rate)
        if any(r < 0 or r > 1 for r in rates):
            raise ValueError(f"fault rates must be in [0, 1], got {rates}")
        if sum(rates) > 1.0 + 1e-9:
            raise ValueError(f"fault rates sum to {sum(rates):.3f} > 1")
        if self.stall_s < 0 or self.slow_s < 0:
            raise ValueError("stall_s and slow_s must be >= 0")
        if self.start_after < 0:
            raise ValueError(f"start_after must be >= 0, got {self.start_after}")

    def _uniform(self, key: int) -> float:
        """Deterministic uniform draw in [0, 1) for one decision key.

        crc32 over the seed+key bytes: stable across processes and
        Python versions (unlike ``hash``), cheap, and well-mixed enough
        for rate thresholds.
        """
        h = zlib.crc32(f"{self.seed}:{key}".encode())
        return (h & 0xFFFFFFFF) / 2**32

    def decide(self, req_id: int) -> str | None:
        """Fault kind for this request id (``None`` = serve normally).

        Pure and deterministic: the router, the worker, and the test
        asserting on the outcome all agree on what request ``req_id``
        does, with no communication.
        """
        if req_id < self.start_after:
            return None
        u = self._uniform(req_id)
        edge = 0.0
        for kind, rate in zip(
            FAULT_KINDS,
            (self.crash_rate, self.stall_rate, self.slow_rate,
             self.corrupt_rate, self.slot_exhaust_rate),
        ):
            edge += rate
            if rate > 0 and u < edge:
                return kind
        return None

    def any_rate(self) -> bool:
        """True when the plan can inject anything at all."""
        return (self.crash_rate or self.stall_rate or self.slow_rate
                or self.corrupt_rate or self.slot_exhaust_rate) > 0


class FaultInjector:
    """Runtime wrapper around a :class:`FaultPlan`: applies sleeps,
    counts what it injected, and keys router-side decisions.

    One injector lives per process (router or worker); counters are for
    observability only and never feed back into decisions, so
    determinism is preserved.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._exhausted: set[int] = set()
        self._lock = threading.Lock()

    def decide(self, req_id: int) -> str | None:
        """Plan decision for a request, recorded in the counters."""
        kind = self.plan.decide(req_id)
        if kind is not None:
            self.injected[kind] += 1
        return kind

    def apply_delay(self, kind: str | None) -> None:
        """Sleep for ``stall``/``slow`` decisions; no-op otherwise."""
        if kind == "stall":
            time.sleep(self.plan.stall_s)
        elif kind == "slow":
            time.sleep(self.plan.slow_s)

    def exhaust_slot(self, req_id: int) -> bool:
        """Router-side: should this slot acquisition be refused as if the
        ring were full?

        Refuses only the *first* acquisition attempt of a
        ``slot_exhaust``-marked request — a transient full ring, not a
        permanent one — so the submit retry loop makes progress instead
        of spinning on the same deterministic verdict forever.
        """
        if self.plan.decide(req_id) != "slot_exhaust":
            return False
        with self._lock:
            if req_id in self._exhausted:
                return False
            self._exhausted.add(req_id)
        self.injected["slot_exhaust"] += 1
        return True
