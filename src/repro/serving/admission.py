"""Admission control for the serving front end.

Two independent gates run before a query touches the engine:

* :class:`ClientRateLimiter` — a token bucket per client id; a client that
  exceeds its refill rate is told to back off (HTTP 429) while everyone
  else proceeds;
* :class:`AdmissionController` — ``capacity`` queries execute at once (the
  server's ``pool_size``) and at most ``max_queue`` more may wait.  Beyond that
  the request is refused immediately (HTTP 503) instead of growing an
  unbounded queue — the paper's "heavy traffic" setting makes shedding
  load at the door the only stable answer to saturation.

Both gates raise :class:`AdmissionRejected` carrying a ``retry_after``
estimate, which the server surfaces as the ``Retry-After`` header.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from contextlib import asynccontextmanager
from typing import Callable

__all__ = [
    "AdmissionRejected",
    "TokenBucket",
    "ClientRateLimiter",
    "AdmissionController",
]


class AdmissionRejected(Exception):
    """The request was refused at the door; retry after ``retry_after``s."""

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


class TokenBucket:
    """The classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "_tokens", "_last", "_clock")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        self.rate = float(rate)
        self.burst = max(float(burst), 1.0)
        self._tokens = self.burst
        self._clock = clock
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def try_take(self, amount: float = 1.0) -> bool:
        self._refill()
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False

    def retry_after(self, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens will be available."""
        self._refill()
        deficit = amount - self._tokens
        return max(deficit / self.rate, 0.0)


class ClientRateLimiter:
    """Per-client token buckets, LRU-bounded so ids cannot accumulate.

    ``rate <= 0`` disables limiting entirely (the default serving config:
    admission control alone decides who waits).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        max_clients: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.max_clients = max_clients
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def check(self, client_id: str) -> None:
        """Charge one request to ``client_id``; raise when over rate."""
        if not self.enabled:
            return
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
            self._buckets[client_id] = bucket
            if len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client_id)
        if not bucket.try_take():
            raise AdmissionRejected(
                f"client {client_id!r} over its {self.rate:g} req/s limit",
                retry_after=bucket.retry_after(),
            )


class AdmissionController:
    """Bounded concurrency + bounded waiting; reject beyond both.

    A slot is the right to execute: ``capacity`` is the server's
    ``pool_size``, the size of its executor, so a query waits for a slot
    here, in the event loop, and never in a thread; ``max_queue`` bounds
    how many may wait.  A running estimate of service time (EWMA) feeds the
    ``Retry-After`` hint handed to shed requests.
    """

    def __init__(
        self,
        capacity: int,
        max_queue: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity <= 0:
            raise ValueError("admission capacity must be positive")
        if max_queue < 0:
            raise ValueError("admission max_queue cannot be negative")
        self.capacity = capacity
        self.max_queue = max_queue
        self.active = 0
        self.queued = 0
        self.admitted_total = 0
        self.rejected_total = 0
        self._clock = clock
        self._semaphore = asyncio.Semaphore(capacity)
        # Optimistic prior so an idle server never tells clients to wait
        # long; converges onto the observed service time within a few
        # requests.
        self._service_ewma_s = 0.1

    def note_service_seconds(self, seconds: float) -> None:
        self._service_ewma_s += 0.2 * (seconds - self._service_ewma_s)

    def retry_after(self) -> float:
        """Estimated seconds until a shed request would find a free slot."""
        backlog = self.active + self.queued + 1
        estimate = self._service_ewma_s * backlog / self.capacity
        return min(max(estimate, 0.05), 30.0)

    @property
    def saturated(self) -> bool:
        return self.queued >= self.max_queue and self._semaphore.locked()

    @asynccontextmanager
    async def admit(self):
        """Hold one execution slot; raises when queue and slots are full."""
        if self.saturated:
            self.rejected_total += 1
            raise AdmissionRejected(
                f"saturated: {self.active} active, {self.queued} queued "
                f"(capacity {self.capacity}, queue bound {self.max_queue})",
                retry_after=self.retry_after(),
            )
        self.queued += 1
        try:
            await self._semaphore.acquire()
        finally:
            self.queued -= 1
        self.active += 1
        self.admitted_total += 1
        started = self._clock()
        try:
            yield
        finally:
            self.active -= 1
            self.note_service_seconds(self._clock() - started)
            self._semaphore.release()

    def stats(self) -> dict[str, float | int]:
        return {
            "capacity": self.capacity,
            "max_queue": self.max_queue,
            "active": self.active,
            "queued": self.queued,
            "admitted_total": self.admitted_total,
            "rejected_total": self.rejected_total,
            "service_ewma_ms": round(self._service_ewma_s * 1000.0, 3),
        }
