"""Admission control for the gateway: token buckets and inflight caps.

All admission state lives on the gateway's asyncio thread — admission
checks happen in the connection handlers, and a request's slot is
released there or in the backend tick that ends it — so none of this
needs locks.  Refusals are *load shedding*: the caller gets a
structured ``busy`` reply with a ``retry_after_ms`` hint and nothing
is buffered on its behalf (see ``docs/SERVING.md``).  Memory is
bounded too: a tenant's token bucket is dropped once it has refilled,
since a full bucket admits exactly like a fresh one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import monotonic
from typing import Callable

__all__ = ["GatewayLimits", "TokenBucket", "QuotaTable"]

#: Slack against float error in refill arithmetic (e.g. a clock delta
#: of 0.1s at rate 10/s refilling 0.9999999999 tokens must count as 1).
_EPS = 1e-9


@dataclass(frozen=True)
class GatewayLimits:
    """The gateway's admission envelope.

    ``max_inflight`` bounds concurrently-admitted requests across all
    tenants; ``tenant_max_inflight`` bounds one tenant (requests with
    no ``tenant`` share the ``"-"`` bucket).  ``tenant_rate``/``burst``
    configure a per-tenant token bucket in requests/second (``None``
    disables rate limiting).  ``max_frame_bytes`` is the per-frame wire
    limit and ``retry_after_ms`` the hint attached to refusals that
    have no better estimate (rate refusals compute a real one from the
    bucket's refill time).
    """

    max_inflight: int = 256
    tenant_max_inflight: int = 64
    tenant_rate: float | None = None  # requests/second; None = unlimited
    tenant_burst: int = 16
    max_frame_bytes: int = 256 * 1024
    retry_after_ms: int = 25


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, capacity
    ``burst``; starts full.  ``try_acquire`` never blocks — on refusal
    it returns the wait until a token will exist, which becomes the
    wire's ``retry_after_ms``.  ``clock`` is injectable for tests."""

    __slots__ = ("rate", "burst", "tokens", "updated", "clock")

    def __init__(
        self,
        rate: float,
        burst: int = 1,
        *,
        clock: Callable[[], float] = monotonic,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        self.tokens = float(self.burst)
        self.clock = clock
        self.updated = clock()

    def _refill(self) -> None:
        now = self.clock()
        self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now

    def try_acquire(self) -> tuple[bool, float]:
        """``(True, 0.0)`` and spend a token, or ``(False, wait)``
        where ``wait`` is the seconds until one token refills."""
        self._refill()
        if self.tokens >= 1.0 - _EPS:
            self.tokens = max(0.0, self.tokens - 1.0)
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


class QuotaTable:
    """Per-tenant admission bookkeeping against a
    :class:`GatewayLimits`: global + per-tenant inflight counters and
    lazily-created per-tenant token buckets.  A bucket untouched for
    the ``burst / rate`` seconds it takes to refill is dropped, so the
    table holds one bucket per tenant seen within that window.

    :meth:`admit` either admits (the caller *must* eventually
    :meth:`release` with the same tenant) or returns a refusal
    ``(reason, retry_after_seconds)``.
    """

    def __init__(
        self,
        limits: GatewayLimits,
        *,
        clock: Callable[[], float] = monotonic,
    ):
        self.limits = limits
        self.clock = clock
        self.inflight = 0
        self.tenant_inflight: dict[str, int] = {}
        #: Least recently used first, so the refilled ones lead.
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    @staticmethod
    def _key(tenant: str | None) -> str:
        return tenant if tenant is not None else "-"

    def admit(self, tenant: str | None) -> tuple[str, float] | None:
        """``None`` on admission; ``(reason, retry_after_s)`` on
        refusal.  Reasons: ``"inflight"`` (global cap),
        ``"tenant-inflight"``, ``"tenant-rate"``."""
        limits = self.limits
        if self.inflight >= limits.max_inflight:
            return "inflight", limits.retry_after_ms / 1000.0
        key = self._key(tenant)
        if self.tenant_inflight.get(key, 0) >= limits.tenant_max_inflight:
            return "tenant-inflight", limits.retry_after_ms / 1000.0
        if limits.tenant_rate is not None:
            self._drop_refilled()
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = TokenBucket(
                    limits.tenant_rate, limits.tenant_burst, clock=self.clock
                )
            else:
                self._buckets.move_to_end(key)
            ok, wait = bucket.try_acquire()
            if not ok:
                return "tenant-rate", wait
        self.inflight += 1
        self.tenant_inflight[key] = self.tenant_inflight.get(key, 0) + 1
        return None

    def _drop_refilled(self) -> None:
        """Forget the buckets untouched for ``burst / rate`` seconds:
        they hold ``burst`` tokens, exactly as a fresh one would."""
        buckets = self._buckets
        now = self.clock()
        while buckets:
            key, bucket = next(iter(buckets.items()))
            if (now - bucket.updated) * bucket.rate < bucket.burst - _EPS:
                return
            del buckets[key]

    def release(self, tenant: str | None) -> None:
        """Return one admitted slot (called when its request reaches a
        terminal state)."""
        key = self._key(tenant)
        self.inflight = max(0, self.inflight - 1)
        left = self.tenant_inflight.get(key, 0) - 1
        if left <= 0:
            self.tenant_inflight.pop(key, None)
        else:
            self.tenant_inflight[key] = left
