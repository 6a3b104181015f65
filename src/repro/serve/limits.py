"""Per-tenant admission control: token buckets and bounded in-flight queues.

Multi-tenant serving lives or dies on this layer (S-LoRA's admission
control, CaraServe's per-tenant fairness — see PAPERS.md): one tenant
submitting faster than its share must be shed *at the door* with a
429-style rejection, before its requests occupy scheduler queue slots and
KvCache pages that compliant tenants need.

Two mechanisms compose, both deterministic functions of the clock the
caller passes in (so the same controller runs under the discrete-event
simulator's virtual clock and under asyncio wall time):

* a **token bucket** per tenant (``rate`` requests/s, ``burst`` depth) —
  smooth rate enforcement that tolerates bursts up to the bucket size;
* a **bounded admission queue** per tenant (``max_inflight``) plus a
  server-wide bound (``max_total_inflight``) — backpressure on slow
  drains: a tenant whose requests pile up inside the scheduler stops
  being admitted even if its arrival *rate* is compliant.

A request is admitted only if every applicable check passes; the bucket
is only debited on admission, so a rejection never double-charges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Decision(enum.Enum):
    """Outcome of one admission check."""

    ADMIT = "admit"
    RATE_LIMITED = "rate_limited"
    """Token bucket empty: the tenant exceeded its request rate."""
    QUEUE_FULL = "queue_full"
    """The tenant's bounded in-flight queue is at capacity."""
    OVERLOADED = "overloaded"
    """The server-wide in-flight bound is hit (tenant-agnostic shed)."""
    DUPLICATE = "duplicate_id"
    """The request id is already taken on the backend. Decided by the
    gateway or bridge before the controller is asked, so it costs no
    slot; the server answers 409. The simulator stack's ids are single-use
    (the frontend keeps every handle, so a finished id stays taken); the
    functional bridge refuses only an id whose stream is still live."""

    @property
    def admitted(self) -> bool:
        return self is Decision.ADMIT


class TokenBucket:
    """Classic token bucket; refills lazily from elapsed time.

    ``rate`` tokens/second accumulate up to ``burst``; ``allow`` debits
    one token when available. Time flows only through the ``now``
    arguments, which must be non-decreasing per bucket.
    """

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = float(now)

    def _refill(self, now: float) -> None:
        if now < self._last:
            raise ValueError(
                f"bucket time went backwards: {now} < {self._last}"
            )
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def peek(self, now: float) -> float:
        """Tokens available at ``now`` (refills as a side effect)."""
        self._refill(now)
        return self._tokens

    def allow(self, now: float, cost: float = 1.0) -> bool:
        """Debit ``cost`` tokens if available; False leaves the bucket as-is."""
        self._refill(now)
        if self._tokens + 1e-12 < cost:
            return False
        self._tokens -= cost
        return True


@dataclass(frozen=True)
class TenantPolicy:
    """Admission knobs for one tenant (or the default for unknown ones)."""

    rate: float = 100.0
    """Sustained request rate (requests per second of backend clock)."""
    burst: float = 20.0
    """Token-bucket depth: how far a tenant may burst above ``rate``."""
    max_inflight: int = 64
    """Bounded admission queue: open streams (queued + running) at once."""

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


class AdmissionController:
    """Stateful per-tenant admission: rate limits + bounded in-flight.

    The controller tracks how many admitted requests each tenant still has
    open; callers must pair every admitted :meth:`admit` with exactly one
    :meth:`release` when the stream ends (finish, cancel or failure), or
    the tenant's queue slot leaks.
    """

    def __init__(
        self,
        default_policy: "TenantPolicy | None" = None,
        tenant_policies: "dict[str, TenantPolicy] | None" = None,
        max_total_inflight: "int | None" = None,
        start_time: float = 0.0,
    ):
        self.default_policy = default_policy or TenantPolicy()
        self.tenant_policies = dict(tenant_policies or {})
        if max_total_inflight is not None and max_total_inflight < 1:
            raise ValueError(
                f"max_total_inflight must be >= 1, got {max_total_inflight}"
            )
        self.max_total_inflight = max_total_inflight
        self._start_time = float(start_time)
        self._buckets: "dict[str, TokenBucket]" = {}
        self._inflight: "dict[str, int]" = {}
        self._total_inflight = 0

    # ------------------------------------------------------------------
    def policy(self, tenant: str) -> TenantPolicy:
        return self.tenant_policies.get(tenant, self.default_policy)

    def inflight(self, tenant: str) -> int:
        return self._inflight.get(tenant, 0)

    @property
    def total_inflight(self) -> int:
        return self._total_inflight

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            policy = self.policy(tenant)
            bucket = self._buckets[tenant] = TokenBucket(
                policy.rate, policy.burst, now=self._start_time
            )
        return bucket

    # ------------------------------------------------------------------
    def admit(self, tenant: str, now: float) -> Decision:
        """Run every check; debit the bucket and a queue slot on ADMIT.

        Check order matters for fairness accounting: capacity bounds are
        tested *before* the bucket so a request shed for queue depth does
        not also burn rate budget the tenant could use once it drains.
        """
        if (
            self.max_total_inflight is not None
            and self._total_inflight >= self.max_total_inflight
        ):
            return Decision.OVERLOADED
        if self.inflight(tenant) >= self.policy(tenant).max_inflight:
            return Decision.QUEUE_FULL
        if not self._bucket(tenant).allow(now):
            return Decision.RATE_LIMITED
        self._inflight[tenant] = self.inflight(tenant) + 1
        self._total_inflight += 1
        return Decision.ADMIT

    def release(self, tenant: str) -> None:
        """Return an admitted request's queue slot (stream ended)."""
        current = self.inflight(tenant)
        if current < 1:
            raise ValueError(f"release without admit for tenant {tenant!r}")
        self._inflight[tenant] = current - 1
        self._total_inflight -= 1
