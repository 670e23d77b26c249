"""Multi-tenant admission control: quotas, priorities, and backlog.

Admission answers the paper's question — "is it safe to co-run this job
under the cap right now?" — *per tenant*.  Three layers compose:

1. **Feasibility** stays with the session (solo-feasible under the cap),
   memoized by the server per ``(program, scale, cap)`` so a burst of
   identical submissions pays one profiling pass.
2. **Quotas** bound each tenant's live jobs (queued + held + running), so
   one tenant cannot starve the rest of the queue; code ``tenant_quota``.
3. **Headroom**: when the session's bounded queue is full, submissions
   spill into a per-tenant *priority backlog* (higher priority drains
   first, tenants drain round-robin) up to ``backlog_capacity``; beyond
   that the daemon answers ``backpressure``.  A zero backlog (the
   default) reproduces the original immediate-backpressure behavior.

The backlog is what turns a 2x overload into graceful degradation: the
front end keeps acknowledging and holding work it has room for, instead
of collapsing into a reject storm the moment the queue fills.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.workload.program import Job


@dataclass(frozen=True)
class TenantPolicy:
    """Static admission configuration shared by every tenant.

    ``quota`` caps one tenant's live (not yet finished) jobs; ``None``
    means unbounded.  ``backlog_capacity`` bounds the *total* number of
    held submissions across tenants once the session queue is full.
    """

    quota: int | None = None
    backlog_capacity: int = 0


@dataclass(frozen=True)
class HeldSubmission:
    """A fully validated submission waiting for session headroom."""

    job: Job
    arrival_s: float
    tenant: str
    priority: int


@dataclass
class TenantLedger:
    """Per-tenant live-job accounting behind quota decisions."""

    live: dict[str, int] = field(default_factory=dict)

    def admit(self, tenant: str) -> None:
        self.live[tenant] = self.live.get(tenant, 0) + 1

    def finish(self, tenant: str) -> None:
        """A live job completed or was withdrawn; release its quota slot."""
        count = self.live.get(tenant, 0) - 1
        if count > 0:
            self.live[tenant] = count
        else:
            self.live.pop(tenant, None)

    def over_quota(self, tenant: str, quota: int | None) -> bool:
        return quota is not None and self.live.get(tenant, 0) >= quota


class TenantBacklog:
    """Per-tenant priority queues drained round-robin across tenants.

    Within a tenant, higher ``priority`` first, FIFO among equals; across
    tenants, strict round-robin so a flood from one tenant cannot delay
    another's backlog indefinitely.
    """

    def __init__(self, capacity: int = 0) -> None:
        self.capacity = max(0, capacity)
        self._heaps: dict[str, list[tuple[int, int, HeldSubmission]]] = {}
        self._ring: deque[str] = deque()
        self._seq = 0
        self._uids: set[str] = set()

    @property
    def depth(self) -> int:
        return len(self._uids)

    @property
    def full(self) -> bool:
        return self.depth >= self.capacity

    def __contains__(self, uid: str) -> bool:
        """Is the job with ``uid`` held here?"""
        return uid in self._uids

    def depths(self) -> dict[str, int]:
        return {tenant: len(heap) for tenant, heap in self._heaps.items()}

    def push(self, held: HeldSubmission) -> bool:
        """Hold ``held`` if there is room; False means backpressure."""
        if self.full:
            return False
        heap = self._heaps.get(held.tenant)
        if heap is None:
            heap = self._heaps[held.tenant] = []
            self._ring.append(held.tenant)
        self._seq += 1
        heapq.heappush(heap, (-held.priority, self._seq, held))
        self._uids.add(held.job.uid)
        return True

    def pop(self) -> HeldSubmission | None:
        """Next submission to admit, or None when the backlog is empty."""
        while self._ring:
            tenant = self._ring.popleft()
            heap = self._heaps.get(tenant)
            if not heap:
                self._heaps.pop(tenant, None)
                continue
            _, _, held = heapq.heappop(heap)
            self._uids.discard(held.job.uid)
            if heap:
                self._ring.append(tenant)
            else:
                self._heaps.pop(tenant, None)
            return held
        return None

    def drain(self) -> list[HeldSubmission]:
        """Empty the backlog in drain order (shutdown path)."""
        out = []
        while True:
            held = self.pop()
            if held is None:
                return out
            out.append(held)
