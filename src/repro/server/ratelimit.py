"""Per-user token-bucket rate limiting for the catalog server.

Each user gets a bucket holding up to ``burst`` tokens that refills at
``rate`` tokens/second; a request spends one token or is rejected.
``rate=None`` disables limiting entirely (the default for in-process
and benchmark use).  The clock is injectable for deterministic tests.

A bucket idle for ``burst / rate`` seconds has refilled to ``burst``,
so it acts exactly like a missing one: buckets are kept in last-use
order and such idle ones are dropped from the front, which bounds the
table by the users seen in the last ``burst / rate`` seconds.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Optional

__all__ = ["RateLimiter"]


class RateLimiter:
    def __init__(
        self,
        rate: Optional[float],
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None for unlimited)")
        if burst is not None and burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = burst if burst is not None else (rate if rate else 1.0)
        self._clock = clock
        self._lock = threading.Lock()
        # user -> [tokens, last refill stamp], least recently used first
        self._buckets: "OrderedDict[str, list]" = OrderedDict()

    def allow(self, user: str) -> bool:
        """Spend one token from ``user``'s bucket; False when empty."""
        if self.rate is None:
            return True
        now = self._clock()
        with self._lock:
            buckets = self._buckets
            full_after = self.burst / self.rate
            while buckets and now - next(iter(buckets.values()))[1] >= full_after:
                buckets.popitem(last=False)
            bucket = buckets.get(user)
            if bucket is None:
                bucket = [self.burst, now]
                buckets[user] = bucket
            else:
                buckets.move_to_end(user)
            tokens, stamp = bucket
            tokens = min(self.burst, tokens + (now - stamp) * self.rate)
            if tokens < 1.0:
                bucket[0] = tokens
                bucket[1] = now
                return False
            bucket[0] = tokens - 1.0
            bucket[1] = now
            return True

    def reset(self, user: Optional[str] = None) -> None:
        """Forget one user's bucket (or all of them)."""
        with self._lock:
            if user is None:
                self._buckets.clear()
            else:
                self._buckets.pop(user, None)
