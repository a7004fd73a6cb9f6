"""Session-token authentication for the catalog server.

A session binds an opaque token to a service user name.  Tokens are
bearer credentials: every authenticated request carries one in the
``Authorization`` header and is scoped to the session's user — the
server never trusts a client-supplied user name directly (AMGA's
per-connection identity, translated to HTTP).

Sessions optionally expire after ``ttl`` seconds of inactivity; the
clock is injectable so expiry is testable without sleeping.  Sessions
are kept in order of last use, so every ``open`` and ``resolve`` drops
the idle ones from the front: an abandoned token does not outlive its
``ttl`` by more than the next request.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import OrderedDict
from typing import Callable, Optional

__all__ = ["Session", "SessionManager"]


class Session:
    __slots__ = ("token", "user", "last_used")

    def __init__(self, token: str, user: str, last_used: float) -> None:
        self.token = token
        self.user = user
        self.last_used = last_used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(user={self.user!r})"


class SessionManager:
    """Thread-safe token → user bookkeeping with idle expiry.

    ``on_change`` (when given) is called with the active-session count
    after every open/close/expiry — the server points it at its
    ``server_sessions`` gauge.
    """

    def __init__(
        self,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        on_change: Optional[Callable[[int], None]] = None,
    ) -> None:
        if ttl is not None and ttl <= 0:
            raise ValueError("session ttl must be positive")
        self.ttl = ttl
        self._clock = clock
        self._on_change = on_change
        self._lock = threading.Lock()
        #: Oldest last use first.
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()

    def open(self, user: str) -> str:
        """Open a session for ``user`` and return its bearer token."""
        token = secrets.token_hex(16)
        now = self._clock()
        with self._lock:
            self._expire(now)
            self._sessions[token] = Session(token, user, now)
            count = len(self._sessions)
        self._notify(count)
        return token

    def resolve(self, token: Optional[str]) -> Optional[str]:
        """The user a live token belongs to; ``None`` for unknown or
        expired tokens.  Resolving refreshes the idle timer."""
        if not token:
            return None
        now = self._clock()
        with self._lock:
            expired = self._expire(now)
            session = self._sessions.get(token)
            if session is not None:
                session.last_used = now
                self._sessions.move_to_end(token)
            count = len(self._sessions)
        if expired:
            self._notify(count)
        return session.user if session is not None else None

    def close(self, token: str) -> bool:
        """Invalidate a token; True if it was live."""
        with self._lock:
            session = self._sessions.pop(token, None)
            count = len(self._sessions)
        if session is not None:
            self._notify(count)
        return session is not None

    def active(self) -> int:
        """Session count as of the last ``open`` or ``resolve``, which
        drop every session idle past ``ttl``."""
        with self._lock:
            return len(self._sessions)

    def _expire(self, now: float) -> bool:
        """Drop the sessions idle past ``ttl`` from the front of the
        last-use order; True if any went.  Caller holds the lock."""
        expired = False
        while self._sessions and self.ttl is not None:
            oldest = self._sessions[next(iter(self._sessions))]
            if now - oldest.last_used <= self.ttl:
                break
            self._sessions.popitem(last=False)
            expired = True
        return expired

    def _notify(self, count: int) -> None:
        if self._on_change is not None:
            self._on_change(count)
