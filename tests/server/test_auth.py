"""Session manager unit tests (injectable clock, no sleeping)."""

import pytest

from repro.server import SessionManager


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestSessions:
    def test_open_resolve_close(self):
        sessions = SessionManager()
        token = sessions.open("ann")
        assert sessions.resolve(token) == "ann"
        assert sessions.active() == 1
        assert sessions.close(token) is True
        assert sessions.resolve(token) is None
        assert sessions.close(token) is False
        assert sessions.active() == 0

    def test_tokens_are_unique_and_opaque(self):
        sessions = SessionManager()
        tokens = {sessions.open("ann") for _ in range(50)}
        assert len(tokens) == 50
        assert all(len(t) == 32 for t in tokens)
        assert "ann" not in "".join(tokens)

    def test_unknown_and_empty_tokens_resolve_to_none(self):
        sessions = SessionManager()
        assert sessions.resolve("deadbeef") is None
        assert sessions.resolve(None) is None
        assert sessions.resolve("") is None

    def test_idle_expiry(self):
        clock = FakeClock()
        sessions = SessionManager(ttl=60.0, clock=clock)
        token = sessions.open("ann")
        clock.advance(59.0)
        assert sessions.resolve(token) == "ann"
        # Resolving refreshed the idle timer.
        clock.advance(59.0)
        assert sessions.resolve(token) == "ann"
        clock.advance(61.0)
        assert sessions.resolve(token) is None
        assert sessions.active() == 0

    def test_on_change_tracks_count(self):
        counts = []
        clock = FakeClock()
        sessions = SessionManager(
            ttl=10.0, clock=clock, on_change=counts.append
        )
        a = sessions.open("ann")
        b = sessions.open("bob")
        sessions.close(a)
        clock.advance(11.0)
        sessions.resolve(b)  # expires
        assert counts == [1, 2, 1, 0]

    def test_abandoned_sessions_do_not_pile_up(self):
        """Tokens nobody resolves again expire at the next open: the
        session table holds only sessions used within ``ttl``."""
        clock = FakeClock()
        sessions = SessionManager(ttl=60.0, clock=clock)
        kept = sessions.open("ann")
        for _ in range(1000):
            clock.advance(0.01)
            sessions.open("bob")
        sessions.resolve(kept)  # moves behind the abandoned ones
        clock.advance(61.0)
        sessions.open("cy")
        assert sessions.active() == 1

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            SessionManager(ttl=0)
