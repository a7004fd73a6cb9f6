"""Token-bucket rate limiter unit tests (injectable clock)."""

import pytest

from repro.server import RateLimiter


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRateLimiter:
    def test_unlimited_by_default(self):
        limiter = RateLimiter(None)
        assert all(limiter.allow("ann") for _ in range(10_000))

    def test_burst_then_refusal(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=5, clock=clock)
        assert [limiter.allow("ann") for _ in range(6)] == [True] * 5 + [False]

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=2.0, burst=2, clock=clock)
        assert limiter.allow("ann")
        assert limiter.allow("ann")
        assert not limiter.allow("ann")
        clock.advance(0.5)  # 2 tokens/s * 0.5s = 1 token back
        assert limiter.allow("ann")
        assert not limiter.allow("ann")

    def test_users_have_independent_buckets(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1, clock=clock)
        assert limiter.allow("ann")
        assert not limiter.allow("ann")
        assert limiter.allow("bob")

    def test_bucket_never_exceeds_burst(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=10.0, burst=3, clock=clock)
        clock.advance(100.0)  # a long idle period must not bank tokens
        allowed = sum(limiter.allow("ann") for _ in range(10))
        assert allowed == 3

    def test_reset(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1, clock=clock)
        assert limiter.allow("ann")
        assert not limiter.allow("ann")
        limiter.reset("ann")
        assert limiter.allow("ann")

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, burst=0)

    def test_refilled_buckets_are_dropped(self):
        """A bucket idle for burst / rate seconds is full again, so the
        table forgets it: many one-off users leave one bucket behind."""
        clock = FakeClock()
        limiter = RateLimiter(rate=2.0, burst=4, clock=clock)
        for i in range(1000):
            assert limiter.allow(f"user-{i}")
        clock.advance(2.0)  # burst / rate
        assert limiter.allow("late")
        assert len(limiter._buckets) == 1

    def test_a_bucket_still_refilling_is_kept(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=2, clock=clock)
        assert limiter.allow("ann") and limiter.allow("ann")
        clock.advance(1.5)  # 1.5 tokens back, not yet burst
        assert limiter.allow("bob")
        assert set(limiter._buckets) == {"ann", "bob"}
        assert [limiter.allow("ann"), limiter.allow("ann")] == [True, False]
