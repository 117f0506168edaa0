"""Per-tenant token-bucket quotas: edge cases and concurrency safety."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.quota import (
    QuotaConfig,
    QuotaExceeded,
    TenantQuotas,
    TokenBucket,
)


class TestTokenBucket:
    def test_all_or_nothing(self):
        b = TokenBucket(10)
        assert b.try_acquire(10)
        assert not b.try_acquire(1)
        assert b.available == 0

    def test_rejection_spends_nothing(self):
        b = TokenBucket(10)
        assert b.try_acquire(4)
        assert not b.try_acquire(7)  # would overdraw
        assert b.available == 6      # the failed batch cost nothing
        assert b.try_acquire(6)

    def test_zero_cost_batch_always_admitted(self):
        b = TokenBucket(0)
        assert b.try_acquire(0)

    def test_manual_refill_caps_at_capacity(self):
        b = TokenBucket(10, refill_per_s=4.0)
        assert b.try_acquire(10)
        b.advance(1.0)
        assert b.available == 4.0
        b.advance(100.0)
        assert b.available == 10.0

    def test_negative_inputs_raise(self):
        with pytest.raises(ValueError):
            TokenBucket(-1)
        with pytest.raises(ValueError):
            TokenBucket(1, refill_per_s=-1)
        b = TokenBucket(1)
        with pytest.raises(ValueError):
            b.try_acquire(-1)
        with pytest.raises(ValueError):
            b.advance(-0.5)

    def test_wall_clock_mode_refills(self):
        t = [0.0]
        b = TokenBucket(10, refill_per_s=2.0, clock=lambda: t[0])
        assert b.try_acquire(10)
        t[0] = 3.0
        assert b.available == 6.0
        assert b.try_acquire(6)


class TestZeroQuotaTenant:
    """A configured capacity of 0 is a valid always-reject quota."""

    def test_zero_quota_rejects_everything(self):
        quotas = TenantQuotas()
        quotas.set_quota("banned", 0)
        assert not quotas.try_charge("banned", 1)
        with pytest.raises(QuotaExceeded):
            quotas.charge("banned", 1)
        # the empty batch is still admitted (it costs nothing)
        assert quotas.try_charge("banned", 0)

    def test_zero_quota_with_refill_recovers(self):
        quotas = TenantQuotas()
        quotas.set_quota("throttled", 0, refill_per_s=5.0)
        assert not quotas.try_charge("throttled", 3)
        quotas.advance(1.0)
        # refill credits above capacity are clamped: capacity 0 means
        # the bucket can never hold tokens
        assert not quotas.try_charge("throttled", 1)


class TestExactExhaustion:
    """Quota exactly exhausted on a batch boundary: the boundary batch
    is admitted, the next op is not."""

    def test_boundary_batch_admits_then_rejects(self):
        quotas = TenantQuotas()
        quotas.set_quota("t", 100)
        assert quotas.try_charge("t", 60)
        assert quotas.try_charge("t", 40)   # lands exactly on 0
        assert not quotas.try_charge("t", 1)
        stats = quotas.stats()["t"]
        assert stats.admitted_ops == 100
        assert stats.rejected_ops == 1
        assert stats.available == 0

    def test_exact_refill_boundary(self):
        quotas = TenantQuotas()
        quotas.set_quota("t", 10, refill_per_s=10.0)
        assert quotas.try_charge("t", 10)
        assert not quotas.try_charge("t", 10)
        quotas.advance(1.0)              # exactly one batch's worth
        assert quotas.try_charge("t", 10)
        assert not quotas.try_charge("t", 1)


class TestDefaultsAndConfig:
    def test_unknown_tenant_is_unlimited_without_default(self):
        quotas = TenantQuotas()
        assert quotas.try_charge("anyone", 10 ** 9)
        quotas.charge("anyone", 10 ** 9)  # never raises

    def test_default_capacity_applies_lazily(self):
        quotas = TenantQuotas(default_capacity=5)
        assert quotas.try_charge("new", 5)
        assert not quotas.try_charge("new", 1)
        # a second unknown tenant gets its own bucket, not the same one
        assert quotas.try_charge("other", 5)

    def test_quota_config_builds_shapes(self):
        quotas = QuotaConfig(
            default_capacity=8,
            tenants={"a": (2, 1.0), "b": 3},
        ).build()
        assert quotas.bucket("a").capacity == 2
        assert quotas.bucket("a").refill_per_s == 1.0
        assert quotas.bucket("b").capacity == 3
        assert quotas.bucket("c").capacity == 8


class TestConcurrentSubmitters:
    """The invariant: however many threads race, admitted ops never
    exceed the budget and nothing is double-spent."""

    def test_no_double_spend_under_contention(self):
        capacity = 1000
        bucket = TokenBucket(capacity)
        admitted = []

        def submitter(seed: int) -> None:
            batch = 7 + seed  # unequal batch sizes race differently
            got = 0
            for _ in range(200):
                if bucket.try_acquire(batch):
                    got += batch
            admitted.append(got)

        threads = [threading.Thread(target=submitter, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(admitted) <= capacity
        assert sum(admitted) == bucket.admitted_ops
        assert bucket.available == capacity - sum(admitted)

    @settings(max_examples=30, deadline=None)
    @given(
        capacity=st.integers(min_value=0, max_value=200),
        batches=st.lists(st.integers(min_value=0, max_value=50),
                         min_size=1, max_size=24),
        refills=st.lists(st.floats(min_value=0.0, max_value=5.0,
                                   allow_nan=False),
                         min_size=0, max_size=4),
    )
    def test_admitted_never_exceeds_budget(self, capacity, batches,
                                           refills):
        """Property: admitted <= capacity + total refill credit, and
        the final balance is exactly budget - admitted (clamped)."""
        refill_rate = 3.0
        bucket = TokenBucket(capacity, refill_per_s=refill_rate)
        threads = []
        for i, batch in enumerate(batches):
            threads.append(threading.Thread(
                target=bucket.try_acquire, args=(batch,)
            ))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for dt in refills:
            bucket.advance(dt)
        budget = capacity + refill_rate * sum(refills)
        assert bucket.admitted_ops <= budget + 1e-6
        assert bucket.admitted_ops + bucket.rejected_ops == sum(batches)
        assert 0 <= bucket.available <= capacity
