"""Unit tests for (rho, sigma)-boundedness checking and token buckets (Def. 2.1)."""

from __future__ import annotations

import json

import pytest

from float_bucket_oracle import FloatTokenBucket
from repro.adversary.base import InjectionPattern
from repro.adversary.bounded import (
    TokenBucket,
    assert_bounded,
    check_bounded,
    tightest_bound,
    tightest_sigma,
)
from repro.network.errors import BoundednessViolationError
from repro.network.topology import LineTopology


class TestCheckBounded:
    def test_empty_pattern_is_bounded(self):
        line = LineTopology(4)
        report = check_bounded(InjectionPattern([]), line, 0.5, 0)
        assert report.bounded
        assert report.max_excess == 0

    def test_single_packet_within_sigma(self):
        line = LineTopology(4)
        pattern = InjectionPattern.from_tuples([(0, 0, 3)])
        assert check_bounded(pattern, line, 0.5, 1).bounded
        assert check_bounded(pattern, line, 1.0, 0).bounded

    def test_burst_exceeding_sigma_detected(self):
        line = LineTopology(4)
        # Three packets crossing buffer 0 in one round: excess 3 - rho.
        pattern = InjectionPattern.from_tuples([(0, 0, 3)] * 3)
        report = check_bounded(pattern, line, 0.5, 1)
        assert not report.bounded
        assert report.worst_buffer in (0, 1, 2)
        assert report.max_excess == pytest.approx(2.5)

    def test_sustained_overrate_detected_even_with_large_sigma(self):
        line = LineTopology(3)
        # Two packets per round crossing buffer 0 at rho = 1: excess grows by 1
        # per round, so any finite sigma is eventually violated.
        pattern = InjectionPattern.from_tuples(
            [(t, 0, 2) for t in range(30) for _ in range(2)]
        )
        assert not check_bounded(pattern, line, 1.0, 10).bounded
        assert check_bounded(pattern, line, 1.0, 40).bounded

    def test_interval_not_just_prefix_is_checked(self):
        line = LineTopology(3)
        # Quiet for 20 rounds, then a burst of 4: the burst interval alone
        # violates sigma = 2 even though the long prefix average is low.
        pattern = InjectionPattern.from_tuples([(20, 0, 2)] * 4)
        assert not check_bounded(pattern, line, 0.5, 2).bounded
        assert check_bounded(pattern, line, 0.5, 4).bounded

    def test_assert_bounded_raises_with_details(self):
        line = LineTopology(4)
        pattern = InjectionPattern.from_tuples([(0, 0, 3)] * 5)
        with pytest.raises(BoundednessViolationError) as info:
            assert_bounded(pattern, line, 1.0, 1)
        assert info.value.observed > info.value.allowed

    def test_tightest_bound_matches_report(self):
        line = LineTopology(4)
        pattern = InjectionPattern.from_tuples([(0, 0, 3)] * 4 + [(3, 1, 3)])
        rho = 0.5
        report = check_bounded(pattern, line, rho, sigma=100)
        assert tightest_bound(pattern, line, rho) == pytest.approx(report.max_excess)
        assert tightest_sigma(pattern, line, rho) == pytest.approx(report.max_excess)

    def test_pattern_bounded_at_its_tightest_sigma(self):
        line = LineTopology(8)
        pattern = InjectionPattern.from_tuples(
            [(0, 0, 7), (0, 2, 5), (1, 0, 7), (4, 3, 6), (4, 3, 6)]
        )
        sigma = tightest_sigma(pattern, line, 0.5)
        assert check_bounded(pattern, line, 0.5, sigma).bounded
        assert not check_bounded(pattern, line, 0.5, sigma - 0.51).bounded


class TestTokenBucket:
    def test_initial_budget_is_sigma(self):
        bucket = TokenBucket(4, rho=0.5, sigma=2)
        bucket.start_round()
        assert bucket.can_inject([0, 1])
        assert bucket.headroom([0, 1]) == 2

    def test_inject_consumes_tokens(self):
        bucket = TokenBucket(3, rho=0.0, sigma=1)
        bucket.start_round()
        assert bucket.can_inject([0])
        bucket.inject([0])
        assert not bucket.can_inject([0])
        assert bucket.can_inject([1])

    def test_refill_at_rate_rho(self):
        bucket = TokenBucket(1, rho=0.5, sigma=1)
        bucket.start_round()
        bucket.inject([0])
        assert not bucket.can_inject([0])  # 0.5 tokens left after the burst
        bucket.start_round()
        assert bucket.can_inject([0])  # refilled back to a full token

    def test_fractional_rate_with_zero_sigma_admits_nothing(self):
        # Definition 2.1 with sigma = 0 and rho = 0.5 forbids even a single
        # packet (an interval of length 1 allows only 0.5 crossings), so the
        # bucket must never admit.
        bucket = TokenBucket(1, rho=0.5, sigma=0)
        for _ in range(10):
            bucket.start_round()
            assert not bucket.can_inject([0])

    def test_cap_prevents_unbounded_accumulation(self):
        bucket = TokenBucket(1, rho=1.0, sigma=2)
        for _ in range(100):
            bucket.start_round()
        # At most sigma + rho tokens may be available in a single round.
        assert bucket.available(0) <= 3.0

    def test_generated_stream_is_bounded(self):
        """Whatever the bucket admits must satisfy Definition 2.1."""
        line = LineTopology(6)
        bucket = TokenBucket(6, rho=0.7, sigma=2)
        tuples = []
        for t in range(50):
            bucket.start_round()
            # Greedily admit as many full-line packets as possible.
            while bucket.can_inject(list(range(5))):
                bucket.inject(list(range(5)))
                tuples.append((t, 0, 5))
        pattern = InjectionPattern.from_tuples(tuples)
        assert check_bounded(pattern, line, 0.7, 2).bounded

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(2, rho=-0.1, sigma=0)
        with pytest.raises(ValueError):
            TokenBucket(2, rho=0.5, sigma=-1)

    def test_headroom_empty_route(self):
        bucket = TokenBucket(2, rho=0.5, sigma=3)
        assert bucket.headroom([]) == 0

    def test_range_and_list_routes_agree(self):
        bucket = TokenBucket(8, rho=0.5, sigma=2)
        bucket.start_round()
        bucket.inject(range(2, 5))
        bucket.inject([3, 4])
        for route in (range(0, 8), range(2, 4), range(5, 8), range(4, 5)):
            as_list = list(route)
            assert bucket.can_inject(route) == bucket.can_inject(as_list)
            assert bucket.headroom(route) == bucket.headroom(as_list)
        assert bucket.headroom(range(0, 8)) == 0
        assert bucket.headroom(range(5, 8)) == 2
        assert bucket.last_exhausted(range(0, 8)) == 4
        assert bucket.last_exhausted(range(5, 8)) is None

    def test_empty_range_behaves_like_empty_list(self):
        bucket = TokenBucket(3, rho=0.5, sigma=0)
        bucket.start_round()
        for empty in ([], range(2, 2), range(2, 1)):
            assert bucket.can_inject(empty) is True
            assert bucket.headroom(empty) == 0
            bucket.inject(empty)
        assert bucket.state()["tokens"] == [0.5, 0.5, 0.5]

    def test_state_is_plain_floats_matching_the_oracle(self):
        bucket = TokenBucket(5, rho=0.3, sigma=2.5)
        oracle = FloatTokenBucket(5, rho=0.3, sigma=2.5)
        for b in (bucket, oracle):
            for _ in range(3):
                b.start_round()
                b.inject(range(1, 4))
        state = bucket.state()
        assert all(type(level) is float for level in state["tokens"])
        assert json.dumps(state) == json.dumps(oracle.state())

    def test_set_state_round_trips(self):
        bucket = TokenBucket(4, rho=0.7, sigma=1)
        bucket.start_round()
        bucket.inject([0, 2])
        saved = json.loads(json.dumps(bucket.state()))
        restored = TokenBucket(4, rho=0.7, sigma=1)
        restored.set_state(saved)
        assert restored.state() == bucket.state()
        with pytest.raises(ValueError, match="3 buffers, expected 4"):
            restored.set_state({"tokens": [1.0, 1.0, 1.0]})
