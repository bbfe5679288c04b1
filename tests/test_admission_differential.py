"""Differential suite: the numpy token bucket against the list-of-floats oracle.

Every bucketed adversary — the line generators (``bounded``, ``saturating``,
``single``, ``bursty``), the tree generator, the five stress builders and the
adaptive adversaries — is run twice over the grid
``rho in {0.1, 0.3, 0.5, 0.7, 1.0} x sigma in {0, 0.5, 1, 2.5, 4}``, eager and
streamed: once with :class:`repro.adversary.bounded.TokenBucket` and once with
:class:`float_bucket_oracle.FloatTokenBucket` swapped into the adversary
modules.  Both runs must produce the identical injection stream, the
identical ``bucket.state()`` JSON at every round boundary, and (for the
resumable adversaries) a byte-identical mid-horizon checkpoint file.

A Hypothesis property then drives random operation sequences on ``range``
and list routes through both buckets and requires identical answers.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import float_bucket_oracle
from float_bucket_oracle import FloatTokenBucket
from repro.adversary import adaptive, generators, stress
from repro.adversary.bounded import TokenBucket
from repro.api import Scenario, Session
from repro.core.packet import packet_id_scope
from repro.network.topology import LineTopology, binary_tree

RHOS = (0.1, 0.3, 0.5, 0.7, 1.0)
SIGMAS = (0.0, 0.5, 1.0, 2.5, 4.0)
GRID = [(rho, sigma) for rho in RHOS for sigma in SIGMAS]
N = 24
ROUNDS = 40
#: Not a divisor of ROUNDS, so exactly one checkpoint is written mid-run.
CHECKPOINT_AT = 23

LINE = LineTopology(N)
HIERARCHY_LINE = LineTopology(27)
TREE = binary_tree(3)

#: Resumable generators: (name, builder(rho, sigma, stream)).
GENERATORS = {
    "bounded": lambda rho, sigma, stream: generators.random_line_adversary(
        LINE, rho, sigma, ROUNDS, 4, seed=11, intensity=0.8, stream=stream
    ),
    "saturating": lambda rho, sigma, stream: generators.saturating_line_adversary(
        LINE, rho, sigma, ROUNDS, 4, seed=11, stream=stream
    ),
    "single": lambda rho, sigma, stream: generators.single_destination_adversary(
        LINE, rho, sigma, ROUNDS, seed=11, stream=stream
    ),
    "bursty": lambda rho, sigma, stream: generators.bursty_adversary(
        LINE, rho, sigma, ROUNDS, 3, burst_period=5, seed=11, stream=stream
    ),
    "tree-bounded": lambda rho, sigma, stream: generators.random_tree_adversary(
        TREE, rho, sigma, ROUNDS, seed=11, stream=stream
    ),
}

#: Eager-only stress builders: (name, builder(rho, sigma)).
STRESS = {
    "burst": lambda rho, sigma: stress.pts_burst_stress(LINE, rho, sigma, ROUNDS),
    "round-robin": lambda rho, sigma: stress.round_robin_destination_stress(
        LINE, rho, sigma, ROUNDS, 5
    ),
    "nested": lambda rho, sigma: stress.nested_route_stress(
        LINE, rho, sigma, ROUNDS, 5
    ),
    "hierarchy": lambda rho, sigma: stress.hierarchy_stress(
        HIERARCHY_LINE, rho, sigma, ROUNDS, 3, 3
    ),
    "convergecast": lambda rho, sigma: stress.tree_convergecast_stress(
        TREE, rho, sigma, ROUNDS
    ),
}

#: Session-driven scenarios whose checkpoint carries a bucket cursor:
#: (topology builder, algorithm, adversary, adversary params).
SCENARIOS = {
    "bounded": (lambda: Scenario.line(N), "ppts", "bounded",
                {"num_destinations": 4, "stream": True}),
    "saturating": (lambda: Scenario.line(N), "ppts", "saturating",
                   {"num_destinations": 4, "stream": True}),
    "single": (lambda: Scenario.line(N), "pts", "single", {"stream": True}),
    "bursty": (lambda: Scenario.line(N), "ppts", "bursty",
               {"num_destinations": 3, "burst_period": 5, "stream": True}),
    "tree-bounded": (lambda: Scenario.tree("binary", depth=3), "tree-pts",
                     "bounded", {"stream": True}),
    "hotspot": (lambda: Scenario.line(N), "ppts", "hotspot", {}),
    "blocking": (lambda: Scenario.line(N), "pts", "blocking", {}),
}


def _recording(bucket_cls, buckets):
    """``bucket_cls`` that logs its state JSON at every round boundary."""

    class Recording(bucket_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.states = []
            buckets.append(self)

        def start_round(self):
            self.states.append(json.dumps(self.state()))
            super().start_round()

    return Recording


def _with_bucket(monkeypatch, bucket_cls, action):
    """Run ``action()`` with ``bucket_cls`` in every adversary module.

    Returns the action's result and every bucket's state log, closed by its
    final state.
    """
    buckets = []
    recording = _recording(bucket_cls, buckets)
    with monkeypatch.context() as patch:
        for module in (generators, stress, adaptive):
            patch.setattr(module, "TokenBucket", recording)
        with packet_id_scope():
            result = action()
    return result, [b.states + [json.dumps(b.state())] for b in buckets]


def _rows(adversary):
    return [
        [(p.packet_id, p.source, p.destination)
         for p in adversary.injections_for_round(t)]
        for t in range(ROUNDS)
    ]


def _assert_identical(monkeypatch, action):
    observed, observed_states = _with_bucket(monkeypatch, TokenBucket, action)
    oracle, oracle_states = _with_bucket(monkeypatch, FloatTokenBucket, action)
    assert observed == oracle
    assert observed_states == oracle_states
    assert observed_states, "the adversary never built a token bucket"


@pytest.mark.parametrize("stream", [False, True], ids=["eager", "stream"])
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_streams_and_states_match_oracle(monkeypatch, name, stream):
    build = GENERATORS[name]
    for rho, sigma in GRID:
        _assert_identical(monkeypatch, lambda: _rows(build(rho, sigma, stream)))


@pytest.mark.parametrize("name", sorted(STRESS))
def test_stress_streams_and_states_match_oracle(monkeypatch, name):
    build = STRESS[name]
    for rho, sigma in GRID:
        _assert_identical(monkeypatch, lambda: _rows(build(rho, sigma)))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_checkpoint_bytes_match_oracle(monkeypatch, tmp_path, name):
    topology, algorithm, adversary, params = SCENARIOS[name]
    path = tmp_path / "mid.ckpt"

    def run():
        spec = (
            topology()
            .algorithm(algorithm)
            .adversary(adversary, rho=rho, sigma=sigma, rounds=ROUNDS, **params)
            .policy(seed=5, checkpoint_every=CHECKPOINT_AT,
                    checkpoint_path=str(path))
            .build()
        )
        report = Session().run(spec)
        return report.result, path.read_bytes()

    for rho, sigma in GRID:
        _assert_identical(monkeypatch, run)


@pytest.mark.parametrize("num_destinations", [1, 2, 5, N - 1])
def test_nested_waves_match_per_route_admission(num_destinations):
    """The one-range wave check admits exactly what per-route checks did."""
    for rho, sigma in GRID:
        with packet_id_scope():
            observed = _rows(stress.nested_route_stress(
                LINE, rho, sigma, ROUNDS, num_destinations))
        with packet_id_scope():
            expected = _rows(float_bucket_oracle.nested_route_stress(
                LINE, rho, sigma, ROUNDS, num_destinations))
        assert observed == expected


# -- operation-level property ---------------------------------------------------

NODES = 12
_route = st.one_of(
    st.builds(
        lambda a, b: range(min(a, b), max(a, b)),
        st.integers(0, NODES), st.integers(0, NODES),
    ),
    st.lists(st.integers(0, NODES - 1), unique=True, max_size=NODES),
)
_op = st.one_of(
    st.just(("start_round",)),
    st.tuples(st.just("can_inject"), _route),
    st.tuples(st.just("inject"), _route),
    st.tuples(st.just("headroom"), _route),
    st.tuples(st.just("available"), st.integers(0, NODES - 1)),
    st.tuples(st.just("last_exhausted"),
              st.builds(range, st.integers(0, NODES), st.integers(0, NODES))),
)


@settings(max_examples=200, deadline=None)
@given(
    rho=st.sampled_from(RHOS),
    sigma=st.sampled_from(SIGMAS),
    ops=st.lists(_op, max_size=60),
)
def test_random_operation_sequences_match_oracle(rho, sigma, ops):
    bucket = TokenBucket(NODES, rho, sigma)
    oracle = FloatTokenBucket(NODES, rho, sigma)
    for name, *args in ops:
        observed = getattr(bucket, name)(*args)
        expected = getattr(oracle, name)(*args)
        assert observed == expected and type(observed) is type(expected)
        assert json.dumps(bucket.state()) == json.dumps(oracle.state())
