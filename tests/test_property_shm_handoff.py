"""Property-based (Hypothesis) checks for the columnar boundary hand-off.

The shared-memory rings are a *transport*: the sequence of ingested
boundary blocks must be fully determined by the superstep protocol, never
by ring timing.  Each batch segment worker records every block it ingests
in a flat int64 trace (6 words per hand-off: round, packet id, source,
destination, injected round, arrival round), shipped back to the
coordinator as ``extras["handoff_traces"]``.

Fuzzed law: for random scenario shapes x random segmentations x random
window lengths — including horizons that tear the last window and drain
tails that stop mid-window — the per-segment traces from worker processes
are byte-identical to those from in-process worker threads (both drive the
same windows over the same kind of ring), and both runs produce the same
:class:`SimulationResult`.
"""

from __future__ import annotations

import os

from hypothesis import given, settings, strategies as st

from repro.api import Scenario, Session
from repro.network.sharded import run_sharded

ALGORITHMS = ("pts", "pts_wc", "local", "downhill", "greedy")

#: Six little-endian int64 words per ingested hand-off block.
TRACE_WORDS = 6


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=4, max_value=20))
    shards = draw(st.integers(min_value=2, max_value=min(5, n)))
    batch_rounds = draw(st.integers(min_value=1, max_value=16))
    rho = draw(st.floats(min_value=0.3, max_value=1.0,
                         allow_nan=False, allow_infinity=False))
    sigma = draw(st.integers(min_value=0, max_value=5))
    rounds = draw(st.integers(min_value=1, max_value=48))
    algorithm = draw(st.sampled_from(ALGORITHMS))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, shards, batch_rounds, rho, float(sigma), rounds, algorithm, seed


def _build_spec(scenario):
    n, shards, batch_rounds, rho, sigma, rounds, algorithm, seed = scenario
    builder = Scenario.line(n)
    if algorithm == "pts":
        builder.algorithm("pts")
    elif algorithm == "pts_wc":
        builder.algorithm("pts", work_conserving=True)
    elif algorithm == "local":
        builder.algorithm("local", locality=2)
    elif algorithm == "downhill":
        builder.algorithm("downhill")
    else:
        builder.algorithm("greedy")
    builder.adversary("trickle", rho=rho, sigma=sigma, rounds=rounds)
    builder.policy(seed=seed, engine="batch", batch_rounds=batch_rounds)
    return builder.build()


def _traces(extras):
    traces = extras["handoff_traces"]
    assert all(trace is not None for trace in traces), (
        "batch workers must ship a hand-off trace"
    )
    return [trace.tolist() for trace in traces]


@settings(max_examples=10, deadline=None)
@given(scenario=scenarios())
def test_ingested_blocks_identical_across_transports(scenario):
    """The law: worker processes == in-process worker threads, block for
    block and field for field."""
    n, shards, *_ = scenario
    spec = _build_spec(scenario)

    local_result, local_extras = run_sharded(
        spec, shards=shards, transport="local"
    )
    shm_result, shm_extras = run_sharded(
        spec, shards=shards, transport="processes"
    )

    assert shm_result == local_result
    assert local_extras["engine"]["transport"] == "local"
    assert shm_extras["engine"]["transport"] == "shm"

    local_traces = _traces(local_extras)
    assert _traces(shm_extras) == local_traces

    # Trace shape sanity: 6-word stride of (round, packet id, source,
    # destination, injected round, arrival round).  Hand-offs only flow
    # left-to-right, so segment 0 (no left neighbour) never ingests.
    rounds_executed = local_result.rounds_executed
    assert local_traces[0] == []
    for trace in local_traces:
        assert len(trace) % TRACE_WORDS == 0
        for base in range(0, len(trace), TRACE_WORDS):
            round_number, pid, src, dst, injected, arrival = (
                trace[base:base + TRACE_WORDS]
            )
            assert 0 <= round_number < rounds_executed
            assert pid >= 0
            assert 0 <= src < n
            assert 0 <= dst <= n
            assert 0 <= injected <= round_number
            assert 0 <= arrival <= round_number


@settings(max_examples=6, deadline=None)
@given(
    scenario=scenarios(),
    checkpoint_every=st.integers(min_value=1, max_value=12),
)
def test_checkpoint_cuts_tear_windows_identically(
    scenario, checkpoint_every, tmp_path_factory
):
    """Checkpoint cuts clamp windows mid-flight; the torn windows must
    ingest the same blocks on every transport, and the stitched cut must
    resume to the uninterrupted result."""
    n, shards, *_ = scenario
    directory = tmp_path_factory.mktemp("shm-handoff")
    base_spec = _build_spec(scenario)
    uninterrupted = Session().run(
        Scenario.from_spec(base_spec).policy(engine="delta").build()
    ).result

    results = {}
    for transport in ("local", "processes"):
        path = str(directory / f"{transport}.ckpt")
        spec = Scenario.from_spec(base_spec).policy(
            checkpoint_every=checkpoint_every, checkpoint_path=path,
        ).build()
        result, extras = run_sharded(spec, shards=shards, transport=transport)
        assert result == uninterrupted
        results[transport] = (_traces(extras), path)

    assert results["processes"][0] == results["local"][0]
    # A degenerate horizon (no injections, zero rounds executed) writes no
    # cut on any engine; the transports must at least agree on that.
    shm_path, local_path = results["processes"][1], results["local"][1]
    assert os.path.exists(shm_path) == os.path.exists(local_path)
    if os.path.exists(shm_path):
        resumed = Session().resume(shm_path)
        assert resumed.result == uninterrupted
