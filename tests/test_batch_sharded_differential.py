"""Differential proof for the batch x sharded engine.

The tentpole claim of the batch-sharded execution layer is the same as the
sharded engine's, one level up: ``engine="batch"`` with ``shards=k``
(k in {2, 3, 4}) produces a :class:`SimulationResult` equal — field for
field, including per-round history records and per-node occupancy maxima —
to the ``shards=1`` delta-engine run, across the whole vectorized family
({PTS, work-conserving PTS, local, downhill, greedy} x {trickle, random,
explicit} x three history modes), on both transports.  Every batch×shards
round runs through one drive mode: k-round windows whose boundary facts
travel over shared rings the coordinator creates before it starts the
workers.

* ``local``     — one thread per worker command, in-process (the fast full
  matrix);
* ``processes`` — forked worker processes that inherit the rings
  (``extras["engine"]["transport"] == "shm"``).

Beyond the result record, the stitched checkpoint's decoded *packet table*
(every ``packets/*`` int64 column) must match the single-process
checkpoint's bit for bit, and an injected worker crash mid-window must
recover to the identical result.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.api import Scenario, ScenarioSpec, Session
from repro.checkpoint import load_checkpoint
from repro.network.errors import UnbatchableScenarioError
from repro.network.faults import FaultEvent, FaultPlan
from repro.network.sharded import run_sharded

N = 16
ROUNDS = 60
#: Small enough that a 60-round horizon spans several windows plus a
#: ragged drain tail; coprime with the checkpoint cadence used below.
BATCH_ROUNDS = 13
SHARD_COUNTS = (2, 3, 4)
HISTORIES = ("summary", "streaming", "full")

#: The regular family the batch kernel vectorizes, with builder params.
#: Work-conserving PTS exercises the reverse boundary lane (suffix badness
#: chained right-to-left); downhill exercises the other reverse-lane user.
ALGORITHMS = {
    "pts": {"spec": ("pts", {}), "multi": False},
    "pts_wc": {"spec": ("pts", {"work_conserving": True}), "multi": False},
    "local": {"spec": ("local", {"locality": 2}), "multi": False},
    "downhill": {"spec": ("downhill", {}), "multi": False},
    "greedy": {"spec": ("greedy", {}), "multi": True},
}

ADVERSARIES = ("trickle", "random", "explicit")

#: Explicit schedule with round-0 bursts, repeated sources, boundary-node
#: injections at every 16/k split point (3|4, 5|6, 7|8, 10|11, 11|12) and a
#: long silent gap before a late straggler (drain-tail coverage).
_EXPLICIT_ROUTES = [
    (0, 0, N - 1), (0, 0, N - 1), (0, 3, N - 1), (1, 4, N - 1),
    (2, 5, N - 1), (3, 7, N - 1), (3, 8, N - 1), (5, 10, N - 1),
    (8, 11, N - 1), (8, 12, N - 1), (21, 1, N - 1), (40, 14, N - 1),
]


def _adversary_call(name: str, multi: bool, stream: bool):
    params = {"stream": True} if stream else {}
    if name == "random":
        registry_name = "bounded" if multi else "single"
        if multi:
            params["num_destinations"] = 3
    elif name == "explicit":
        registry_name = "explicit"
        params = {}  # explicit rows are already materialized
        params["routes"] = [list(route) for route in _EXPLICIT_ROUTES]
    else:
        registry_name = "trickle"
        if multi:
            params["destinations"] = [6, 11, N - 1]
    return registry_name, params


def _build_spec(algorithm: str, adversary: str, history: str, *,
                engine: str = "batch", seed: int = 17,
                **policy_extra) -> ScenarioSpec:
    config = ALGORITHMS[algorithm]
    name, algo_params = config["spec"]
    stream = history == "streaming"
    adversary_name, adversary_params = _adversary_call(
        adversary, config["multi"], stream
    )
    rho = 1.0 if adversary == "explicit" else 0.8
    sigma = 4.0 if adversary == "explicit" else 3.0
    scenario = Scenario.line(N).algorithm(name, **algo_params)
    scenario.adversary(
        adversary_name, rho=rho, sigma=sigma, rounds=ROUNDS,
        **adversary_params,
    )
    policy = {"seed": seed, "engine": engine, "batch_rounds": BATCH_ROUNDS}
    if history == "full":
        policy["record_history"] = True
    elif history == "streaming":
        policy["history"] = "streaming"
    policy.update(policy_extra)
    scenario.policy(**policy)
    return scenario.build()


def _delta_baseline(algorithm: str, adversary: str, history: str,
                    **policy_extra):
    spec = _build_spec(algorithm, adversary, history, engine="delta",
                       **policy_extra)
    return Session().run(spec).result


# ---------------------------------------------------------------------------
# The full matrix on the in-process transport
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_batch_sharded_matrix_local(algorithm, adversary):
    """engine=batch, shards in {2,3,4} x histories == shards=1 delta."""
    for history in HISTORIES:
        baseline = _delta_baseline(algorithm, adversary, history)
        spec = _build_spec(algorithm, adversary, history)
        for shards in SHARD_COUNTS:
            sharded, extras = run_sharded(spec, shards=shards,
                                          transport="local")
            assert sharded == baseline, (
                f"{algorithm}/{adversary}/{history} diverged at "
                f"shards={shards}"
            )
            assert extras["engine"]["selected"] == "batch"
            assert extras["engine"]["transport"] == "local"


def test_local_worker_threads_under_forced_switching():
    """More worker threads than cores, switching every few microseconds:
    a block lost or read twice on either lane would change the result, and
    no worker thread may outlive the run."""
    baseline = _delta_baseline("pts_wc", "random", "full")
    spec = _build_spec("pts_wc", "random", "full")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sharded, _ = run_sharded(spec, shards=4, transport="local")
    finally:
        sys.setswitchinterval(interval)
    assert sharded == baseline
    assert not [thread for thread in threading.enumerate()
                if thread.name.startswith("segment-worker-")]


# ---------------------------------------------------------------------------
# Real worker processes over fork-inherited rings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_processes_transport(algorithm):
    """Worker processes trading blocks over shared rings match the oracle."""
    baseline = _delta_baseline(algorithm, "trickle", "full")
    spec = _build_spec(algorithm, "trickle", "full")
    sharded, extras = run_sharded(spec, shards=3, transport="processes")
    assert sharded == baseline, f"{algorithm} diverged on processes transport"
    assert extras["engine"]["transport"] == "shm"


def test_shard_counts_on_shm_transport():
    """Worker processes across every acceptance shard count."""
    baseline = _delta_baseline("pts", "random", "summary")
    spec = _build_spec("pts", "random", "summary")
    for shards in SHARD_COUNTS:
        sharded, extras = run_sharded(
            spec, shards=shards, transport="processes"
        )
        assert sharded == baseline, f"shards={shards} diverged over shm"
        assert extras["engine"]["transport"] == "shm"


def test_rings_do_not_need_named_shared_memory(monkeypatch):
    """A host without ``/dev/shm``: named POSIX shared memory fails, and the
    anonymous fork-inherited rings still carry the run bit-identically."""
    from multiprocessing import shared_memory

    def unavailable(*args, **kwargs):
        raise OSError("no /dev/shm on this host")

    monkeypatch.setattr(shared_memory, "SharedMemory", unavailable)
    baseline = _delta_baseline("greedy", "random", "summary")
    spec = _build_spec("greedy", "random", "summary")
    sharded, extras = run_sharded(spec, shards=2, transport="processes")
    assert sharded == baseline
    assert extras["engine"]["transport"] == "shm"


def test_workers_without_rings_refuse_or_fall_back(monkeypatch):
    """Without fork, worker processes cannot inherit the rings: a batch
    engine is refused with a typed error, and engine=auto runs delta
    workers and records why."""
    from repro.network import sharded as sharded_module

    monkeypatch.setattr(sharded_module, "_can_fork", lambda: False)
    with pytest.raises(UnbatchableScenarioError, match="cannot fork"):
        run_sharded(_build_spec("pts", "random", "summary"), shards=2,
                    transport="processes")
    baseline = _delta_baseline("pts", "random", "summary")
    spec = _build_spec("pts", "random", "summary", engine="auto")
    sharded, extras = run_sharded(spec, shards=2, transport="processes")
    assert sharded == baseline
    assert extras["engine"]["selected"] == "delta"
    assert "cannot fork" in extras["engine"]["fallback_reason"]
    assert extras["engine"]["transport"] == "processes"


# ---------------------------------------------------------------------------
# Stitched checkpoints: resume equality and the decoded packet table
# ---------------------------------------------------------------------------


def _checkpoint_spec(history: str, path: str, engine: str) -> ScenarioSpec:
    return _build_spec(
        "pts", "random", history, engine=engine,
        checkpoint_every=20, checkpoint_path=path,
    )


@pytest.mark.parametrize("history", HISTORIES)
def test_stitched_checkpoint_matches_single_process(history, tmp_path):
    """The stitched cut equals the single-process checkpoint: same engine
    counters, same decoded ``packets/*`` columns (the packet table), and a
    resume from it finishes bit-identically."""
    single_path = str(tmp_path / "single.ckpt")
    sharded_path = str(tmp_path / "sharded.ckpt")
    baseline_spec = _checkpoint_spec(history, single_path, "delta")
    baseline = Session().run(baseline_spec).result

    spec = _checkpoint_spec(history, sharded_path, "batch")
    for transport in ("local", "processes"):
        sharded, _ = run_sharded(spec, shards=3, transport=transport)
        assert sharded == baseline

        stitched = load_checkpoint(sharded_path)
        single = load_checkpoint(single_path)
        assert stitched.round == single.round
        for field in ("round", "injected", "delivered", "latency_sum",
                      "latency_max", "num_nodes"):
            assert stitched.header["engine"][field] == \
                single.header["engine"][field]
        assert stitched.header["next_packet_id"] == \
            single.header["next_packet_id"]
        assert set(stitched.sections) == set(single.sections)
        for name in single.sections:
            if name.startswith("timeline/"):
                continue  # row order is stitch-dependent; compared below
            assert stitched.sections[name] == single.sections[name], (
                f"checkpoint section {name!r} diverged "
                f"({transport} transport)"
            )
        # The timeline rows are (node, load) pairs whose order depends on
        # how segments were stitched (true of the delta stitcher as well);
        # resume re-aggregates them, so compare as multisets.
        assert sorted(zip(stitched.section("timeline/nodes"),
                          stitched.section("timeline/loads"))) == \
            sorted(zip(single.section("timeline/nodes"),
                       single.section("timeline/loads")))

        resumed = Session().resume(sharded_path)
        assert resumed.result == baseline


# ---------------------------------------------------------------------------
# Pinned boundary cases: facts that only the other segment can supply
# ---------------------------------------------------------------------------

#: shards=2 splits the 16-node line into [0, 7] | [8, 15].  Each schedule
#: puts the decisive load at the split, so a segment that ignored the
#: neighbour's boundary fact would forward (or idle) differently in round 0.
PINNED_BOUNDARY = {
    # Bad buffer at 7, within locality 2 of node 8; the right segment holds
    # a packet but no bad buffer, so its idle shortcut must see the prefix.
    "local_prefix_bad": (
        ("local", {"locality": 2}),
        [(0, 7, N - 1), (0, 7, N - 1), (0, 8, N - 1), (2, 9, N - 1)],
    ),
    # Work-conserving PTS: the only bad buffer is node 10, so the loaded but
    # bad-free left segment must idle on the suffix fact.
    "pts_wc_suffix_bad": (
        ("pts", {"work_conserving": True}),
        [(0, 3, N - 1), (0, 10, N - 1), (0, 10, N - 1), (3, 5, N - 1)],
    ),
    # Downhill: edge node 7 (load 1) faces node 8 (load 2) and must hold;
    # two rounds later equal loads (2 vs 2) let it forward.
    "downhill_right_load": (
        ("downhill", {}),
        [(0, 7, N - 1), (0, 8, N - 1), (0, 8, N - 1),
         (2, 7, N - 1), (2, 7, N - 1), (2, 8, N - 1)],
    ),
}


def _pinned_spec(case: str, engine: str, path: str) -> ScenarioSpec:
    (name, algo_params), routes = PINNED_BOUNDARY[case]
    horizon = max(r for r, _s, _d in routes) + 1
    scenario = Scenario.line(N).algorithm(name, **algo_params)
    scenario.adversary("explicit", rho=1.0, sigma=4.0, rounds=horizon,
                       routes=[list(route) for route in routes])
    # The one checkpoint cut lands on the horizon, before the drain, while
    # packets are still in flight on both sides of the split.
    scenario.policy(seed=5, engine=engine, batch_rounds=BATCH_ROUNDS,
                    checkpoint_every=horizon, checkpoint_path=path)
    return scenario.build()


def _packet_table(path: str):
    checkpoint = load_checkpoint(path)
    return {
        name: checkpoint.sections[name]
        for name in checkpoint.sections
        if name.startswith("packets/")
    }


@pytest.mark.parametrize("transport", ["local", "processes"])
@pytest.mark.parametrize("case", sorted(PINNED_BOUNDARY))
def test_pinned_boundary_cases(case, transport, tmp_path):
    """shards=2 batch on a decisive boundary == the shards=1 delta run:
    result record and the packet table at the horizon cut."""
    single_path = str(tmp_path / "single.ckpt")
    sharded_path = str(tmp_path / "sharded.ckpt")
    baseline = Session().run(_pinned_spec(case, "delta", single_path)).result
    sharded, extras = run_sharded(
        _pinned_spec(case, "batch", sharded_path), shards=2,
        transport=transport,
    )
    assert sharded == baseline
    assert extras["engine"]["selected"] == "batch"
    assert extras["engine"]["transport"] == (
        "shm" if transport == "processes" else transport
    )
    table = _packet_table(single_path)
    assert table
    assert _packet_table(sharded_path) == table


# ---------------------------------------------------------------------------
# Injected worker crash mid-window
# ---------------------------------------------------------------------------


def _crash_plan(round_number: int = 33, segment: int = 1) -> FaultPlan:
    return FaultPlan(events=(
        FaultEvent(kind="crash", round=round_number, segment=segment,
                   phase="begin"),
    ))


#: Ring waits give up after 60 s; an aborted ring must end them long before.
RING_TIMEOUT_S = 60.0


@pytest.mark.parametrize("transport", ["local", "processes"])
@pytest.mark.parametrize("algorithm", ["pts", "downhill"])
def test_injected_crash_recovers_bit_identically(algorithm, transport,
                                                 tmp_path):
    """A worker crash mid-window restarts from the checkpoint cut and the
    run still finishes bit-identical to the fault-free delta oracle.

    Downhill trades the right-to-left lane every round, so its left
    neighbour is blocked on that lane when segment 1 dies; teardown's abort
    word must free it at once rather than after the ring timeout."""
    path = str(tmp_path / "crash.ckpt")
    baseline = _delta_baseline(algorithm, "random", "full")
    spec = _build_spec(algorithm, "random", "full", recovery="restart",
                       checkpoint_every=20, checkpoint_path=path)
    started = time.perf_counter()
    sharded, extras = run_sharded(
        spec, shards=3, transport=transport, faults=_crash_plan(),
    )
    elapsed = time.perf_counter() - started
    assert sharded == baseline
    assert extras["recovery"]["restarts"] >= 1
    assert elapsed < RING_TIMEOUT_S / 4


def test_injected_crash_fold_recovery_matches():
    """Fold recovery (no checkpoint: merge the dead segment into a
    neighbour and restitch) also preserves bit-identity in batch mode."""
    baseline = _delta_baseline("greedy", "trickle", "summary")
    spec = _build_spec("greedy", "trickle", "summary", recovery="fold")
    sharded, extras = run_sharded(
        spec, shards=3, transport="local", faults=_crash_plan(),
    )
    assert sharded == baseline
    assert len(extras["segments"]) == 2  # one fold happened


# ---------------------------------------------------------------------------
# Engine routing telemetry
# ---------------------------------------------------------------------------


def test_auto_engine_falls_back_with_reason():
    """engine=auto on an unbatchable algorithm runs delta workers and
    surfaces the refusal verbatim in extras['engine']."""
    spec = (
        Scenario.line(N)
        .algorithm("hpts", levels=2)
        .adversary("bounded", rho=0.4, sigma=3.0, rounds=ROUNDS,
                   num_destinations=3)
        .policy(seed=17, engine="auto")
        .build()
    )
    baseline_spec = Scenario.from_spec(spec).policy(engine="delta").build()
    baseline = Session().run(baseline_spec).result
    sharded, extras = run_sharded(spec, shards=3, transport="local")
    assert sharded == baseline
    engine = extras["engine"]
    assert engine["requested"] == "auto"
    assert engine["selected"] == "delta"
    assert "batch kernel" in engine["fallback_reason"]


def test_batch_engine_refuses_unbatchable_scenario():
    spec = (
        Scenario.line(N)
        .algorithm("hpts", levels=2)
        .adversary("bounded", rho=0.4, sigma=3.0, rounds=ROUNDS,
                   num_destinations=3)
        .policy(seed=17, engine="batch")
        .build()
    )
    with pytest.raises(UnbatchableScenarioError):
        run_sharded(spec, shards=3, transport="local")


def test_auto_selects_batch_for_regular_family():
    spec = _build_spec("local", "trickle", "summary", engine="auto")
    baseline = _delta_baseline("local", "trickle", "summary")
    sharded, extras = run_sharded(spec, shards=2, transport="local")
    assert sharded == baseline
    assert extras["engine"]["selected"] == "batch"
    assert extras["engine"]["fallback_reason"] is None


# ---------------------------------------------------------------------------
# Window-geometry edges
# ---------------------------------------------------------------------------


def test_rounds_override_and_no_drain_cut_windows_cleanly():
    """A horizon that is not a multiple of batch_rounds truncates the last
    window; drain=False must not run a single drain round."""
    baseline_spec = Scenario.from_spec(
        _build_spec("greedy", "random", "summary", engine="delta")
    ).policy(rounds=17, drain=False).build()
    baseline = Session().run(baseline_spec).result
    spec = Scenario.from_spec(
        _build_spec("greedy", "random", "summary")
    ).policy(rounds=17, drain=False).build()
    sharded, _ = run_sharded(spec, shards=3, transport="local")
    assert sharded == baseline
    assert sharded.rounds_executed == 17


def test_batch_rounds_one_degenerates_to_lockstep():
    """batch_rounds=1 must behave exactly like the per-round engine."""
    baseline = _delta_baseline("pts", "random", "full")
    spec = _build_spec("pts", "random", "full", batch_rounds=1)
    sharded, _ = run_sharded(spec, shards=3, transport="local")
    assert sharded == baseline


def test_width_one_segments_batch():
    """Every segment one node wide: each round every forward is a hand-off
    block through the boundary protocol."""
    routes = [(0, 0, 5), (0, 1, 4), (1, 0, 3), (2, 2, 5), (3, 0, 5)]
    scenario = Scenario.line(6).algorithm("greedy")
    scenario.adversary("explicit", rho=1.0, sigma=4.0,
                       rounds=max(r for r, _s, _d in routes) + 1,
                       routes=[list(route) for route in routes])
    scenario.policy(seed=3, engine="batch", batch_rounds=BATCH_ROUNDS)
    spec = scenario.build()
    baseline_spec = Scenario.from_spec(spec).policy(engine="delta").build()
    baseline = Session().run(baseline_spec).result
    sharded, _ = run_sharded(spec, shards=6, transport="local")
    assert sharded == baseline
    assert baseline.drained
