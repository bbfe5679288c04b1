"""Timed calls into the program's public layers, made from outside ``src/``.

Nothing here instruments the program: every span is a ``perf_counter``
interval around one public call (``Session.prepare``, a registry builder,
an engine constructor, ``run``, ``save_checkpoint`` ...).  The spans are
kept in memory as ``(name, seconds)`` pairs and reduced by the runner.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time
from typing import Any, Dict, List, Tuple

from repro.adversary.base import InjectionPattern
from repro.api import ScenarioSpec, Session, build_topology
from repro.api.registry import ADVERSARIES, ALGORITHMS
from repro.checkpoint import load_checkpoint, restore_into
from repro.core.packet import packet_id_scope
from repro.network.batch import BatchSimulator
from repro.network.errors import UnbatchableScenarioError
from repro.network.events import SimulationResult
from repro.network.sharded import run_sharded
from repro.network.simulator import Simulator

from workloads import Workload

#: ``(spec, result)`` pairs: every simulation result a probe produced, with
#: the spec whose delta-engine reference it must equal.
Results = List[Tuple[ScenarioSpec, SimulationResult]]


def reference_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """``spec`` on the delta engine in one process: the reference run."""
    payload = spec.to_dict()
    payload["policy"] = dict(payload["policy"], engine=None, shards=None)
    return ScenarioSpec.from_dict(payload)


def _engine_keywords(spec: ScenarioSpec) -> Dict[str, Any]:
    policy = spec.policy
    return dict(
        record_history=policy.record_history,
        record_occupancy_vectors=policy.record_occupancy_vectors,
        history=policy.history,
        validate_capacity=policy.validate_capacity,
    )


def build_engine(prepared: Any, spec: ScenarioSpec) -> Simulator:
    """The engine ``Session.run`` would construct for ``prepared``.

    Mirrors the routing of ``engine="batch"/"auto"`` (batch kernel, with
    ``auto`` falling back to the delta engine on a refusal) and passes the
    same policy keywords.
    """
    keywords = _engine_keywords(spec)
    if spec.policy.engine in ("batch", "auto"):
        try:
            return BatchSimulator(
                prepared.topology, prepared.algorithm, prepared.adversary,
                batch_rounds=spec.policy.batch_rounds, **keywords,
            )
        except UnbatchableScenarioError:
            if spec.policy.engine == "batch":
                raise
    return Simulator(
        prepared.topology, prepared.algorithm, prepared.adversary, **keywords
    )


def run_engine(engine: Simulator, spec: ScenarioSpec, upto: int = None,
               *, drain: bool = None) -> SimulationResult:
    """``engine.run`` with the keywords ``Session.run`` passes from ``spec``."""
    policy = spec.policy
    return engine.run(
        policy.rounds if upto is None else upto,
        drain=policy.drain if drain is None else drain,
        max_drain_rounds=policy.max_drain_rounds,
        checkpoint_every=policy.checkpoint_every,
        checkpoint_path=policy.checkpoint_path,
        checkpoint_spec=spec,
    )


def setup_seconds(spec: ScenarioSpec) -> float:
    """Seconds from spec to engine ready: a fresh ``Session.prepare`` plus the
    engine constructor with its prevalidation (the run is not started)."""
    with packet_id_scope():
        start = time.perf_counter()
        engine = build_engine(Session().prepare(spec), spec)
        elapsed = time.perf_counter() - start
    del engine
    return elapsed


class Spans:
    """``name -> seconds`` for one traced pass, recorded around calls."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def time(self, name: str, call, *args, **kwargs):
        gc.collect()
        start = time.perf_counter()
        value = call(*args, **kwargs)
        self.seconds[name] = time.perf_counter() - start
        return value


def _greedy_twin(workload: Workload) -> Workload:
    """The same line and adversary under greedy on the batch kernel.  Greedy
    is the batch kernel's multi-destination algorithm; HPTS has no kernel."""
    return dataclasses.replace(
        workload,
        name=workload.name + "-greedy-twin",
        algorithm={"name": "greedy", "params": {}},
        policy=dict(workload.policy, engine="batch", checkpoint_every=None),
    )


def traced_pass(workload: Workload, seed: int, workdir: str) -> Tuple[Dict[str, float], Results]:
    """Time every layer once on ``workload``; return the layer metrics and
    every result produced (labelled by the spec they must match)."""
    spans = Spans()
    results: Results = []
    spec = workload.spec(seed, workdir)
    single = workload.spec(seed, workdir, shards=None)
    sharded = workload.spec(seed, workdir, shards=2)
    adv = single.adversary
    rounds = adv.rounds

    # -- set-up layers, each on its own -------------------------------------
    with packet_id_scope():
        prepared = spans.time("api.prepare_s", Session().prepare, single)
        topology = spans.time("network.topology.build_s", _topology, single)
        adversary = spans.time(
            "adversary.build_s", ADVERSARIES.get(adv.name), topology,
            rho=adv.rho, sigma=adv.sigma, rounds=rounds,
            **dict(adv.params, seed=seed),
        )
        spans.time(
            "core.algorithm_build_s", ALGORITHMS.get(single.algorithm.name),
            topology, **single.algorithm.params,
        )
        lazy = ADVERSARIES.get(adv.name)(
            topology, rho=adv.rho, sigma=adv.sigma, rounds=rounds,
            **dict(adv.params, seed=seed, stream=True),
        )
        packets = spans.time("adversary.rows_s", _drain_rows, lazy, rounds)
    eager = isinstance(adversary, InjectionPattern)
    del adversary, lazy

    # -- the workload's own single-process engine -------------------------------
    with packet_id_scope():
        engine = spans.time("engine.build_s", build_engine, prepared, single)
        own = spans.time("engine.run_s", run_engine, engine, single)
    results.append((single, own))
    del prepared, engine

    # -- batch kernel: the run above, or a greedy twin where it was not batched
    if single.policy.engine == "batch":
        s = spans.seconds
        s["network.batch.build_s"], s["network.batch.run_s"] = (
            s["engine.build_s"], s["engine.run_s"])
        batch_rounds = own.rounds_executed
    else:
        twin = _greedy_twin(workload).spec(seed, workdir, shards=None)
        with packet_id_scope():
            prepared = Session().prepare(twin)
            engine = spans.time("network.batch.build_s", build_engine, prepared, twin)
            result = spans.time("network.batch.run_s", run_engine, engine, twin)
        results.append((twin, result))
        batch_rounds = result.rounds_executed
        del prepared, engine

    # -- delta engine, split at mid-horizon by a checkpoint save -------------
    mid_path = os.path.join(workdir, "mid.ckpt")
    with packet_id_scope():
        prepared = Session().prepare(single)
        delta = spans.time("network.simulator.build_s", Simulator,
                           prepared.topology, prepared.algorithm,
                           prepared.adversary, **_engine_keywords(single))
        spans.time("delta.first_s", run_engine, delta, single, rounds // 2, drain=False)
        size = spans.time("checkpoint.save_s", delta.save_checkpoint, mid_path, spec=single)
        results.append((single, spans.time("delta.rest_s", run_engine, delta, single)))
    del prepared, delta
    checkpoint = spans.time("checkpoint.load_s", load_checkpoint, mid_path)
    with packet_id_scope():
        prepared = Session().prepare(single)
        fresh = Simulator(prepared.topology, prepared.algorithm,
                          prepared.adversary, **_engine_keywords(single))
        spans.time("checkpoint.restore_s", restore_into, fresh, checkpoint)
    del prepared, fresh, checkpoint

    # -- sharded execution and its end-to-end twins ---------------------------
    result, _ = spans.time("network.sharded.run_s", run_sharded, sharded, shards=2)
    results.append((single, result))
    result, _ = spans.time("network.sharded.run_1w_s", run_sharded, sharded, shards=1)
    results.append((single, result))
    report = spans.time("network.sharded.single_s", Session().run, single)
    results.append((single, report.result))
    if workload.shards:
        report = spans.time("session.sharded_s", Session().run, spec)
        results.append((single, report.result))

    s = spans.seconds
    n = workload.nodes
    values: Dict[str, float] = {
        name: s[name]
        for name in (
            "api.prepare_s", "network.topology.build_s", "adversary.build_s",
            "adversary.rows_s", "core.algorithm_build_s",
            "network.batch.build_s", "network.batch.run_s",
            "network.simulator.build_s", "checkpoint.save_s",
            "checkpoint.load_s", "checkpoint.restore_s",
            "network.sharded.run_s", "network.sharded.run_1w_s",
            "network.sharded.single_s",
        )
    }
    adversary_paid = s["adversary.build_s"] + (0.0 if eager else s["adversary.rows_s"])
    simulator_run = s["delta.first_s"] + s["delta.rest_s"]
    values.update({
        "adversary.packets": packets,
        "adversary.us_per_packet": adversary_paid / packets * 1e6,
        "network.batch.ns_per_node_round":
            s["network.batch.run_s"] / (n * batch_rounds) * 1e9,
        "network.simulator.run_s": simulator_run,
        "network.simulator.loop_s":
            simulator_run - (0.0 if eager else s["adversary.rows_s"]),
        "checkpoint.bytes": size,
        "checkpoint.cuts": (
            rounds // single.policy.checkpoint_every
            if single.policy.checkpoint_every else 0
        ),
        "network.sharded.speedup":
            s["network.sharded.single_s"] / s["network.sharded.run_s"],
        "network.sharded.overhead":
            s["network.sharded.run_1w_s"] / s["network.sharded.single_s"],
    })
    # The spans that make up one Session.run of the workload; the report
    # remainder is that run's wall clock minus the spans timed apart.
    if workload.shards:
        parts = s["network.sharded.run_s"]
        session_wall = s["session.sharded_s"]
    else:
        parts = s["api.prepare_s"] + s["engine.build_s"] + s["engine.run_s"]
        session_wall = s["network.sharded.single_s"]
    values["api.report_s"] = session_wall - parts
    values["trace.critical_path_s"] = parts + values["api.report_s"]
    return values, results


def _topology(spec: ScenarioSpec):
    topology = build_topology(spec.topology)
    topology.next_hop_table()
    return topology


def _drain_rows(adversary, rounds: int) -> int:
    """Pull every round of a lazy adversary; return the packets it made."""
    return sum(len(adversary.injections_for_round(t)) for t in range(rounds))
