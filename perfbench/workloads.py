"""The benchmark's workloads: four line-topology scenarios, one per layer.

Each workload is a :class:`Workload` whose :meth:`Workload.spec` turns a seed
into the :class:`~repro.api.specs.ScenarioSpec` a user would run.  The seed
goes into ``policy.seed``, so the same seed gives the same injections.
Horizons are sized so that one ``Session.run`` takes half a second to a
second on a 2-CPU host; the README explains why each workload was chosen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.api import ScenarioSpec


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario, parameterised by the seed and a scratch dir."""

    name: str
    why: str
    nodes: int
    algorithm: Dict[str, Any]
    adversary: Dict[str, Any]
    policy: Dict[str, Any] = field(default_factory=dict)

    def spec(self, seed: int, workdir: str, **policy: Any) -> ScenarioSpec:
        """The scenario for ``seed``; ``policy`` overrides policy fields.

        Checkpoint files go under ``workdir``, which the runner keeps inside
        the checkout.
        """
        merged: Dict[str, Any] = dict(self.policy, seed=seed)
        if merged.get("checkpoint_every"):
            merged["checkpoint_path"] = os.path.join(workdir, f"{self.name}.ckpt")
        merged.update(policy)
        return ScenarioSpec.from_dict(
            {
                "name": f"perfbench/{self.name}",
                "topology": {"kind": "line", "params": {"num_nodes": self.nodes}},
                "algorithm": self.algorithm,
                "adversary": self.adversary,
                "policy": merged,
            }
        )

    @property
    def shards(self) -> Optional[int]:
        return self.policy.get("shards")


def _greedy_destinations(n: int) -> list:
    return [n // 4, n // 2, n - 1]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pts-eager",
            why="eager single-destination adversary: TokenBucket admission "
            "in set-up is most of the run",
            nodes=4096,
            algorithm={"name": "pts", "params": {"work_conserving": True}},
            adversary={"name": "single", "rho": 1.0, "sigma": 4.0,
                       "rounds": 256, "params": {}},
            policy={"drain": False, "engine": "batch"},
        ),
        Workload(
            name="pts-trickle",
            why="65k-node line with ~1 packet per round: the batch kernel's "
            "sweep over empty nodes is the whole cost",
            nodes=65536,
            algorithm={"name": "pts", "params": {"work_conserving": True}},
            adversary={"name": "trickle", "rho": 1.0, "sigma": 1.0,
                       "rounds": 256, "params": {"stream": True}},
            policy={"drain": False, "history": "streaming", "engine": "batch"},
        ),
        Workload(
            name="hpts-ckpt",
            why="the paper's HPTS on the delta engine: lazy admission inside "
            "the round loop and periodic checkpoint writes",
            nodes=1024,
            algorithm={"name": "hpts", "params": {"levels": 2}},
            adversary={"name": "bounded", "rho": 0.5, "sigma": 4.0,
                       "rounds": 256,
                       "params": {"num_destinations": 8, "stream": True}},
            policy={"drain": True, "checkpoint_every": 128},
        ),
        Workload(
            name="greedy-shards2",
            why="greedy batch run split over 2 worker processes: the only "
            "workload with spawn, ring waits and collect",
            nodes=30000,
            algorithm={"name": "greedy", "params": {}},
            adversary={"name": "trickle", "rho": 1.0, "sigma": 1.0,
                       "rounds": 500,
                       "params": {"stream": True,
                                  "destinations": _greedy_destinations(30000)}},
            policy={"drain": False, "history": "streaming", "engine": "batch",
                    "shards": 2},
        ),
    )
}
