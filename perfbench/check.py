"""The correctness check applied to every result the benchmark produces.

A result passes when it equals the reference — the same spec and seed run on
the delta engine in one process, untimed — field for field, its maximum
occupancy is within the algorithm's ``theoretical_bound``, and every
injected packet is either delivered or still undelivered.
"""

from __future__ import annotations

from dataclasses import fields
from typing import List, Optional

from repro.network.events import SimulationResult


def check_run(
    result: SimulationResult,
    reference: SimulationResult,
    bound: Optional[float],
) -> List[str]:
    """Every way ``result`` fails the check; empty when it passes."""
    problems = []
    differing = [
        f.name
        for f in fields(SimulationResult)
        if getattr(result, f.name) != getattr(reference, f.name)
    ]
    if differing:
        problems.append(
            "differs from the delta reference in " + ", ".join(differing)
        )
    if bound is not None and result.max_occupancy > bound:
        problems.append(
            f"max_occupancy {result.max_occupancy} exceeds the bound {bound}"
        )
    accounted = result.packets_delivered + result.packets_undelivered
    if result.packets_injected != accounted:
        problems.append(
            f"injected {result.packets_injected} != delivered "
            f"{result.packets_delivered} + undelivered "
            f"{result.packets_undelivered}"
        )
    return problems
