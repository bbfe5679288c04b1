"""Reference token bucket: one Python float per buffer, one loop per query.

This is the list-of-floats ``TokenBucket`` that production used before token
levels moved into a numpy array.  The differential suite swaps it into the
generators, stress builders and adaptive adversaries and requires identical
injection streams, bucket states and checkpoint bytes.

:func:`nested_route_stress` is the per-route wave admission the nested stress
builder ran before it admitted a whole wave as one range; swapping the bucket
alone cannot check that rewrite, so the suite compares against it directly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.adversary.base import InjectionPattern
from repro.adversary.stress import evenly_spaced_destinations
from repro.core.packet import Injection, make_injection
from repro.network.topology import LineTopology


class FloatTokenBucket:
    """Per-buffer leaky buckets for *constructing* bounded patterns.

    The generators in :mod:`repro.adversary.generators` use this to decide,
    round by round, whether injecting a candidate packet would keep the
    pattern ``(rho, sigma)``-bounded: a packet crossing buffers ``S`` is
    admissible iff every bucket in ``S`` has at least one token.

    Each bucket starts with ``sigma`` tokens (the burst budget), gains ``rho``
    tokens per round, and is capped at ``sigma``... almost: the classical
    token-bucket cap is ``sigma + rho`` *immediately after refill* so that a
    steady stream at exactly rate ``rho`` is admissible.  This matches the
    excess recurrence ``xi_t = max(xi_{t-1} + N_t - rho, 0) <= sigma``.
    """

    def __init__(self, num_nodes: int, rho: float, sigma: float) -> None:
        if rho < 0:
            raise ValueError("rho must be non-negative")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.num_nodes = num_nodes
        self.rho = float(rho)
        self.sigma = float(sigma)
        # tokens[v] = sigma - xi(v): remaining crossings admissible at v.
        self._tokens: List[float] = [float(sigma)] * num_nodes
        self._refilled_this_round = False

    def start_round(self) -> None:
        """Refill every bucket by ``rho`` (capped at ``sigma + rho``).

        The cap is ``sigma + rho`` rather than ``sigma`` because the excess
        constraint allows ``N_t(v) <= sigma - xi_{t-1}(v) + rho`` crossings in
        round ``t`` (Lemma 2.3, part 2).
        """
        cap = self.sigma + self.rho
        self._tokens = [min(tokens + self.rho, cap) for tokens in self._tokens]
        self._refilled_this_round = True

    def can_inject(self, buffers_crossed: List[int]) -> bool:
        """Whether one more packet crossing the given buffers is admissible."""
        return all(self._tokens[v] >= 1.0 for v in buffers_crossed)

    def inject(self, buffers_crossed: List[int]) -> None:
        """Consume one token on every crossed buffer (caller checked admissibility)."""
        for v in buffers_crossed:
            self._tokens[v] -= 1.0

    def available(self, buffer: int) -> float:
        """Remaining tokens at ``buffer`` this round."""
        return self._tokens[buffer]

    def headroom(self, buffers_crossed: List[int]) -> int:
        """How many more packets with this route are admissible right now."""
        if not buffers_crossed:
            return 0
        return int(min(self._tokens[v] for v in buffers_crossed))

    def last_exhausted(self, buffers_crossed: List[int]) -> Optional[int]:
        """The per-element scan the saturating generator ran before it had
        a vectorised query: the largest crossed buffer below one token."""
        exhausted = [v for v in buffers_crossed if self.available(v) < 1.0]
        return max(exhausted) if exhausted else None

    # -- checkpoint support -------------------------------------------------------

    def state(self) -> dict:
        """JSON-serialisable snapshot of the per-buffer token levels.

        Floats round-trip exactly through :mod:`json` (``repr`` of a double),
        so restoring the state reproduces admission decisions bit for bit.
        """
        return {
            "tokens": list(self._tokens),
            "refilled": self._refilled_this_round,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state`."""
        tokens = [float(value) for value in state["tokens"]]
        if len(tokens) != self.num_nodes:
            raise ValueError(
                f"token-bucket state has {len(tokens)} buffers, "
                f"expected {self.num_nodes}"
            )
        self._tokens = tokens
        self._refilled_this_round = bool(state.get("refilled", False))


def nested_route_stress(
    topology: LineTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    num_destinations: int,
) -> InjectionPattern:
    """Edge-disjoint nested waves, each route checked on its own."""
    destinations = evenly_spaced_destinations(topology.num_nodes, num_destinations)
    sources = [0] + destinations[:-1]
    bucket = FloatTokenBucket(topology.num_nodes, rho, sigma)
    injections: List[Injection] = []
    for t in range(num_rounds):
        bucket.start_round()
        progress = True
        while progress:
            progress = False
            # A whole wave is admitted or skipped atomically so the nested
            # structure is preserved.
            wave = list(zip(sources, destinations))
            if all(
                bucket.can_inject(list(range(src, dst))) for src, dst in wave
            ):
                for src, dst in wave:
                    crossed = list(range(src, dst))
                    bucket.inject(crossed)
                    injections.append(make_injection(t, src, dst))
                progress = True
    return InjectionPattern(injections, rho=rho, sigma=sigma)
