"""(rho, sigma)-boundedness checking and token-bucket admission (Definition 2.1).

An adversary ``A`` is ``(rho, sigma)``-bounded if for every buffer ``v`` and
every interval of rounds ``T``, the number of injected packets whose paths
contain ``v`` satisfies ``N_T(v) <= rho |T| + sigma``.

Two equivalent views are implemented:

* :func:`check_bounded` / :func:`tightest_bound` verify or measure the bound
  for an explicit pattern, using the leaky-bucket recurrence (the maximum of
  ``N_{[s,t]}(v) - rho (t - s + 1)`` over ``s`` equals the excess of Def. 2.2,
  maintained incrementally in O(T n) instead of the naive O(T^2 n)).
* :class:`TokenBucket` is the constructive counterpart used by the random
  adversary generators: a per-buffer bucket that tells the generator how many
  more crossings it may emit in the current round without breaking the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.packet import Injection
from ..network.errors import BoundednessViolationError
from ..network.topology import Topology
from .base import InjectionPattern

__all__ = [
    "BoundednessReport",
    "check_bounded",
    "assert_bounded",
    "tightest_bound",
    "tightest_sigma",
    "TokenBucket",
]

#: The buffers one packet crosses: ``range(source, destination)`` on a line,
#: or a list of distinct buffer indices along a tree path.
Route = Union[range, Sequence[int]]


@dataclass(frozen=True)
class BoundednessReport:
    """Outcome of a boundedness check.

    Attributes
    ----------
    bounded:
        Whether the pattern satisfies the declared ``(rho, sigma)`` bound.
    max_excess:
        The largest value of ``N_T(v) - rho |T|`` seen over any buffer and
        interval — i.e. the smallest ``sigma`` for which the pattern is
        ``(rho, sigma)``-bounded.
    worst_buffer:
        A buffer achieving ``max_excess`` (``None`` for an empty pattern).
    worst_round:
        The right endpoint of an interval achieving ``max_excess``.
    """

    bounded: bool
    max_excess: float
    worst_buffer: Optional[int]
    worst_round: Optional[int]


def _excess_trajectory(
    pattern: InjectionPattern,
    topology: Topology,
    rho: float,
) -> Tuple[float, Optional[int], Optional[int]]:
    """Maximum excess over all buffers and rounds, with its witness."""
    crossings = pattern.crossings_per_round(topology)
    excess: Dict[int, float] = {}
    max_excess = 0.0
    worst_buffer: Optional[int] = None
    worst_round: Optional[int] = None
    for t, round_crossings in enumerate(crossings):
        touched = set(round_crossings) | set(excess)
        for v in touched:
            injected = round_crossings.get(v, 0)
            previous = excess.get(v, 0.0)
            current = max(previous + injected - rho, 0.0)
            # Avoid dict churn for buffers that have drained back to zero.
            if current > 0:
                excess[v] = current
            elif v in excess:
                del excess[v]
            if current > max_excess:
                max_excess = current
                worst_buffer = v
                worst_round = t
    return max_excess, worst_buffer, worst_round


def check_bounded(
    pattern: InjectionPattern,
    topology: Topology,
    rho: float,
    sigma: float,
    *,
    tolerance: float = 1e-9,
) -> BoundednessReport:
    """Check Definition 2.1 for an explicit pattern.

    Returns a :class:`BoundednessReport`; never raises.  ``tolerance`` absorbs
    floating-point noise when ``rho`` is not exactly representable.
    """
    max_excess, worst_buffer, worst_round = _excess_trajectory(
        pattern, topology, rho
    )
    return BoundednessReport(
        bounded=max_excess <= sigma + tolerance,
        max_excess=max_excess,
        worst_buffer=worst_buffer,
        worst_round=worst_round,
    )


def assert_bounded(
    pattern: InjectionPattern,
    topology: Topology,
    rho: float,
    sigma: float,
) -> None:
    """Like :func:`check_bounded`, but raise on violation.

    Raises
    ------
    BoundednessViolationError
        If some buffer/interval exceeds ``rho |T| + sigma``.
    """
    report = check_bounded(pattern, topology, rho, sigma)
    if not report.bounded:
        raise BoundednessViolationError(
            buffer=report.worst_buffer if report.worst_buffer is not None else -1,
            interval=(0, report.worst_round),
            observed=report.max_excess,
            allowed=float(sigma),
        )


def tightest_bound(
    pattern: InjectionPattern,
    topology: Topology,
    rho: float,
) -> float:
    """The smallest ``sigma`` such that the pattern is ``(rho, sigma)``-bounded."""
    max_excess, _, _ = _excess_trajectory(pattern, topology, rho)
    return max_excess


def tightest_sigma(
    pattern: InjectionPattern,
    topology: Topology,
    rho: float,
) -> float:
    """Alias of :func:`tightest_bound` (kept for readability at call sites)."""
    return tightest_bound(pattern, topology, rho)


def _index(route: Route) -> Union[slice, np.ndarray]:
    """A range becomes a zero-copy slice; any other route a fancy index."""
    if isinstance(route, range):
        return slice(route.start, route.stop, route.step)
    return np.asarray(route, dtype=np.intp)


class TokenBucket:
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

    Token levels live in one ``float64`` array.  Each per-buffer operation is
    the same IEEE-754 double add, min or subtract a list of Python floats
    would do, so admission decisions do not depend on the representation.
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
        self._tokens = np.full(num_nodes, self.sigma, dtype=np.float64)
        self._refilled_this_round = False

    def start_round(self) -> None:
        """Refill every bucket by ``rho`` (capped at ``sigma + rho``).

        The cap is ``sigma + rho`` rather than ``sigma`` because the excess
        constraint allows ``N_t(v) <= sigma - xi_{t-1}(v) + rho`` crossings in
        round ``t`` (Lemma 2.3, part 2).
        """
        np.add(self._tokens, self.rho, out=self._tokens)
        np.minimum(self._tokens, self.sigma + self.rho, out=self._tokens)
        self._refilled_this_round = True

    def can_inject(self, route: Route) -> bool:
        """Whether one more packet crossing the given buffers is admissible."""
        levels = self._tokens[_index(route)]
        return not levels.size or bool(levels.min() >= 1.0)

    def inject(self, route: Route) -> None:
        """Consume one token on every crossed buffer (caller checked admissibility)."""
        self._tokens[_index(route)] -= 1.0

    def available(self, buffer: int) -> float:
        """Remaining tokens at ``buffer`` this round."""
        return float(self._tokens[buffer])

    def headroom(self, route: Route) -> int:
        """How many more packets with this route are admissible right now."""
        levels = self._tokens[_index(route)]
        return int(levels.min()) if levels.size else 0

    def last_exhausted(self, route: range) -> Optional[int]:
        """The rightmost buffer of ``route`` holding fewer than one token, or ``None``."""
        hits = np.flatnonzero(self._tokens[_index(route)] < 1.0)
        return route[int(hits[-1])] if hits.size else None

    # -- checkpoint support -------------------------------------------------------

    def state(self) -> dict:
        """JSON-serialisable snapshot of the per-buffer token levels.

        Floats round-trip exactly through :mod:`json` (``repr`` of a double),
        so restoring the state reproduces admission decisions bit for bit.
        """
        return {
            "tokens": self._tokens.tolist(),
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
        self._tokens = np.array(tokens, dtype=np.float64)
        self._refilled_this_round = bool(state.get("refilled", False))


def injections_crossings(
    injections: List[Injection], topology: Topology
) -> Dict[int, int]:
    """``N(v)`` for a single round's worth of injections (helper for tests)."""
    counts: Dict[int, int] = {}
    for injection in injections:
        for v in topology.path(injection.source, injection.destination)[:-1]:
            counts[v] = counts.get(v, 0) + 1
    return counts
