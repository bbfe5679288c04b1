"""Reference selection: the seed engine's linear scans, one per algorithm.

Production selects activations from the sorted bad/nonempty position
indices in O(log n).  These are the O(n) scans the seed engine ran before
those indices existed: each walks the buffers directly to find the left-most
bad buffer.  The differential suites swap them in with :func:`install` and
require identical activation lists (round by round) and identical results
(end to end).

Each scan is written as the method it replaces, so :func:`install` patches it
onto the class unchanged.  HPTS's only scanning step is ``FormPaths``, so its
oracle replaces ``_form_paths`` and keeps the rest of ``select_activations``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.greedy import _SINGLE_QUEUE, GreedyForwarding
from repro.core.hpts import HierarchicalPeakToSink
from repro.core.packet import Packet
from repro.core.ppts import ParallelPeakToSink
from repro.core.pts import PeakToSink
from repro.core.scheduler import Activation
from repro.core.tree import TreeParallelPeakToSink, TreePeakToSink


# -- PTS (Algorithm 1) --------------------------------------------------------


def pts_select_activations(self, round_number: int) -> List[Activation]:
    """The seed engine's O(n) PTS selection."""
    leftmost_bad = _pts_leftmost_bad_buffer(self)
    if leftmost_bad is None:
        if not self.work_conserving:
            return []
        start = 0
    else:
        start = leftmost_bad
    last_buffer = min(self.destination - 1, self.topology.num_nodes - 1)
    return [
        Activation(node=i, key=self.destination)
        for i in range(start, last_buffer + 1)
        if self.buffers[i].load_of(self.destination) > 0
    ]


def _pts_leftmost_bad_buffer(self) -> Optional[int]:
    """The left-most buffer holding at least two packets, by full scan."""
    last_buffer = min(self.destination - 1, self.topology.num_nodes - 1)
    for i in range(0, last_buffer + 1):
        if self.buffers[i].load >= 2:
            return i
    return None


# -- PPTS (Algorithm 2) -------------------------------------------------------


def ppts_select_activations(self, round_number: int) -> List[Activation]:
    """The seed engine's O(n * d) PPTS selection."""
    destinations = self.destinations()
    activations: List[Activation] = []
    frontier = self.topology.num_nodes
    if destinations:
        frontier = max(frontier, max(destinations))
    for w in reversed(destinations):
        bad = _ppts_leftmost_bad_for(self, w, frontier)
        if bad is None:
            continue
        last = min(frontier - 1, w - 1, self.topology.num_nodes - 1)
        for i in range(bad, last + 1):
            if self.buffers[i].load_of(w) > 0:
                activations.append(Activation(node=i, key=w))
        frontier = bad
    return activations


def _ppts_leftmost_bad_for(self, destination: int, frontier: int) -> Optional[int]:
    """Left-most buffer ``i < frontier`` whose ``destination``-queue is bad."""
    last = min(frontier - 1, destination - 1, self.topology.num_nodes - 1)
    for i in range(0, last + 1):
        if self.buffers[i].load_of(destination) >= 2:
            return i
    return None


# -- HPTS FormPaths (Algorithm 4) ---------------------------------------------


def hpts_form_paths(
    self,
    start: int,
    end: int,
    level: int,
    active: Dict[int, Tuple[int, int]],
    activations: List[Activation],
) -> None:
    """Algorithm 4 on ``[start, end]``, scanning the interval's buffers."""
    destinations = sorted(
        {
            key[1]
            for i in range(start, end + 1)
            for key in self.buffers[i].nonempty_keys()
            if isinstance(key, tuple) and key[0] == level
        }
    )
    if not destinations:
        return
    frontier = max(destinations)
    for w in reversed(destinations):
        key = (level, w)
        last = min(frontier - 1, w - 1, end)
        bad = None
        for i in range(start, last + 1):
            if self.buffers[i].load_of(key) >= 2:
                bad = i
                break
        if bad is None:
            continue
        for i in range(bad, last + 1):
            if i in active:
                continue
            activations.append(Activation(node=i, key=key))
            active[i] = key
        frontier = bad


# -- trees (Proposition B.3, Algorithm 6) -------------------------------------


def tree_pts_select_activations(self, round_number: int) -> List[Activation]:
    """TreePTS with the bad buffers found by a full-network scan."""
    bad_nodes = [
        node
        for node, node_buffer in self.buffers.items()
        if node_buffer.load >= 2 and node != self.destination
    ]
    if not bad_nodes:
        return []
    activations: List[Activation] = []
    activated = set()
    for bad in bad_nodes:
        for node in self.tree.path(bad, self.destination)[:-1]:
            if node in activated:
                continue
            activated.add(node)
            if self.buffers[node].load_of(self.destination) > 0:
                activations.append(Activation(node=node, key=self.destination))
    return activations


def tree_ppts_select_activations(self, round_number: int) -> List[Activation]:
    """TreePPTS with each destination's bad buffers found by a full scan."""
    destinations = self.destinations()
    activations: List[Activation] = []
    activated = set()
    for w in reversed(destinations):
        bad_nodes = [
            node
            for node, node_buffer in self.buffers.items()
            if node != w
            and node_buffer.load_of(w) >= 2
            and self.tree.is_upstream(node, w)
        ]
        if not bad_nodes:
            continue
        minimal_bad = self._minimal_antichain(bad_nodes)
        for bad in minimal_bad:
            for node in self.tree.path(bad, w)[:-1]:
                if node in activated:
                    continue
                activated.add(node)
                if self.buffers[node].load_of(w) > 0:
                    activations.append(Activation(node=node, key=w))
    return activations


# -- greedy baselines ---------------------------------------------------------


def greedy_select_activations(self, round_number: int) -> List[Activation]:
    """Greedy forwarding over an all-nodes scan for nonempty buffers."""
    nonempty_nodes = [
        node
        for node, node_buffer in self.buffers.items()
        if node_buffer.existing(_SINGLE_QUEUE)
    ]
    activations: List[Activation] = []
    for node in nonempty_nodes:
        pseudo = self.buffers[node].existing(_SINGLE_QUEUE)
        chosen: Optional[Packet] = min(
            pseudo.packets(),
            key=lambda packet: self.policy(
                packet, self._arrival_round.get(packet.packet_id, 0)
            ),
        )
        activations.append(Activation(node=node, key=_SINGLE_QUEUE, packet=chosen))
    return activations


#: Algorithm class -> (method the scan replaces, the scan).
SCANS = {
    PeakToSink: ("select_activations", pts_select_activations),
    ParallelPeakToSink: ("select_activations", ppts_select_activations),
    HierarchicalPeakToSink: ("_form_paths", hpts_form_paths),
    TreePeakToSink: ("select_activations", tree_pts_select_activations),
    TreeParallelPeakToSink: ("select_activations", tree_ppts_select_activations),
    GreedyForwarding: ("select_activations", greedy_select_activations),
}


def install(monkeypatch, algorithm_type: type) -> None:
    """Patch ``algorithm_type`` to select by its seed scan until ``monkeypatch``
    undoes it (at test teardown, or on leaving ``monkeypatch.context()``)."""
    name, scan = SCANS[algorithm_type]
    monkeypatch.setattr(algorithm_type, name, scan)
