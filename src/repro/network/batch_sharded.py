"""Batch×sharded: the flat-array batch kernel driven as a segment engine.

:class:`BatchSegmentSimulator` composes the fused batch kernel with the
sharded superstep protocol: each worker advances its contiguous segment
``[lo, hi]`` of the line on flat int64 state, and the only cross-segment
facts exchanged per round are (a) a tiny *boundary view* — the prefix's
leftmost/rightmost bad buffer, whether any suffix buffer is bad, the right
neighbour's first load — and (b) at most one columnar packet hand-off per
boundary (the fused scan's carry travels exactly one hop per round, so at
most one row crosses each segment edge each round).

The rounds themselves run in :meth:`BatchSimulator._segment_rounds`, the one
forwarding loop every batch engine uses; it yields at its two exchange
points (view out / prefix-suffix facts in, hand-off out / block in).  This
module adds two drivers of that loop:

* **relay** — the classic three-phase superstep
  (:meth:`begin_round` / :meth:`select_round` / :meth:`finish_round`) with
  payload shapes identical to :class:`~repro.network.sharded.SegmentSimulator`,
  so the existing coordinator and both transports drive it unchanged.  This
  is the portable fallback and what the ``"local"`` transport uses.
* **window** — :meth:`run_window` free-runs ``k`` rounds, exchanging
  the per-round boundary facts directly with neighbour workers through
  :class:`~repro.network.shm.BoundaryRing` shared-memory rings instead of
  coordinator pipes.  Rounds pipeline along the line as a wavefront: worker
  ``i`` can be scanning round ``t`` while worker ``i+1`` is still finishing
  ``t-1`` — there is no global barrier inside a window.

Equivalence to the single-process fused scan (the differential suite in
``tests/test_batch_sharded_differential.py`` proves it bit for bit):

* decisions read pristine pre-round loads only — the global scan never
  modifies ``occ[v]`` before reaching ``v``, so a segment scanning
  ``[lo, hi]`` with the prefix facts above reproduces exactly the global
  scan's behaviour on those nodes;
* the carry crossing a boundary is ingested *after* the receiver's own scan,
  which equals the global pop-before-carry-lands order: the receiver's first
  node pops before the incoming carry lands in both engines, and the
  occupancy/bad-count increments cancel symmetrically;
* drain overshoot is safe to truncate: once a no-injection round forwards
  nothing the configuration is frozen (PTS: no bad buffer ever reappears;
  greedy/downhill/work-conserving PTS: nothing is stored; local: the active
  set stays empty), so rounds past the coordinator's replayed stop rule
  advance only the round counter and are undone by :meth:`truncate_to`.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Generator, Optional, Sequence, Tuple

from ..adversary.segmented import SegmentFilteredAdversary
from .batch import _DOWNHILL, _PTS, BatchSimulator
from .errors import ShardingProtocolError

__all__ = ["BatchSegmentSimulator", "HANDOFF_WORDS"]

#: Columns of a boundary hand-off block, in wire order: packet id, source,
#: destination, injection round, arrival round at the current node.
HANDOFF_WORDS = 5


def _resume(rounds: Generator[Any, Any, int], value: Any) -> Any:
    """Send ``value`` into the round loop; ``None`` once its window ended."""
    try:
        return rounds.send(value)
    except StopIteration:
        return None


class BatchSegmentSimulator(BatchSimulator):
    """A :class:`BatchSimulator` that owns one contiguous segment of the line.

    Built on the *full* topology and algorithm (same index structures and
    bound parameters as the single-process engines) with a
    :class:`~repro.adversary.segmented.SegmentFilteredAdversary`, exactly
    like :class:`~repro.network.sharded.SegmentSimulator`; only nodes in
    ``[lo, hi]`` ever hold rows.  The round loop is driven externally —
    through the superstep phases or through :meth:`run_window`.
    """

    __slots__ = ()

    _segmented = True

    def __init__(
        self,
        topology,
        algorithm,
        adversary,
        segment_index: int,
        segments: Sequence[Tuple[int, int]],
        **batch_kwargs,
    ) -> None:
        super().__init__(topology, algorithm, adversary, **batch_kwargs)
        self.segment_index = segment_index
        self.segments = list(segments)
        self.lo, self.hi = self.segments[segment_index]
        #: The relay round in flight between begin_round and finish_round.
        self._relay: Optional[Generator[Any, Any, int]] = None
        # The segment wrapper hides an eager pattern behind ``.base``:
        # validate the full pattern (the error surface must match the
        # single-process engines exactly), then keep this segment's rows.
        if isinstance(adversary, SegmentFilteredAdversary):
            self._prevalidate_pattern(adversary.base)
            if self._fast_rows:
                lo, hi = self.lo, self.hi
                sources = self._pat_src
                filtered: Dict[int, array] = {}
                for round_number, rows in self._fast_rows.items():
                    keep = array(
                        "q", [row for row in rows if lo <= sources[row] <= hi]
                    )
                    if keep:
                        filtered[round_number] = keep
                self._fast_rows = filtered

    # -- kernel lifecycle ----------------------------------------------------------

    @property
    def needs_reverse_lane(self) -> bool:
        """Whether window mode needs the right-to-left boundary lane.

        Downhill decisions read the right neighbour's first load; a
        work-conserving PTS segment must know whether *any* suffix buffer is
        bad.  Everything else flows strictly left-to-right.
        """
        return self._kind == _DOWNHILL or (
            self._kind == _PTS and self._work_conserving
        )

    def ensure_kernel(self) -> None:
        """Load the flat kernel from object state exactly once.

        Called after construction (and after a checkpoint restore); later
        :meth:`sync_for_snapshot` projections leave the kernel authoritative,
        matching the single-process ``run()`` loop's sync-and-continue.
        """
        if not self._kernel_ready:
            self._load_kernel()

    def sync_for_snapshot(self) -> None:
        """Project kernel state into the object world at a round boundary."""
        if self._kernel_ready:
            self._sync_objects()

    def truncate_to(self, round_number: int) -> None:
        """Rewind drain overshoot: the rounds past ``round_number`` forwarded
        nothing on a frozen configuration (see the module docstring), so only
        the round counter and any full-history records need undoing."""
        self._round = round_number
        if self.record_history:
            history = self._history
            while history and history[-1].round >= round_number:
                history.pop()

    # -- relay: SegmentSimulator-shaped superstep phases ---------------------------

    def begin_round(self, round_number: int, *, inject: bool) -> Dict[str, Any]:
        self.ensure_kernel()
        self._relay = self._segment_rounds(
            round_number, round_number + 1, inject
        )
        return {"view": next(self._relay), "staged": 0}

    def select_round(
        self, round_number: int, views: Sequence[Dict[str, Any]], carry: Any
    ) -> Dict[str, Any]:
        index = self.segment_index
        prefix_leftmost = -1
        prefix_rightmost = -1
        for j in range(index):
            view = views[j]
            if prefix_leftmost < 0 and view["leftmost_bad"] >= 0:
                prefix_leftmost = view["leftmost_bad"]
            if view["rightmost_bad"] >= 0:
                prefix_rightmost = view["rightmost_bad"]
        suffix_any_bad = any(
            views[j]["any_bad"] for j in range(index + 1, len(views))
        )
        right_first_load = (
            views[index + 1]["first_load"]
            if index + 1 < len(views)
            else 0
        )
        block, forwarded, delivered, _stored = self._relay.send(
            (prefix_leftmost, prefix_rightmost, suffix_any_bad, right_first_load)
        )
        handoff = None if block is None else {"block": array("q", block)}
        return {
            "handoff": handoff,
            "carry": None,
            "forwarded": forwarded,
            "delivered": delivered,
        }

    def finish_round(
        self, round_number: int, handoff_in: Optional[Dict[str, array]]
    ) -> Dict[str, Any]:
        block = tuple(handoff_in["block"]) if handoff_in else None
        _resume(self._relay, block)
        self._relay = None
        return {"pending": self._stored, "staged": 0}

    # -- window: free-running rounds over shared-memory rings ----------------------

    def run_window(
        self,
        t0: int,
        t1: int,
        *,
        inject: bool,
        left_in=None,
        right_out=None,
        right_in=None,
        left_out=None,
        faults: Optional[Dict[int, Dict[str, Any]]] = None,
        fault_hook=None,
        ring_timeout: float = 60.0,
    ) -> Dict[str, array]:
        """Free-run rounds ``t0 .. t1-1``, exchanging boundary facts directly.

        ``left_in``/``right_out`` carry the left-to-right lane (merged prefix
        view + hand-off); ``right_in``/``left_out`` the right-to-left lane
        (first load / suffix-bad), created only when
        :attr:`needs_reverse_lane`.  Returns per-round ``forwarded`` counts
        and the post-round ``stored`` totals, from which the coordinator
        replays the global drain stop rule exactly.
        """
        self.ensure_kernel()
        reverse_lane = self.needs_reverse_lane
        chained_suffix = self._kind == _PTS and self._work_conserving
        trace_forwarded = array("q")
        trace_stored = array("q")
        rounds = self._segment_rounds(t0, t1, inject)
        view = _resume(rounds, None)
        round_number = t0
        while view is not None:
            if faults is not None:
                directive = faults.get(round_number)
                if directive is not None and fault_hook is not None:
                    fault_hook(directive, round_number)
            suffix_any_bad = False
            right_first_load = 0
            if reverse_lane:
                if chained_suffix:
                    # Suffix facts chain right-to-left: merge the right
                    # neighbour's word before publishing our own.
                    if right_in is not None:
                        slot = right_in.recv_block(timeout=ring_timeout)
                        if slot[0] != round_number:
                            raise ShardingProtocolError(
                                f"reverse-lane block for round {slot[0]} "
                                f"arrived in round {round_number}"
                            )
                        suffix_any_bad = bool(slot[2])
                    if left_out is not None:
                        any_bad = suffix_any_bad or view["any_bad"]
                        left_out.send_block(
                            (round_number, view["first_load"],
                             1 if any_bad else 0),
                            timeout=ring_timeout,
                        )
                else:  # downhill: only the immediate neighbour's first load
                    if left_out is not None:
                        left_out.send_block(
                            (round_number, view["first_load"], 0),
                            timeout=ring_timeout,
                        )
                    if right_in is not None:
                        slot = right_in.recv_block(timeout=ring_timeout)
                        if slot[0] != round_number:
                            raise ShardingProtocolError(
                                f"reverse-lane block for round {slot[0]} "
                                f"arrived in round {round_number}"
                            )
                        right_first_load = slot[1]
            prefix_leftmost = -1
            prefix_rightmost = -1
            block_in: Optional[Tuple[int, ...]] = None
            if left_in is not None:
                slot = left_in.recv_block(timeout=ring_timeout)
                if slot[0] != round_number:
                    raise ShardingProtocolError(
                        f"boundary block for round {slot[0]} arrived in "
                        f"round {round_number}"
                    )
                prefix_leftmost = slot[1]
                prefix_rightmost = slot[2]
                if slot[3]:
                    block_in = tuple(slot[4:4 + HANDOFF_WORDS])
            block_out, forwarded, _delivered, stored = rounds.send(
                (prefix_leftmost, prefix_rightmost, suffix_any_bad,
                 right_first_load)
            )
            if right_out is not None:
                out_leftmost = (
                    prefix_leftmost
                    if prefix_leftmost >= 0
                    else view["leftmost_bad"]
                )
                out_rightmost = (
                    view["rightmost_bad"]
                    if view["rightmost_bad"] >= 0
                    else prefix_rightmost
                )
                if block_out is not None:
                    right_out.send_block(
                        (round_number, out_leftmost, out_rightmost, 1)
                        + block_out,
                        timeout=ring_timeout,
                    )
                else:
                    right_out.send_block(
                        (round_number, out_leftmost, out_rightmost, 0),
                        timeout=ring_timeout,
                    )
            elif block_out is not None:
                raise ShardingProtocolError(
                    "right-most segment produced a hand-off past the line end"
                )
            trace_forwarded.append(forwarded)
            # The ingest below lands exactly one row when a block came in.
            trace_stored.append(stored if block_in is None else stored + 1)
            view = _resume(rounds, block_in)
            round_number += 1
        return {"forwarded": trace_forwarded, "stored": trace_stored}
