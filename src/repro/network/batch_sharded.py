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
module drives that loop one way on every transport: :meth:`run_window`
free-runs ``k`` rounds, exchanging the per-round boundary facts directly
with the neighbour workers through
:class:`~repro.network.shm.BoundaryRing` shared-memory rings instead of
coordinator messages.  Rounds pipeline along the line as a wavefront: worker
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
from typing import Any, Dict, Generator, Mapping, Optional, Sequence, Tuple

from ..adversary.segmented import SegmentFilteredAdversary
from .batch import _DOWNHILL, _PTS, BatchSimulator
from .errors import ShardingProtocolError, UnbatchableScenarioError
from .shm import BoundaryRing

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
    ``[lo, hi]`` ever hold rows.  The round loop is driven externally,
    through :meth:`run_window`.

    ``rings`` maps this worker's boundary lanes (``left_in``/``right_out``
    left-to-right, ``right_in``/``left_out`` right-to-left) to the
    :class:`~repro.network.shm.BoundaryRing` objects the coordinator made
    before starting the workers.  A multi-segment plan with no rings — a
    worker process on a platform without ``fork`` cannot inherit them — is
    refused with :class:`UnbatchableScenarioError`, so ``engine="auto"``
    falls back to the object engine with that reason.
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
        rings: Optional[Mapping[str, BoundaryRing]] = None,
        **batch_kwargs,
    ) -> None:
        super().__init__(topology, algorithm, adversary, **batch_kwargs)
        if rings is None and len(segments) > 1:
            raise UnbatchableScenarioError(
                "the batch kernel exchanges boundary facts over shared rings "
                "that segment workers inherit by fork, and this platform "
                "cannot fork worker processes"
            )
        self.segment_index = segment_index
        self.segments = list(segments)
        self.lo, self.hi = self.segments[segment_index]
        self._rings: Mapping[str, BoundaryRing] = rings or {}
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

    # -- window: free-running rounds over shared-memory rings ----------------------

    def run_window(
        self,
        t0: int,
        t1: int,
        *,
        inject: bool,
        faults: Optional[Dict[int, Dict[str, Any]]] = None,
        fault_hook=None,
        ring_timeout: float = 60.0,
    ) -> Dict[str, array]:
        """Free-run rounds ``t0 .. t1-1``, exchanging boundary facts directly.

        The left-to-right lane carries the merged prefix view and the
        hand-off; the right-to-left lane carries the facts only some
        decisions read: downhill's right-neighbour first load and
        work-conserving PTS's suffix-bad flag.  Returns per-round
        ``forwarded`` counts and the post-round ``stored`` totals, from which
        the coordinator replays the global drain stop rule exactly.
        """
        self.ensure_kernel()
        rings = self._rings
        left_in = rings.get("left_in")
        right_out = rings.get("right_out")
        right_in = rings.get("right_in")
        left_out = rings.get("left_out")
        chained_suffix = self._kind == _PTS and self._work_conserving
        reverse_lane = chained_suffix or self._kind == _DOWNHILL
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
