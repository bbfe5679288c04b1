"""Peak resident memory of a process tree, sampled from ``/proc``.

``resource.getrusage`` only gives a lifetime high-water mark per process, so
it cannot tell one run from the next in a closed loop, and it never adds up
a coordinator and its workers.  :class:`TreeRss` instead samples the summed
resident set of this process and every descendant from a background thread
while a run is in flight.
"""

from __future__ import annotations

import os
import threading
from typing import Iterator, Optional

_PAGE = os.sysconf("SC_PAGE_SIZE")

#: Seconds between samples.  A run lasts about a second, so this is a few
#: hundred samples a run; each costs a few ``/proc`` reads.
INTERVAL = 0.005


def _resident_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE


def _children(pid: int) -> Iterator[int]:
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children", "rb") as handle:
            for child in handle.read().split():
                yield int(child)


def tree_resident_bytes(root: int) -> int:
    """Resident bytes of ``root`` plus all its descendants right now.

    A process that exits between being listed and being read counts as 0.
    """
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        try:
            total += _resident_bytes(pid)
            stack.extend(_children(pid))
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


class TreeRss:
    """Context manager that records the peak of :func:`tree_resident_bytes`.

    Samples once on entry, every :data:`INTERVAL` seconds while inside, and
    once on exit; :attr:`peak_bytes` holds the largest sample.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._pid = os.getpid()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        self.peak_bytes = max(self.peak_bytes, tree_resident_bytes(self._pid))

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL):
            self._sample()

    def __enter__(self) -> "TreeRss":
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self._sample()
