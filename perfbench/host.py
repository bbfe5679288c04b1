"""A fixed pure-Python loop that measures how fast the host runs right now.

On a shared host the speed of one CPU drifts by a quarter or more over
minutes, and a run's wall time follows it (correlation about 0.8 on the
2-CPU host the README's numbers come from).  Timing this loop around each
run gives the host speed around that run, and :func:`to_reference` rescales
the run's host seconds to a reference host on which the loop takes
:data:`REFERENCE_SPIN_S`.
"""

from __future__ import annotations

import time

#: Loop iterations: about 20 ms on the 2-CPU host when it is quiet.  The
#: loop allocates nothing, so it leaves the process's resident set alone.
SPIN_ITERATIONS = 300_000

#: The loop's time on the reference host: the host a rescaled time is
#: expressed in.  It is the loop's time on the 2-CPU host when that host is
#: quiet, so rescaled times read close to host seconds there.
REFERENCE_SPIN_S = 0.02


def spin_seconds() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def to_reference(host_seconds: float, spin: float) -> float:
    """``host_seconds`` measured while the loop took ``spin`` seconds,
    expressed in seconds of the reference host."""
    return host_seconds * REFERENCE_SPIN_S / spin
