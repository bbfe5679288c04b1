"""Whole-run benchmark: one closed-loop client timing ``Session.run(spec)``.

Run from the repository root::

    python3 perfbench/run.py --workload pts-eager --seed 7 --seconds 20 --trace 0

``--trace 0`` times complete runs back to back, from spec to ``RunReport``,
each on a fresh ``Session`` (no topology cache carries over), and reports the
end-to-end metrics, with times rescaled to a reference host speed measured
around each run (see ``host.py``).  ``--trace 1`` times each layer on its own through its
public call (see ``probes.py``) and reports the per-layer metrics.  Every
result is checked against an untimed delta-engine reference run of the same
spec and seed (see ``check.py``).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics (``--trace 0``) and their units.  Times are in
#: seconds of the reference host (``host.to_reference``).
END_TO_END = {
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics but not part of the result line: the
#: same times in this host's seconds, which drift with its speed, and the
#: host-speed loop's own time.
RAW = {
    "host_wall_s": "s",
    "host_setup_s": "s",
    "spin_s": "s",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "api.prepare_s": "s",
    "api.report_s": "s",
    "network.topology.build_s": "s",
    "adversary.build_s": "s",
    "adversary.packets": "count",
    "adversary.us_per_packet": "us",
    "adversary.rows_s": "s",
    "core.algorithm_build_s": "s",
    "network.batch.build_s": "s",
    "network.batch.run_s": "s",
    "network.batch.ns_per_node_round": "ns",
    "network.simulator.build_s": "s",
    "network.simulator.run_s": "s",
    "network.simulator.loop_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "checkpoint.cuts": "count",
    "checkpoint.load_s": "s",
    "checkpoint.restore_s": "s",
    "network.sharded.run_s": "s",
    "network.sharded.run_1w_s": "s",
    "network.sharded.single_s": "s",
    "network.sharded.speedup": "ratio",
    "network.sharded.overhead": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Fewest cycles of complete runs (untraced) and traced passes a
#: measurement makes, however short ``--seconds`` is.
MIN_CYCLES = 1
MIN_PASSES = 1

#: Scenarios per seed.  The untraced loop cycles through the specs of seeds
#: ``seed * SEED_VARIANTS + j`` for ``j < SEED_VARIANTS``, whole cycles only,
#: so a workload whose work depends on the seed (``hpts-ckpt``: the seed
#: places its destinations) reports a median over several placements rather
#: than the cost of one.
SEED_VARIANTS = 8

#: Set-up probes per closed-loop iteration: repeat until this many seconds
#: of set-up were timed, but no more than ``SETUP_PROBE_MAX`` times.
SETUP_PROBE_S = 0.05
SETUP_PROBE_MAX = 20


class Tally:
    """Runs attempted and failed, and the results still to be checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.results: List[Any] = []

    def crashed(self) -> None:
        self.failed += 1
        traceback.print_exc(file=sys.stderr)

    def check(self) -> None:
        """Compare every collected result with its delta reference."""
        from repro.api import Session

        from check import check_run
        from probes import reference_spec

        references: Dict[str, Any] = {}
        for spec, result in self.results:
            ref = reference_spec(spec)
            key = ref.spec_hash()
            if key not in references:
                references[key] = Session().run(ref)
            report = references[key]
            problems = check_run(result, report.result, report.bound)
            if problems:
                self.failed += 1
                print(f"# FAILED {spec.label}: {'; '.join(problems)}",
                      file=sys.stderr)
        self.results.clear()


def _deadline_allows(start: float, seconds: float, last: float) -> bool:
    """Whether another iteration of duration ``last`` still fits."""
    return time.perf_counter() - start + last <= seconds


def _setups(spec) -> List[float]:
    """Time set-up on its own, repeated until the repeats add up to
    ``SETUP_PROBE_S`` (at most ``SETUP_PROBE_MAX`` times), so a set-up of a
    few milliseconds still yields a steady median.  Host seconds."""
    from probes import setup_seconds

    times: List[float] = []
    while not times or (sum(times) < SETUP_PROBE_S
                        and len(times) < SETUP_PROBE_MAX):
        gc.collect()
        times.append(setup_seconds(spec))
    return times


def measure_runs(workload, seed: int, seconds: float, workdir: str,
                 tally: Tally, *, probe_setup: bool) -> Dict[str, List[float]]:
    """The closed loop: complete ``Session.run`` calls back to back, in
    whole cycles over the seed's ``SEED_VARIANTS`` scenarios.

    With ``probe_setup`` each run is preceded by timing set-up on its own
    (``Session.prepare`` plus the engine constructor, never run).
    """
    variants = [
        (workload.spec(sub, workdir), workload.spec(sub, workdir, shards=None))
        for sub in range(seed * SEED_VARIANTS, (seed + 1) * SEED_VARIANTS)
    ]
    samples: Dict[str, List[float]] = {name: [] for name in {**END_TO_END, **RAW}}
    start, last, cycles = time.perf_counter(), 0.0, 0
    while cycles < MIN_CYCLES or _deadline_allows(start, seconds, last):
        began = time.perf_counter()
        cycles += 1
        for spec, setup_spec in variants:
            _measure_run(spec, setup_spec if probe_setup else None, tally,
                         samples)
        last = time.perf_counter() - began
    return samples


def _measure_run(spec, setup_spec, tally: Tally,
                 samples: Dict[str, List[float]]) -> None:
    """One complete run of ``spec``, preceded by set-up probes of
    ``setup_spec`` unless it is ``None``; its samples go into ``samples``."""
    from repro.api import Session

    from host import spin_seconds, to_reference
    from rss import TreeRss

    tally.attempted += 1
    try:
        before = spin_seconds()
        setups = _setups(setup_spec) if setup_spec is not None else []
        spin = spin_seconds()
        gc.collect()
        with TreeRss() as rss:
            t0 = time.perf_counter()
            report = Session().run(spec)
            wall = time.perf_counter() - t0
        after = spin_seconds()
    except Exception:  # a failed run is counted, and the loop goes on
        tally.crashed()
        return
    tally.results.append((spec, report.result))
    for setup in setups:
        samples["host_setup_s"].append(setup)
        samples["setup_s"].append(to_reference(setup, (before + spin) / 2))
    wall_ref = to_reference(wall, (spin + after) / 2)
    samples["host_wall_s"].append(wall)
    samples["spin_s"].extend((before, spin, after))
    samples["wall_s"].append(wall_ref)
    samples["rounds_per_s"].append(report.result.rounds_executed / wall_ref)
    samples["peak_rss_mb"].append(rss.peak_bytes / 1e6)


def measure_layers(workload, seed: int, seconds: float, workdir: str,
                   tally: Tally) -> Dict[str, List[float]]:
    """Untraced runs for a quarter of the time, then traced layer passes."""
    from probes import traced_pass

    untraced = measure_runs(workload, seed, seconds / 4, workdir, tally,
                            probe_setup=False)
    samples: Dict[str, List[float]] = {}
    start, last, passes = time.perf_counter(), 0.0, 0
    budget = seconds - seconds / 4
    while passes < MIN_PASSES or _deadline_allows(start, budget, last):
        began = time.perf_counter()
        passes += 1
        try:
            values, results = traced_pass(workload, seed, workdir)
        except Exception:  # a failed pass is counted, and the loop goes on
            tally.attempted += 1
            tally.crashed()
            continue
        finally:
            last = time.perf_counter() - began
        tally.attempted += len(results)
        tally.results.extend(results)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    if samples and untraced["host_wall_s"]:
        base = statistics.median(untraced["host_wall_s"])
        samples["trace.overhead_frac"] = [
            critical / base - 1 for critical in samples["trace.critical_path_s"]
        ]
    samples.pop("trace.critical_path_s", None)
    return samples


def _summary(values: Sequence[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _host(args: argparse.Namespace, samples: Dict[str, List[float]]) -> Dict[str, Any]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "samples": {name: len(values) for name, values in samples.items()},
    }


def _child_pids() -> List[int]:
    """Direct children of this process, zombies included."""
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/children", "rb") as handle:
            pids.extend(int(pid) for pid in handle.read().split())
    return pids


def stop_children(grace: float = 5.0) -> None:
    """Stop every process this benchmark started and wait until each ended.

    The program joins its own worker processes.  What outlives a run is the
    ``multiprocessing`` resource tracker that shared-memory rings start; it
    is stopped the way ``multiprocessing`` stops it, by closing its pipe and
    waiting.  Any other child still present is sent SIGTERM, then SIGKILL
    after ``grace`` seconds, and reaped.
    """
    if "multiprocessing.resource_tracker" in sys.modules:
        tracker = sys.modules["multiprocessing.resource_tracker"]
        stop = getattr(tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    children = _child_pids()
    for pid in children:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    for pid in children:
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:  # already reaped
            pass


def _exit_on_sigterm(main_pid: int) -> None:
    """Turn SIGTERM into ``SystemExit`` in this process, so the cleanup in
    ``finally`` blocks still runs; forked workers keep the default action."""

    def handler(signum: int, frame: Any) -> None:
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workroot = os.path.join(HERE, "_work")
    workdir = os.path.join(workroot, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            samples = measure_layers(workload, args.seed, args.seconds,
                                     workdir, tally)
            names, printed = PER_LAYER, PER_LAYER
        else:
            samples = measure_runs(workload, args.seed, args.seconds,
                                   workdir, tally, probe_setup=True)
            names, printed = END_TO_END, {**END_TO_END, **RAW}
        tally.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:  # another run still uses it
            pass

    missing = [name for name in names if not samples.get(name)]
    if missing:
        print(f"error: no successful measurement of {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print("# host " + json.dumps(_host(args, samples), sort_keys=True))
    print(f"# {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'n':>3s}  unit")
    for name, unit in printed.items():
        s = _summary(samples[name])
        print(f"# {name:34s} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {s['n']:3d}  {unit}")
    print(f"# error_rate {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4g}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


if __name__ == "__main__":
    _exit_on_sigterm(os.getpid())
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
