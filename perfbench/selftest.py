"""Self-test of the benchmark's correctness check and its refusal path.

Shows that :func:`check.check_run` passes a correct result and flags a
perturbed reference, a bound violation and lost packets, and that
``run.py`` fails without printing a result when the program's sources are
absent.  Run from the repository root::

    python3 perfbench/selftest.py

(``python3 -m pytest perfbench/selftest.py`` collects the same checks.)
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.api import ScenarioSpec, Session  # noqa: E402

from check import check_run  # noqa: E402


def _tiny(engine=None) -> ScenarioSpec:
    return ScenarioSpec.from_dict({
        "topology": {"kind": "line", "params": {"num_nodes": 16}},
        "algorithm": {"name": "pts", "params": {}},
        "adversary": {"name": "single", "rho": 1.0, "sigma": 2.0,
                      "rounds": 40, "params": {}},
        "policy": {"seed": 3, "drain": True, "engine": engine},
    })


def _reference():
    report = Session().run(_tiny())
    return report.result, report.bound


def test_batch_result_matches_delta_reference():
    reference, bound = _reference()
    result = Session().run(_tiny("batch")).result
    assert check_run(result, reference, bound) == []


def test_perturbed_reference_is_flagged():
    reference, bound = _reference()
    per_node = dict(reference.max_occupancy_per_node)
    node = next(iter(per_node))
    per_node[node] += 1
    for change in (
        {"max_occupancy": reference.max_occupancy + 1},
        {"max_occupancy_per_node": per_node},
        {"rounds_executed": reference.rounds_executed + 1},
        {"mean_latency": (reference.mean_latency or 0) + 0.5},
    ):
        perturbed = dataclasses.replace(reference, **change)
        problems = check_run(reference, perturbed, bound)
        assert problems and "differs" in problems[0], change


def test_bound_violation_is_flagged():
    reference, _ = _reference()
    problems = check_run(reference, reference, reference.max_occupancy - 1)
    assert len(problems) == 1 and "exceeds the bound" in problems[0]


def test_lost_packets_are_flagged():
    reference, bound = _reference()
    lost = dataclasses.replace(
        reference, packets_delivered=reference.packets_delivered - 1
    )
    problems = check_run(lost, lost, bound)
    assert len(problems) == 1 and "injected" in problems[0]


def test_runner_refuses_without_sources():
    workroot = os.path.join(HERE, "_work")
    bare = os.path.join(workroot, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    try:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pts-eager",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:  # a benchmark run still uses it
            pass
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} checks passed")
