"""Smoke run of the benchmark harness on tiny inputs.

Checks the harness, not the library's speed: every workload runs end to
end, prints one JSON result line of the agreed shape, attempts work
without failures, and passes its output checks. The detection-quality
thresholds are set for the full-size worlds, where the benchmark itself
enforces them; tiny worlds have too few planted pairs to meet them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from perfbench.common import END_TO_END, PER_LAYER
from perfbench.tracing import Tracer

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _run(workload: str, trace: int) -> tuple[int, str]:
    # The harness is under test, not the library under injected faults or
    # execution overrides: the subprocess runs without REPRO_* settings.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize(
    "workload,trace",
    [
        ("bookstores", 0),
        ("session_mutation", 0),
        ("session_mutation", 1),
        ("serve_churn", 1),
    ],
)
def test_workload_prints_contract_result(workload, trace):
    code, stdout = _run(workload, trace)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"])
    assert "provenance " in stdout
    checks = [line for line in stdout.splitlines() if line.startswith("check ")]
    assert checks
    failed = [
        line for line in checks
        if line.startswith("check FAIL") and "detection" not in line
    ]
    assert not failed, stdout
    assert code == (0 if result["correct"] else 1)


def test_self_time_excludes_children():
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    table = tracer.layer_table()
    outer, inner = table["outer"], table["inner"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - inner["total_s"]
    )
    assert [s.parent for s in tracer.spans] == [0, -1]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)

    class Target:
        def work(self):
            return 7

    target = Target()
    tracer.wrap(target, "work", "layer.work")
    with tracer.span("outer"):
        assert target.work() == 7
    assert tracer.spans == [] and "work" not in vars(target)


def test_benchmark_json_matches_harness():
    root = os.path.dirname(os.path.dirname(RUN))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
