"""The benchmark's traced runs still measure every per-layer metric.

A traced run (``perfbench/run.py --trace 1``) is the only one whose
metrics come from hooks on ``moelab`` names.  A metric whose hook targets
are all gone reads null, and a probe that reads a renamed attribute (say
``RoutingDecision.dropped_mask``, ``RouterParams.weights`` or
``Tensor._parents``) is dropped.  ``perfbench/smoke.py`` compares only
metric names and units, so neither fails it.  Here each workload runs
once, traced, at toy size (about 3 s each); its result line must parse as
strict JSON (no NaN or Infinity), be correct with no failed operation, and
give every metric a finite number, and the report may name no missing
hook target beyond the known stale ones.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Hook targets perfbench/tracing.py still lists although moelab no longer
# has them: the two gates that partitioned_gate replaced, with their
# probes, and the two predict functions that ensemble_predict replaced
# (their model.predict span fed no metric).
STALE_HOOKS = {
    "moelab.routing:gate_k",
    "moelab.routing:gate_k probe",
    "moelab.routing:only_partitioning_gate",
    "moelab.routing:only_partitioning_gate probe",
    "moelab.model:mc_dropout_predict",
    "moelab.model:deep_ensemble_predict",
}


def _reject_constant(name):
    raise ValueError(f"result line holds {name}")


@pytest.mark.parametrize("workload",
                         ["routed_train", "dense_train", "cli_sweep"])
def test_traced_run_measures_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--toy", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *report_lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    bad = {name: m["value"] for name, m in result["metrics"].items()
           if isinstance(m["value"], bool)
           or not isinstance(m["value"], (int, float))
           or not math.isfinite(m["value"])}
    assert not bad, f"{workload}: metrics without a finite value: {bad}"
    report = json.loads("\n".join(report_lines))
    assert set(report["missing_hooks"]) <= STALE_HOOKS, \
        report["missing_hooks"]
