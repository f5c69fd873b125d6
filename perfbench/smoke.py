"""Seconds-long self-test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at toy size, untraced and traced, and
checks that each run is correct and emits every declared metric, with its
declared unit, as the last line of its output.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, *bench["command"][1:],
                   "--workload", workload["name"], "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            where = f"{workload['name']} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: not correct, "
                                f"{result['failed']} failed")
            declared = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != declared:
                failures.append(f"{where}: metrics differ from {section}: "
                                f"{sorted(set(got) ^ set(declared))} or "
                                "their units")
            print(f"{where}: {len(got)} metrics, "
                  f"{result['attempted']} operations", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
