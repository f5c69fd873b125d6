"""moelab benchmark: train, evaluate and CLI throughput, with a layer trace.

    python3 perfbench/run.py --workload routed_train --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; moelab is imported from ``src/``.  Workloads:

* routed_train -- train() then evaluate() on the routed variants at the C5
  shape (vmoe K=2 with capacity 1.0, pbe, only_tiling, only_partitioning,
  multihead K=2; E=16).
* dense_train -- the same loop on vit, be and mimo: no routing runs.
* cli_sweep -- in-process ``moelab run`` and ``moelab sweep`` with short
  training and large eval splits, so evaluate dominates.

The workload repeats whole rounds of its operations until ``--seconds``
have passed (at least two rounds); every repeat of an operation must
produce the same output digest.  Timings are pooled over the repeats:
step-time percentiles over every training step, wall_s as the sum over
operations of their median wall time, and setup_s as the median of fresh
processes started between rounds.

``--trace 0`` reports the end-to-end metrics with only per-step and
per-evaluate stamps installed; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics of the traced ones, with the
tracing overhead.  ``all`` runs every workload in its own process, untraced
then traced.

Output: a JSON report (environment, digest, sample counts, self times) and,
as the last line, ``{"correct", "attempted", "failed", "metrics"}``.  BLAS
is pinned to one thread.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("routed_train", "dense_train", "cli_sweep")
SETUP_PROBES = 5
MIN_ROUNDS = 2
# In the report, not in the result line.  ops_failed_ratio is 0 on a passing
# run and the result line carries attempted/failed; eval_nll is exact for a
# seed, but at desk scale its interquartile range over seeds is 13-48% of
# its median, more than a regression bound may be.
REPORT_ONLY = ("ops_failed_ratio", "eval_nll")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy sizes, for the smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_moelab():
    src = ROOT / "src"
    if not (src / "moelab" / "__init__.py").is_file():
        sys.exit(f"error: moelab sources not found under {src}")
    sys.path.insert(0, str(src))
    import moelab
    if Path(moelab.__file__).resolve().parent != src / "moelab":
        sys.exit(f"error: imported moelab from {moelab.__file__}, "
                 f"not from {src}")


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "seed": seed}


def setup_probe(args) -> float:
    """Seconds from starting a fresh process until it has imported moelab
    and built the workload's data and models."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        cmd.append("--toy")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1]) - start


class Measure:
    """Times the measured calls of one operation (and traces them)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = None

    def __enter__(self):
        if self.tracer is not None:
            self._op = self.tracer.op()
            self._op.__enter__()
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self._op.__exit__(*exc)
        return False


def run_rounds(wl, args, stamps, tracer, setup_times):
    """Whole rounds of the operations until --seconds have passed.

    Only whole rounds, so that every operation has the same weight in the
    pooled figures.  With --trace 1 every second round is traced.  Setup
    probes run between rounds, spread over the run like the measurements.
    """
    from tracing import Patches, step_intervals
    records = []
    deadline = time.perf_counter() + args.seconds
    next_probe = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        if time.perf_counter() >= next_probe:
            setup_times.append(setup_probe(args))
            next_probe = time.perf_counter() + args.seconds / SETUP_PROBES
        traced = bool(args.trace) and rounds % 2 == 1
        for kind, fn in wl.ops():
            patches = Patches()
            if traced:
                tracer.install(patches)
            s0, e0 = len(stamps.steps), len(stamps.evals)
            measure = Measure(tracer if traced else None)
            try:
                digest, problems = fn(measure)
            except Exception as exc:  # a failed operation counts, no more
                traceback.print_exc(file=sys.stderr)
                digest = None
                problems = [f"{kind}: {type(exc).__name__}: {exc}"]
            finally:
                if traced:
                    tracer.uninstall(patches)
            records.append({"kind": kind, "traced": traced,
                            "wall": measure.seconds, "digest": digest,
                            "problems": problems,
                            "intervals": step_intervals(stamps.steps[s0:]),
                            "evals": stamps.evals[e0:],
                            "rss_mb": resource.getrusage(
                                resource.RUSAGE_SELF).ru_maxrss / 1024.0})
        rounds += 1
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(args))
    first = {}
    for r in records:
        if r["digest"] is None:
            continue
        if r["digest"] != first.setdefault(r["kind"], r["digest"]):
            r["problems"].append(f"{r['kind']}: output digest differs from "
                                 "the first run of this operation")
    return records


def op_seconds(records) -> float | None:
    """One pass over the operations: sum over kinds of the median wall."""
    walls = {}
    for r in records:
        walls.setdefault(r["kind"], []).append(r["wall"])
    return sum(statistics.median(w) for w in walls.values()) if walls \
        else None


def end_to_end(records, setup_times, peak_rss_mb) -> tuple:
    """The end-to-end metrics, pooled over the repeats, and sample counts."""
    from tracing import percentile
    ok = [r for r in records if not r["problems"]]
    steps = [i for r in ok for i in r["intervals"]]
    evals = [e for r in ok for e in r["evals"]]
    nll = {}
    for r in ok:  # deterministic: the first repeat stands for all
        nll.setdefault(r["kind"], [v for _, _, v in r["evals"]])
    nlls = [v for vs in nll.values() for v in vs]
    ms = [1e3 * dt for dt, _, _ in steps]
    p90 = percentile(ms, 90) if ms else None
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (op_seconds(ok), "s"),
        "train_samples_per_s": (sum(b for _, b, _ in steps) * 1e3 / sum(ms)
                                if steps else None, "1/s"),
        "train_step_ms_p50": (statistics.median(ms) if ms else None, "ms"),
        "train_step_ms_p90": (p90, "ms"),
        "eval_images_per_s": (sum(n for _, n, _ in evals)
                              / sum(dt for dt, _, _ in evals) if evals
                              else None, "1/s"),
        "eval_nll": (statistics.fmean(nlls) if nlls else None, "nat"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_failed_ratio": (sum(1 for r in records if r["problems"])
                             / len(records), "ratio"),
    }
    counts = {"step_samples": len(ms),
              "step_samples_beyond_p90": sum(1 for v in ms if v > p90)
              if ms else 0,
              "eval_calls": len(evals)}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, \
        counts


def run_workload(args) -> int:
    import_moelab()
    import tracing
    import workloads
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, args.toy, work)
        if args.setup_probe:
            wl.setup()
            print(repr(time.monotonic()))
            return 0
        wl.setup()
        setup_times = []
        stamps, tracer = tracing.Stamps(), tracing.Tracer()
        stamp_patches = tracing.Patches()
        gone = stamps.install(stamp_patches)
        try:
            records = run_rounds(wl, args, stamps, tracer, setup_times)
        finally:
            stamp_patches.undo()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    untraced = [r for r in records if not r["traced"]]
    problems = [f"stamp hook {t} is gone" for t in gone]
    problems += [p for r in records for p in r["problems"]]
    # peak over a fixed amount of work: the first MIN_ROUNDS rounds
    n_ops = len(wl.ops())
    peak_rss_mb = records[MIN_ROUNDS * n_ops - 1]["rss_mb"]
    metrics, counts = end_to_end(untraced, setup_times, peak_rss_mb)
    digests = {}
    for r in records:
        if r["digest"] is not None:
            digests.setdefault(r["kind"], r["digest"])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(args.seed),
        "output_digest": hashlib.sha256(
            json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        "op_digests": digests,
        "runs": {k: sum(1 for r in records if r["kind"] == k)
                 for k in dict.fromkeys(r["kind"] for r in records)},
        "setup_s_samples": setup_times,
        "stamp_overhead_us_per_step": tracing.stamp_overhead_us(),
        **counts,
        "end_to_end": metrics,
        "problems": problems,
    }
    if args.trace:
        traced = [r for r in records if r["traced"] and not r["problems"]]
        ok_untraced = [r for r in untraced if not r["problems"]]
        flops_of = _flops_of()
        context = {
            "train_mflops_per_s": tracing.train_mflops_per_s(
                [i for r in ok_untraced for i in r["intervals"]], flops_of),
            "overhead_s": (op_seconds(traced) or 0.0)
            - (op_seconds(ok_untraced) or 0.0),
        }
        problems += tracing.self_time_check(tracer)
        metrics = tracing.layer_metrics(tracer, context)
        report.update(traced_wall_s=tracer.wall_s,
                      self_s=tracer.self_by_layer(),
                      missing_hooks=tracer.missing, per_layer=metrics)
    else:
        metrics = {k: v for k, v in metrics.items() if k not in REPORT_ONLY}
    print(json.dumps(report, indent=1, default=str))
    failed = sum(1 for r in records if r["problems"])
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def _flops_of():
    """Analytic forward FLOPs per example, computed once per spec."""
    from moelab.flops import flops_forward
    cache = {}

    def flops_of(spec):
        if id(spec) not in cache:
            cache[id(spec)] = flops_forward(spec).forward_per_example
        return cache[id(spec)]
    return flops_of


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.toy:
                cmd.append("--toy")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                metrics[f"{workload}/{name}"] = m
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
