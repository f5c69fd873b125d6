"""Config-driven experiment runner.

Subcommands:

``run --config cfg.json``
    Train and evaluate ``repetitions`` seeds, writing one report JSON and
    one checkpoint per seed plus a mean/stderr summary CSV.

``sweep --config cfg.json``
    Expand a grid over variant, E, K and M, run each cell, and write one
    CSV row per cell with metrics and training FLOPs.  Besides the model
    variants the grid accepts two ensembling protocols: ``deep_ensemble``
    (M independently trained vmoe models averaged at test time) and
    ``mc_dropout`` (one vit model, M eval-time dropout draws).  A cell is
    (spec, models trained, dropout draws): a variant is (spec, 1, 0),
    deep_ensemble is (vmoe spec, M, 0) and mc_dropout is (vit spec, 1, M).

``analyze --mode {gain_map,normalized_improvement,pareto}``
    Turn result CSVs into tables and SVG scatter plots.

``flops --preset <name>``
    Print the analytic cost report for a model configuration.

``run`` and ``sweep`` make and check their data before the first write,
then train and evaluate each repetition through ``_repetition``.

Exit codes: 0 success, 2 configuration error, 3 training divergence or
evaluation failure.
All commands are deterministic given config and seed; every file, including
checkpoints, is written atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .analyzer import (
    CostPoint,
    improvement_table,
    load_reference_points,
    normalized_gain,
    pareto_frontier,
    read_results,
)
from .checkpoint import checkpoint_from_model, save_checkpoint, write_atomic
from .config import Record, check_value, field_types
from .dataset import DatasetSpec, make_dataset
from .errors import ConfigError, DivergenceError, EvaluationError
from .flops import deep_ensemble_flops, flops_estimate, flops_forward, tiling_saving
from .losses import check_loss_mode
from .model import PRESET_NAMES, VARIANTS, ModelSpec, build_model, preset
from .rng import Rng
from .trainer import TrainConfig, check_train_inputs, evaluate, history_to_csv, train

__all__ = ["ExperimentConfig", "main"]

# Eval-time draws (routing noise, dropout samples) come from a generator
# seeded away from the training seed so the two never share streams.
EVAL_SEED_OFFSET = 1000

# Deep-ensemble members get seeds spaced by a prime so member b of cell x
# never collides with member a of a neighbouring repetition.
MEMBER_SEED_STRIDE = 7919

SWEEP_PROTOCOLS = ("deep_ensemble", "mc_dropout")


@dataclass
class ExperimentConfig(Record):
    """One training experiment: model + optimizer + data + replication."""

    model: ModelSpec
    train: TrainConfig
    dataset: DatasetSpec
    repetitions: int = 1
    output_dir: str = "out"
    grid: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        for name in ("image_size", "channels", "classes"):
            have = getattr(self.dataset, name)
            want = getattr(self.model, name)
            if have != want:
                raise ConfigError(f"dataset.{name} {have} differs from "
                                  f"model.{name} {want}")
        # sweep cells are built with dataclasses.replace, which skips
        # from_dict, so the grid values get the ModelSpec field checks here
        for key, values in self.grid.items():
            if key not in ("variant", "e", "k", "m"):
                raise ConfigError(f"unknown grid key {key!r}; allowed "
                                  "variant, e, k, m")
            if not isinstance(values, list) or not values:
                raise ConfigError(f"grid.{key} must be a non-empty list")
            for i, value in enumerate(values):
                check_value(value, field_types(ModelSpec)[key],
                            f"grid.{key}[{i}]")
        # run trains model.variant, a sweep cell its grid variant
        for variant in [self.model.variant, *self.grid.get("variant", [])]:
            check_loss_mode(variant, self.train.loss.loss_mode)

    def to_dict(self) -> dict:
        d = super().to_dict()
        if not self.grid:
            del d["grid"]
        return d


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def _csv_bytes(rows: list) -> bytes:
    """Rows of text cells as CSV: minimal quoting, \\n line ends."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def _fmt_cell(v) -> str:
    return f"{v:.10g}"


def _mean_stderr(values: list) -> tuple:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _flatten_report(report) -> dict:
    """Scalar view of an EvalReport: top-level fields plus ood metrics."""
    d = report.to_dict()
    flat = {key: v for key, v in d.items() if not isinstance(v, dict)}
    for pair, metrics in sorted(d["ood"].items()):
        for name, value in sorted(metrics.items()):
            flat[f"ood.{pair}.{name}"] = value
    return flat


def _summary_csv(flat_reports: list) -> bytes:
    rows = [["metric", "mean", "stderr"]]
    keys = list(flat_reports[0])
    for key in keys:
        values = [fr.get(key) for fr in flat_reports]
        if any(v is None for v in values):
            continue
        mean, stderr = _mean_stderr(values)
        rows.append([key, _fmt_cell(mean), _fmt_cell(stderr)])
    return _csv_bytes(rows)


def _make_dir(path: Path) -> None:
    """mkdir -p path; an OSError (say, a file in the way) is a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make directory {path}: "
                          f"{exc.strerror}") from exc


def _write_config(config: ExperimentConfig, out_dir: Path) -> None:
    _make_dir(out_dir)
    text = json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"
    write_atomic(out_dir / "config.json", text.encode())


def _datasets(config: ExperimentConfig):
    """Yield each repetition's dataset when it is asked for: synthetic data
    seeded dataset.seed + i, or csv data, which depends on no seed, read
    once and shared.  The seed sets no split size, class count or csv file
    that train's checks read."""
    if config.dataset.kind == "csv":
        yield from itertools.repeat(make_dataset(config.dataset),
                                    config.repetitions)
    else:
        for i in range(config.repetitions):
            yield make_dataset(replace(config.dataset,
                                       seed=config.dataset.seed + i))


def _repetition(config: ExperimentConfig, spec: ModelSpec, n_models: int,
                mc_samples: int, i: int, dataset):
    """Train and evaluate repetition i on its dataset.

    It trains n_models models of spec at seeds seed + i + j *
    MEMBER_SEED_STRIDE and evaluates them once: a lone model with
    mc_samples dropout draws (0: its own members), or the n_models models
    pooled as a deep ensemble.  Returns ([(model, history), ...], report).
    """
    tcfg = config.train
    seed = tcfg.seed + i
    seeds = [seed + MEMBER_SEED_STRIDE * j for j in range(n_models)]
    trained = [train(build_model(spec, Rng(s)), dataset,
                     replace(tcfg, seed=s)) for s in seeds]
    models = [model for model, _ in trained]
    # one model is evaluated as itself, also as a deep ensemble of one:
    # its vmoe spec has one member, and the mean over one member is exact
    report = evaluate(
        models[0] if n_models == 1 else None, dataset,
        Rng(seed + EVAL_SEED_OFFSET),
        models=None if n_models == 1 else models, mc_samples=mc_samples,
        flops_giga=deep_ensemble_flops(spec, n_models, tcfg.steps,
                                       tcfg.batch_size))
    return trained, report


def run_experiment(config: ExperimentConfig, out_dir: Path) -> list:
    """Train and evaluate every repetition; returns the EvalReports.  One
    repetition's data is held at a time; repetition 0's is checked before
    the first write."""
    datasets = _datasets(config)
    dataset = next(datasets)
    check_train_inputs(config.model, dataset, config.train)
    _write_config(config, out_dir)
    reports = []
    for i in range(config.repetitions):
        if i:
            del dataset  # freed before the next repetition's data is made
            dataset = next(datasets)
        [(model, history)], report = _repetition(config, config.model, 1, 0,
                                                 i, dataset)
        seed_dir = out_dir / f"seed_{i:03d}"
        _make_dir(seed_dir)
        write_atomic(seed_dir / "report.json",
                     (report.to_json() + "\n").encode())
        history_to_csv(history, seed_dir / "history.csv")
        save_checkpoint(checkpoint_from_model(model), seed_dir / "checkpoint.bin")
        reports.append(report)
    flat = [_flatten_report(r) for r in reports]
    write_atomic(out_dir / "summary.csv", _summary_csv(flat))
    return reports


def _cell(base: ModelSpec, variant: str, e: int, k: int, m: int):
    """Resolve one sweep cell to (model spec, n_models, mc_samples)."""
    if variant in SWEEP_PROTOCOLS and m < 1:
        raise ConfigError(f"sweep cell {variant} needs m >= 1, got m={m}")
    if variant == "deep_ensemble":
        return replace(base, variant="vmoe", e=e, k=k, m=1), m, 0
    if variant == "mc_dropout":
        # one dense model; the M draws cost only at eval
        return replace(base, variant="vit", m=1), 1, m
    if variant not in VARIANTS:
        raise ConfigError(
            f"unknown sweep variant {variant!r}; allowed "
            f"{sorted(VARIANTS + SWEEP_PROTOCOLS)}"
        )
    return replace(base, variant=variant, e=e, k=k, m=m), 1, 0


SWEEP_METRICS = ("nll", "error_pct", "ece", "kl_diversity")


def run_sweep(config: ExperimentConfig, out_dir: Path) -> Path:
    grid = config.grid
    variants = grid.get("variant", [config.model.variant])
    es = grid.get("e", [config.model.e])
    ks = grid.get("k", [config.model.k])
    ms = grid.get("m", [config.model.m])

    # every cell's spec is built and checked, and the repetition datasets,
    # which every cell shares (train and evaluate write no dataset array),
    # are made and checked against every cell before the first write
    cells = [(variant, e, k, m, _cell(config.model, variant, e, k, m))
             for variant, e, k, m in itertools.product(variants, es, ks, ms)]
    datasets = list(_datasets(config))
    for *_, (spec, _, _) in cells:
        for dataset in datasets:
            check_train_inputs(spec, dataset, config.train)
    _write_config(config, out_dir)
    header = ["variant", "e", "k", "m"]
    for name in SWEEP_METRICS:
        header += [f"{name}_mean", f"{name}_stderr"]
    header.append("train_gflops")
    rows = [header]
    for variant, e, k, m, cell in cells:
        flat = [_flatten_report(_repetition(config, *cell, i, dataset)[1])
                for i, dataset in enumerate(datasets)]
        row = [variant, str(e), str(k), str(m)]
        for name in SWEEP_METRICS:
            values = [fr.get(name) for fr in flat]
            if any(v is None for v in values):
                row += ["", ""]
            else:
                mean, stderr = _mean_stderr(values)
                row += [_fmt_cell(mean), _fmt_cell(stderr)]
        row.append(_fmt_cell(flat[0]["flops_train_giga"]))
        rows.append(row)
    path = out_dir / "sweep.csv"
    write_atomic(path, _csv_bytes(rows))
    return path


def analyze_normalized_improvement(rows, variant: str,
                                   reference: str) -> dict:
    from .svg import scatter  # imported here: not on moelab.cli's import path

    table = improvement_table(rows, variant, reference=reference)
    lines = [["family", "raw_improvement_pct", "normalized_improvement_pct"]]
    lines += [[family, _fmt_cell(raw), _fmt_cell(norm)]
              for family, raw, norm in table]

    series = {}
    for row in rows:
        name = row["variant"]
        xs, ys, labels = series.setdefault(name, ([], [], []))
        xs.append(row["gflops"])
        ys.append(row["nll"])
        labels.append(row["family"])
    return {"improvement.csv": _csv_bytes(lines),
            "improvement.svg": scatter(series, "NLL")}


def analyze_pareto(rows) -> dict:
    from .svg import scatter

    points = [CostPoint(row["label"], row["metric"], row["gflops"])
              for row in rows]
    frontier = pareto_frontier(points)
    lines = [["label", "metric", "gflops"]]
    lines += [[p.label, _fmt_cell(p.metric), _fmt_cell(p.giga_flops)]
              for p in frontier]

    series = {"points": ([p.giga_flops for p in points],
                         [p.metric for p in points],
                         [p.label for p in points])}
    front_xy = [(p.giga_flops, p.metric) for p in frontier]
    return {"frontier.csv": _csv_bytes(lines),
            "pareto.svg": scatter(series, "metric", front_xy)}


def analyze_gain_map(rows, path, baseline) -> dict:
    from .svg import scatter

    points = {}
    for row in rows:
        key = (row["k"], row["m"])
        if key in points:
            raise ConfigError(f"{path}: cell k={key[0]}, m={key[1]} "
                              "appears more than once")
        label = (row.get("label") or "").strip() or f"K={key[0]},M={key[1]}"
        points[key] = CostPoint(label, row["metric"], row["gflops"])
    gains = normalized_gain(points, baseline=baseline)
    lines = [["k", "m", "log_gain_per_cost"]]
    for (k, m) in sorted(gains):
        g = gains[(k, m)]
        lines.append([str(k), str(m), "" if g is None else _fmt_cell(g)])

    series = {"grid": ([p.giga_flops for p in points.values()],
                       [p.metric for p in points.values()],
                       [p.label for p in points.values()])}
    return {"gain_map.csv": _csv_bytes(lines),
            "gain_map.svg": scatter(series, "metric")}


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.output_dir or config.output_dir)
    run_experiment(config, out_dir)
    print(f"wrote {config.repetitions} seed reports to {out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if not config.grid:
        raise ConfigError("sweep config needs a non-empty 'grid' object")
    out_dir = Path(args.output_dir or config.output_dir)
    path = run_sweep(config, out_dir)
    print(f"wrote {path}")
    return 0


def _cmd_analyze(args) -> int:
    """Read and check the input and make every output before the output
    directory is created, so a bad input leaves nothing behind."""
    if args.mode == "normalized_improvement":
        rows = load_reference_points(args.input)
        files = analyze_normalized_improvement(rows, args.variant,
                                               args.reference)
    elif not args.input:
        raise ConfigError(f"analyze --mode {args.mode} requires --input")
    elif args.mode == "pareto":
        rows = read_results(args.input, {"label": str, "metric": float,
                                         "gflops": float})
        files = analyze_pareto(rows)
    else:  # gain_map
        try:
            parts = [int(x) for x in args.baseline.split(",")]
            if len(parts) != 2:
                raise ValueError
        except ValueError:
            raise ConfigError(
                f"--baseline must be 'k,m', got {args.baseline!r}"
            ) from None
        rows = read_results(args.input, {"k": int, "m": int,
                                         "metric": float, "gflops": float})
        files = analyze_gain_map(rows, args.input, tuple(parts))
    out_dir = Path(args.out)
    _make_dir(out_dir)
    for name, data in files.items():
        write_atomic(out_dir / name, data)
    print(f"wrote analysis to {out_dir}")
    return 0


def _spec_from_flags(args) -> ModelSpec:
    overrides = {}
    for name in ("variant", "e", "k", "m", "last_n", "classes"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    return preset(args.preset, **overrides)


def _cmd_flops(args) -> int:
    for name in ("steps", "batch_size", "ensemble"):
        if getattr(args, name) < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 1")
    spec = _spec_from_flags(args)
    tiling = "naive" if args.naive else "deferred"
    report = flops_forward(spec, tiling=tiling)
    deferred = flops_forward(spec, tiling="deferred")
    naive = flops_forward(spec, tiling="naive")
    train_g = flops_estimate(spec, args.steps, args.batch_size)
    lines = [
        f"preset={args.preset} variant={spec.variant} e={spec.e} "
        f"k={spec.k} m={spec.m}",
        f"tiling={tiling}",
        f"forward_mflops={report.forward_per_example / 1e6:.6g}",
    ]
    for part in sorted(report.parts):
        lines.append(f"forward_mflops.{part}={report.parts[part] / 1e6:.6g}")
    lines += [
        f"forward_mflops_deferred={deferred.forward_per_example / 1e6:.6g}",
        f"forward_mflops_naive={naive.forward_per_example / 1e6:.6g}",
        f"tiling_saving_pct={100.0 * tiling_saving(spec):.4f}",
        f"train_gflops={train_g:.10g}",
    ]
    if args.ensemble > 1:
        de = deep_ensemble_flops(spec, args.ensemble, args.steps,
                                 args.batch_size)
        lines += [
            f"deep_ensemble_m={args.ensemble}",
            f"deep_ensemble_train_gflops={de:.10g}",
            f"deep_ensemble_ratio={de / train_g:.3f}",
        ]
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moelab",
        description="Sparse mixture-of-experts ensembling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train and evaluate one configuration")
    p_run.add_argument("--config", required=True, help="experiment JSON")
    p_run.add_argument("--output-dir", default=None,
                       help="override config output_dir")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a variant/E/K/M grid")
    p_sweep.add_argument("--config", required=True, help="experiment JSON "
                         "with a 'grid' object")
    p_sweep.add_argument("--output-dir", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_an = sub.add_parser("analyze", help="tables and SVG plots from CSVs")
    p_an.add_argument("--mode", required=True,
                      choices=("gain_map", "normalized_improvement", "pareto"))
    p_an.add_argument("--input", default=None,
                      help="input CSV (normalized_improvement defaults to "
                      "the packaged reference points)")
    p_an.add_argument("--out", required=True, help="output directory")
    p_an.add_argument("--variant", default="pbe",
                      help="variant column to compare against vit")
    p_an.add_argument("--reference", default="H/14",
                      help="family whose improvement anchors normalization")
    p_an.add_argument("--baseline", default="1,1",
                      help="gain_map baseline cell as 'k,m'")
    p_an.set_defaults(func=_cmd_analyze)

    p_fl = sub.add_parser("flops", help="analytic cost report")
    p_fl.add_argument("--preset", required=True, choices=PRESET_NAMES)
    p_fl.add_argument("--variant", default=None,
                      choices=VARIANTS)
    p_fl.add_argument("--e", type=int, default=None)
    p_fl.add_argument("--k", type=int, default=None)
    p_fl.add_argument("--m", type=int, default=None)
    p_fl.add_argument("--last-n", type=int, default=None, dest="last_n")
    p_fl.add_argument("--classes", type=int, default=None)
    p_fl.add_argument("--steps", type=int, default=1,
                      help="training steps for the train-cost line")
    p_fl.add_argument("--batch-size", type=int, default=1)
    p_fl.add_argument("--ensemble", type=int, default=2,
                      help="deep-ensemble size for the ratio lines")
    p_fl.add_argument("--naive", action="store_true",
                      help="price input-level tiling instead of deferred "
                      "tiling at the first routed block")
    p_fl.set_defaults(func=_cmd_flops)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except EvaluationError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
