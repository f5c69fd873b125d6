"""Performance-vs-compute analysis.

Three tools: the (K, M) grid of log gain-per-GFLOP cells, a cubic-in-log-F
difficulty curve phi fitted to reference (NLL, GFLOPs) points whose
derivative ratio rescales improvements so that saturated large models get
credit for hard-won gains, and Pareto frontiers of cost points.

A CSV of published reference results ships with the package (data/
paper_points.csv: family, variant, nll, gflops) so the analysis pipeline can
be reproduced without training anything.  read_results is the one reader of
result CSVs, this one and every file ``moelab analyze`` is given.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError

# families ordered by model size, one patch scale per tier; this is the
# comparison set for the difficulty-normalized table
SIZE_LADDER = ("S/32", "B/32", "L/32", "L/16", "H/14")


@dataclass
class CostPoint:
    label: str
    metric: float
    giga_flops: float

    def __post_init__(self):
        if self.giga_flops <= 0:
            raise ConfigError("giga_flops must be positive")


def normalized_gain(points: dict, baseline=(1, 1)) -> dict:
    """Grid of log[(LL gain)/(GFLOPs cost)] relative to the baseline cell.

    points maps (k, m) to a CostPoint whose metric is NLL (lower is
    better), so the log-likelihood gain is baseline_nll - cell_nll.  Cells
    with zero gain map to -inf; negative gains map to None (log undefined).
    The baseline cell itself is None.
    """
    if baseline not in points:
        raise ConfigError("baseline cell missing from grid")
    base = points[baseline]
    out = {}
    for key, pt in points.items():
        if key == baseline:
            out[key] = None
            continue
        cost = pt.giga_flops - base.giga_flops
        if cost <= 0:
            raise ConfigError(f"cell {key} does not cost more than baseline")
        gain = base.metric - pt.metric
        if gain < 0:
            out[key] = None
        elif gain == 0:
            out[key] = float("-inf")
        else:
            out[key] = math.log(gain / cost)
    return out


@dataclass
class PhiFit:
    """phi(F) = c0 + c1 u + c2 u^2 + c3 u^3 with u = ln F."""

    coeffs: np.ndarray

    def phi_prime(self, giga_flops: float) -> float:
        """d(phi)/dF: chain rule through u = ln F divides by F."""
        u = math.log(giga_flops)
        c = self.coeffs
        return float((c[1] + 2 * c[2] * u + 3 * c[3] * u * u) / giga_flops)


def fit_phi(points: list) -> PhiFit:
    """Ordinary least squares of metric on [1, u, u^2, u^3], u = ln GFLOPs."""
    if len(points) < 4:
        raise ConfigError("need at least 4 points for a cubic fit")
    u = np.array([math.log(p.giga_flops) for p in points])
    design = np.stack([np.ones_like(u), u, u ** 2, u ** 3], axis=1)
    target = np.array([p.metric for p in points])
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 4:
        raise ConfigError("design matrix is rank deficient "
                          "(need 4 distinct FLOPs values)")
    return PhiFit(coeffs)


def normalized_improvement(improvements: dict, phi: PhiFit, flops: dict,
                           reference: str) -> dict:
    """Scale each family's improvement by phi'(F_ref) / phi'(F_family).

    The reference family maps to itself (ratio is exactly 1); only
    derivative ratios matter, so any uniform rescale of phi leaves the
    table unchanged.
    """
    if reference not in flops:
        raise ConfigError(f"reference family {reference!r} missing")
    ref_slope = phi.phi_prime(flops[reference])
    out = {}
    for fam, imp in improvements.items():
        if fam not in flops:
            raise ConfigError(f"family {fam!r} has no FLOPs entry")
        if fam == reference:
            out[fam] = imp
        else:
            out[fam] = imp * ref_slope / phi.phi_prime(flops[fam])
    return out


def pareto_frontier(points: list) -> list:
    """Non-dominated points (metric lower-better), sorted by FLOPs.

    A point is dominated if another point is at least as good on both axes
    and strictly better on one.  Exact duplicates keep one representative.
    """
    if not points:
        return []
    keep = []
    seen = set()
    for p in points:
        key = (p.giga_flops, p.metric)
        if key in seen:
            continue
        dominated = False
        for q in points:
            if q is p:
                continue
            if ((q.giga_flops <= p.giga_flops and q.metric < p.metric)
                    or (q.giga_flops < p.giga_flops and q.metric <= p.metric)):
                dominated = True
                break
        if not dominated:
            seen.add(key)
            keep.append(p)
    return sorted(keep, key=lambda p: (p.giga_flops, p.metric, p.label))


_CELL_RULES = {str: "a non-empty cell", float: "a finite number",
               int: "an integer"}


def _cell(text: str, kind):
    """One cell converted to kind, or None if it breaks _CELL_RULES."""
    text = text.strip()
    if kind is str:
        return text or None
    try:
        value = float(text)
    except ValueError:
        return None
    if not math.isfinite(value) or (kind is int and not value.is_integer()):
        return None
    return int(value) if kind is int else value


def read_results(path, columns: dict) -> list:
    """Rows of a results CSV, one dict per row.

    columns maps each required column to the type of its cells: str cells
    must not be empty, float cells must be finite numbers, and int cells
    whole numbers (2 or 2.0, not 2.5).  Those cells come back converted
    and stripped; the cells of other columns come back as text.  path None
    reads the packaged reference points.  Raises ConfigError for an
    unreadable or non-UTF-8 file, a missing header or column, a bad cell,
    or no data rows.
    """
    if path is None:
        name = "packaged reference points"
        text = resources.files("moelab").joinpath(
            "data/paper_points.csv").read_text(encoding="utf-8")
    else:
        name = str(path)
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        raise ConfigError(f"{name}: empty CSV, header row required")
    missing = sorted(set(columns) - set(reader.fieldnames))
    if missing:
        raise ConfigError(f"{name}: missing columns {missing}")
    rows = []
    for i, row in enumerate(reader, start=1):
        for col, kind in columns.items():
            value = _cell(row[col] or "", kind)
            if value is None:
                raise ConfigError(f"{name}: row {i}: column {col!r} must be "
                                  f"{_CELL_RULES[kind]}, got {row[col]!r}")
            row[col] = value
        rows.append(row)
    if not rows:
        raise ConfigError(f"{name}: no data rows")
    return rows


def load_reference_points(path=None) -> list:
    """(family, variant, nll, gflops) rows of the packaged or given results
    CSV, read by read_results."""
    return read_results(path, {"family": str, "variant": str, "nll": float,
                               "gflops": float})


def improvement_table(rows: list, variant: str,
                      reference: str = "H/14") -> list:
    """Raw and difficulty-normalized NLL improvements of variant over vit.

    Improvement is the relative NLL reduction 100 * (vit - variant) / vit.
    phi is fitted on every vit row present (all sizes), while the table
    covers the size ladder S/32 ... H/14.  Returns
    [(family, raw_pct, normalized_pct)] in ladder order.
    """
    by = {}
    for r in rows:
        key = (r["family"], r["variant"])
        if key in by:
            raise ConfigError(f"row family={key[0]}, variant={key[1]} "
                              "appears more than once")
        by[key] = r
    vit_points = [CostPoint(f, by[(f, "vit")]["nll"], by[(f, "vit")]["gflops"])
                  for f in dict.fromkeys(r["family"] for r in rows)
                  if (f, "vit") in by]
    phi = fit_phi(vit_points)
    raw = {}
    flops = {}
    for fam in SIZE_LADDER:
        if (fam, "vit") not in by or (fam, variant) not in by:
            raise ConfigError(f"family {fam!r} lacks vit or {variant} rows")
        vit_nll = by[(fam, "vit")]["nll"]
        if vit_nll <= 0:
            raise ConfigError(f"family {fam!r}: vit nll must be positive to "
                              f"divide the improvement by, got {vit_nll}")
        var_nll = by[(fam, variant)]["nll"]
        raw[fam] = 100.0 * (vit_nll - var_nll) / vit_nll
        flops[fam] = by[(fam, "vit")]["gflops"]
    norm = normalized_improvement(raw, phi, flops, reference)
    return [(fam, raw[fam], norm[fam]) for fam in SIZE_LADDER]
