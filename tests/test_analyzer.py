"""Performance-vs-compute analysis: gain grids, the difficulty curve fit,
normalized improvements against the shipped reference table, and Pareto
frontiers checked against a brute-force dominance oracle."""

import math

import numpy as np
import pytest

from moelab.analyzer import (
    SIZE_LADDER,
    CostPoint,
    PhiFit,
    fit_phi,
    improvement_table,
    load_reference_points,
    normalized_gain,
    normalized_improvement,
    pareto_frontier,
)
from moelab.errors import ConfigError


class TestNormalizedGain:
    def test_hand_cell(self):
        points = {(1, 1): CostPoint("base", 1.00, 10.0),
                  (2, 1): CostPoint("k2", 0.99, 11.0)}
        out = normalized_gain(points)
        assert out[(1, 1)] is None
        np.testing.assert_allclose(out[(2, 1)], math.log(0.01), atol=1e-12)
        np.testing.assert_allclose(out[(2, 1)], -4.605, atol=1e-3)

    def test_zero_gain_is_minus_inf(self):
        points = {(1, 1): CostPoint("base", 1.0, 10.0),
                  (1, 2): CostPoint("m2", 1.0, 20.0)}
        assert normalized_gain(points)[(1, 2)] == float("-inf")

    def test_negative_gain_is_none(self):
        points = {(1, 1): CostPoint("base", 1.0, 10.0),
                  (1, 2): CostPoint("m2", 1.1, 20.0)}
        assert normalized_gain(points)[(1, 2)] is None

    def test_ratio_invariance(self):
        a = {(1, 1): CostPoint("b", 1.0, 10.0),
             (2, 2): CostPoint("c", 0.98, 11.0)}
        b = {(1, 1): CostPoint("b", 1.0, 10.0),
             (2, 2): CostPoint("c", 0.96, 12.0)}  # gain and cost both doubled
        np.testing.assert_allclose(normalized_gain(a)[(2, 2)],
                                   normalized_gain(b)[(2, 2)], atol=1e-12)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ConfigError):
            normalized_gain({(2, 1): CostPoint("x", 1.0, 5.0)})

    def test_cheaper_cell_rejected(self):
        points = {(1, 1): CostPoint("base", 1.0, 10.0),
                  (2, 1): CostPoint("k2", 0.9, 9.0)}
        with pytest.raises(ConfigError):
            normalized_gain(points)


class TestPhiFit:
    def test_recovers_known_cubic(self):
        gen = np.random.default_rng(0)
        true = np.array([0.3, -0.2, 0.05, -0.004])
        flops = gen.uniform(5.0, 5000.0, size=12)
        pts = []
        for f in flops:
            u = math.log(f)
            val = true[0] + true[1] * u + true[2] * u * u + true[3] * u ** 3
            pts.append(CostPoint("p", val, f))
        fit = fit_phi(pts)
        np.testing.assert_allclose(fit.coeffs, true, atol=1e-8)
        for f in (7.0, 123.0, 4000.0):
            u = math.log(f)
            expect = true[1] + 2 * true[2] * u + 3 * true[3] * u * u
            np.testing.assert_allclose(fit.phi_prime(f), expect / f,
                                       atol=1e-10)

    def test_constant_metric_flat_derivative(self):
        pts = [CostPoint("p", 0.5, f) for f in (10.0, 30.0, 100.0, 900.0)]
        fit = fit_phi(pts)
        for f in (12.0, 250.0):
            assert abs(fit.phi_prime(f)) < 1e-9

    def test_reference_vit_curve_flattens(self):
        rows = load_reference_points()
        pts = [CostPoint(r["family"], r["nll"], r["gflops"])
               for r in rows if r["variant"] == "vit"]
        fit = fit_phi(pts)
        flops = sorted(p.giga_flops for p in pts)
        slopes = [abs(fit.phi_prime(f)) for f in flops]
        assert slopes[0] > slopes[-1]

    def test_too_few_points_rejected(self):
        pts = [CostPoint("p", 0.5, f) for f in (10.0, 20.0, 30.0)]
        with pytest.raises(ConfigError):
            fit_phi(pts)

    def test_duplicate_flops_rank_deficient(self):
        pts = [CostPoint("p", v, 10.0) for v in (0.5, 0.6, 0.7, 0.8)]
        with pytest.raises(ConfigError):
            fit_phi(pts)


class TestNormalizedImprovement:
    def fit(self):
        rows = load_reference_points()
        pts = [CostPoint(r["family"], r["nll"], r["gflops"])
               for r in rows if r["variant"] == "vit"]
        return fit_phi(pts)

    def test_reference_row_unchanged(self):
        fit = self.fit()
        out = normalized_improvement({"S/32": 9.82, "H/14": 4.27}, fit,
                                     {"S/32": 22.32, "H/14": 2962.57},
                                     "H/14")
        assert out["H/14"] == 4.27

    def test_scale_invariance_of_phi(self):
        fit = self.fit()
        imp = {"S/32": 9.82, "B/32": 9.53, "H/14": 4.27}
        flops = {"S/32": 22.32, "B/32": 72.46, "H/14": 2962.57}
        a = normalized_improvement(imp, fit, flops, "H/14")
        scaled = PhiFit(fit.coeffs * 7.25)
        b = normalized_improvement(imp, scaled, flops, "H/14")
        for fam in imp:
            np.testing.assert_allclose(a[fam], b[fam], atol=1e-12)

    def test_missing_reference_rejected(self):
        fit = self.fit()
        with pytest.raises(ConfigError):
            normalized_improvement({"S/32": 1.0}, fit, {"S/32": 22.32},
                                   "H/14")


class TestImprovementTable:
    def test_raw_improvements_match_reference(self):
        rows = load_reference_points()
        table = improvement_table(rows, "pbe")
        expected = {"S/32": 9.82, "B/32": 9.53, "L/32": 3.76,
                    "L/16": 5.38, "H/14": 4.27}
        assert [fam for fam, _, _ in table] == list(SIZE_LADDER)
        for fam, raw, _ in table:
            assert abs(raw - expected[fam]) < 0.2, (fam, raw)

    def test_normalized_column_monotone(self):
        rows = load_reference_points()
        table = improvement_table(rows, "pbe")
        norm = [n for _, _, n in table]
        assert all(a < b for a, b in zip(norm, norm[1:]))
        np.testing.assert_allclose(norm[-1], 4.27, atol=0.2)

    def test_s32_hand_ratio(self):
        # (0.907 - 0.818) / 0.907 = 9.81%
        rows = load_reference_points()
        table = improvement_table(rows, "pbe", reference="S/32")
        raw = {fam: r for fam, r, _ in table}
        np.testing.assert_allclose(raw["S/32"],
                                   100.0 * (0.907 - 0.818) / 0.907,
                                   atol=1e-9)

    def test_missing_family_rejected(self):
        rows = [r for r in load_reference_points() if r["family"] != "L/16"]
        with pytest.raises(ConfigError):
            improvement_table(rows, "pbe")


def brute_force_frontier(points):
    keep = []
    seen = set()
    for p in points:
        key = (p.giga_flops, p.metric)
        if key in seen:
            continue
        dominated = any(
            (q.giga_flops <= p.giga_flops and q.metric < p.metric)
            or (q.giga_flops < p.giga_flops and q.metric <= p.metric)
            for q in points if q is not p)
        if not dominated:
            seen.add(key)
            keep.append(p)
    return sorted(keep, key=lambda p: (p.giga_flops, p.metric, p.label))


class TestParetoFrontier:
    def test_single_point(self):
        pt = CostPoint("a", 1.0, 5.0)
        assert pareto_frontier([pt]) == [pt]

    def test_hand_example(self):
        pts = [CostPoint("a", 1.0, 1.0), CostPoint("b", 0.9, 2.0),
               CostPoint("c", 0.95, 3.0)]
        out = pareto_frontier(pts)
        assert [p.label for p in out] == ["a", "b"]

    def test_duplicates_keep_one(self):
        pts = [CostPoint("a", 1.0, 1.0), CostPoint("a2", 1.0, 1.0)]
        assert len(pareto_frontier(pts)) == 1

    def test_matches_brute_force(self):
        gen = np.random.default_rng(1)
        for _ in range(100):
            n = int(gen.integers(1, 20))
            pts = [CostPoint(str(i),
                             float(gen.integers(1, 8)) / 4.0,
                             float(gen.integers(1, 8)))
                   for i in range(n)]
            got = pareto_frontier(pts)
            want = brute_force_frontier(pts)
            assert [(p.giga_flops, p.metric) for p in got] == \
                [(p.giga_flops, p.metric) for p in want]

    def test_empty(self):
        assert pareto_frontier([]) == []

    def test_sorted_by_flops(self):
        gen = np.random.default_rng(2)
        pts = [CostPoint(str(i), float(gen.uniform(0.1, 1.0)),
                         float(gen.uniform(1.0, 50.0))) for i in range(30)]
        out = pareto_frontier(pts)
        flops = [p.giga_flops for p in out]
        assert flops == sorted(flops)


class TestReferenceData:
    def test_shipped_csv_complete(self):
        rows = load_reference_points()
        fams = {r["family"] for r in rows}
        assert set(SIZE_LADDER) <= fams
        for fam in SIZE_LADDER:
            for variant in ("vit", "pbe"):
                assert any(r["family"] == fam and r["variant"] == variant
                           for r in rows)

    def test_invalid_cost_point(self):
        with pytest.raises(ConfigError):
            CostPoint("x", 0.5, 0.0)

    def test_external_csv_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("family,nll\nS/32,0.9\n")
        with pytest.raises(ConfigError):
            load_reference_points(path)
