"""Prediction metrics: NLL/error, calibration, member diversity, OOD
separation, the few-shot probe, and the mergeable accumulator."""

import math

import numpy as np
import pytest

from moelab.errors import ConfigError
from moelab.metrics import (
    ECE_BINS,
    MetricAccumulator,
    fewshot_probe,
    ood_metrics,
    ood_scores,
)


def accumulate(member_probs, labels):
    """MetricAccumulator.result() over one (M, N, C) batch."""
    acc = MetricAccumulator()
    acc.add_batch(member_probs, labels)
    return acc.result()


def single(probs, labels):
    """Metrics of one (N, C) prediction, read as a one-member ensemble."""
    return accumulate(np.asarray(probs)[None], labels)


class TestNllError:
    def test_coin_flip(self):
        p = np.full((8, 2), 0.5)
        y = np.zeros(8, dtype=int)
        np.testing.assert_allclose(single(p, y)["nll"], math.log(2.0),
                                   atol=1e-12)

    def test_perfect_one_hot(self):
        p = np.eye(4)[[0, 1, 2, 3]]
        out = single(p, np.arange(4))
        assert out["error_pct"] == 0.0
        assert out["nll"] < 1e-10

    def test_hand_example(self):
        p = np.array([[0.9, 0.1], [0.1, 0.9]])
        y = np.array([0, 0])
        out = single(p, y)
        np.testing.assert_allclose(out["nll"], 1.2040, atol=1e-4)
        np.testing.assert_allclose(out["nll"],
                                   -(math.log(0.9) + math.log(0.1)) / 2,
                                   atol=1e-12)
        assert out["error_pct"] == 50.0

    def test_argmax_tie_breaks_low(self):
        p = np.array([[0.5, 0.5]])
        assert single(p, np.array([0]))["error_pct"] == 0.0
        assert single(p, np.array([1]))["error_pct"] == 100.0

    def test_order_invariance(self):
        gen = np.random.default_rng(0)
        raw = gen.uniform(0.01, 1.0, size=(64, 5))
        p = raw / raw.sum(axis=1, keepdims=True)
        y = gen.integers(0, 5, size=64)
        perm = gen.permutation(64)
        assert single(p, y) == single(p[perm], y[perm])


class TestEce:
    def test_full_confidence_half_correct(self):
        p = np.array([[1.0, 0.0]] * 4)
        y = np.array([0, 0, 1, 1])
        np.testing.assert_allclose(single(p, y)["ece"], 0.5, atol=1e-12)

    def test_single_sample_correct(self):
        for c in (0.55, 0.7, 0.95):
            p = np.array([[c, 1.0 - c]])
            np.testing.assert_allclose(single(p, np.array([0]))["ece"],
                                       abs(1.0 - c), atol=1e-12)

    def test_self_consistent_predictions_calibrated(self):
        # labels drawn from the predicted distribution itself: ECE -> 0
        gen = np.random.default_rng(1)
        n = 100_000
        raw = gen.uniform(0.1, 1.0, size=(n, 4))
        p = raw / raw.sum(axis=1, keepdims=True)
        u = gen.uniform(size=n)
        y = (u[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
        assert single(p, y)["ece"] < 0.01

    def test_single_occupied_bin(self):
        # every confidence inside one bin: ECE is |accuracy - confidence|
        gen = np.random.default_rng(2)
        lo, hi = 9 / ECE_BINS, 10 / ECE_BINS
        c = gen.uniform(lo + 1e-3, hi - 1e-3, size=50)
        p = np.stack([c, 1.0 - c], axis=1)
        y = gen.integers(0, 2, size=50)
        conf = c.mean()
        acc = (y == 0).mean()
        np.testing.assert_allclose(single(p, y)["ece"], abs(acc - conf),
                                   atol=1e-12)

    def test_bounded_by_one(self):
        gen = np.random.default_rng(3)
        raw = gen.uniform(0.01, 1.0, size=(200, 4))
        p = raw / raw.sum(axis=1, keepdims=True)
        y = gen.integers(0, 4, size=200)
        assert 0.0 <= single(p, y)["ece"] <= 1.0


def kl_of(member_probs):
    labels = np.zeros(np.shape(member_probs)[1], dtype=int)
    return accumulate(member_probs, labels)["kl_diversity"]


class TestKlDiversity:
    def test_identical_members_zero(self):
        p = np.full((3, 5, 4), 0.25)
        assert kl_of(p) == 0.0

    def test_hand_pair(self):
        mp = np.array([[[0.75, 0.25]], [[0.25, 0.75]]])
        # KL(p||q) = KL(q||p) = 0.5 ln 3 for this symmetric pair
        np.testing.assert_allclose(kl_of(mp), 0.5 * math.log(3.0),
                                   atol=1e-12)
        np.testing.assert_allclose(kl_of(mp), 0.5493, atol=1e-4)

    def test_member_order_invariance(self):
        gen = np.random.default_rng(4)
        raw = gen.uniform(0.05, 1.0, size=(4, 10, 3))
        mp = raw / raw.sum(axis=-1, keepdims=True)
        a = kl_of(mp)
        b = kl_of(mp[[2, 0, 3, 1]])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nonnegative(self):
        gen = np.random.default_rng(5)
        raw = gen.uniform(0.05, 1.0, size=(3, 20, 5))
        mp = raw / raw.sum(axis=-1, keepdims=True)
        assert kl_of(mp) >= 0.0

    def test_single_member_is_none(self):
        out = accumulate(np.full((1, 4, 2), 0.5), np.zeros(4, dtype=int))
        assert out["kl_diversity"] is None
        assert out["cosine_similarity"] is None
        assert out["normalized_disagreement"] is None


def pairwise_of(member_probs, labels):
    out = accumulate(member_probs, labels)
    return out["cosine_similarity"], out["normalized_disagreement"]


class TestPairDiversity:
    def test_identical_members(self):
        p = np.full((2, 6, 3), 1.0 / 3.0)
        y = np.zeros(6, dtype=int)
        cos, dis = pairwise_of(p, y)
        np.testing.assert_allclose(cos, 1.0, atol=1e-9)
        assert dis == 0.0

    def test_orthogonal_one_hots(self):
        mp = np.zeros((2, 4, 3))
        mp[0, :, 0] = 1.0
        mp[1, :, 1] = 1.0
        cos, _ = pairwise_of(mp, np.zeros(4, dtype=int))
        np.testing.assert_allclose(cos, 0.0, atol=1e-9)

    def test_hand_normalized_disagreement(self):
        # argmax differs on 1 of 4 inputs, mean member error 0.25 -> ratio 1
        mp = np.zeros((2, 4, 2))
        mp[:, :, 0] = 0.9
        mp[:, :, 1] = 0.1
        mp[1, 0] = [0.1, 0.9]  # the single disagreement, and member 1's error
        y = np.zeros(4, dtype=int)
        _, dis = pairwise_of(mp, y)
        # disagreement rate 0.25, mean member error (0 + 0.25)/2 = 0.125
        np.testing.assert_allclose(dis, 0.25 / 0.125, atol=1e-12)

    def test_perfect_members_zero_ratio(self):
        mp = np.zeros((2, 3, 2))
        mp[:, :, 0] = 1.0
        cos, dis = pairwise_of(mp, np.zeros(3, dtype=int))
        assert dis == 0.0


class TestOodMetrics:
    def test_perfect_separation(self):
        out = ood_metrics([0.1, 0.2], [0.3, 0.4])
        assert out["auc_roc"] == 1.0
        assert out["auc_pr"] == 1.0
        assert out["fpr95"] == 0.0

    def test_identical_distributions_near_half(self):
        gen = np.random.default_rng(6)
        a = gen.uniform(size=10_000)
        b = gen.uniform(size=10_000)
        out = ood_metrics(a, b)
        assert abs(out["auc_roc"] - 0.5) < 0.02

    def test_ties_counted_half(self):
        out = ood_metrics([0.5], [0.5])
        assert out["auc_roc"] == 0.5

    def test_reversed_separation(self):
        out = ood_metrics([0.8, 0.9], [0.1, 0.2])
        assert out["auc_roc"] == 0.0

    def test_matches_brute_force_rank_count(self):
        gen = np.random.default_rng(7)
        for _ in range(30):
            ins = gen.uniform(size=12).round(1)  # force some ties
            outs = gen.uniform(size=9).round(1)
            got = ood_metrics(ins, outs)["auc_roc"]
            wins = sum((o > i) + 0.5 * (o == i) for i in ins for o in outs)
            np.testing.assert_allclose(got, wins / (12 * 9), atol=1e-12)

    def test_fpr_at_tpr_hand(self):
        ins = np.array([0.1, 0.2, 0.3, 0.9])
        outs = np.array([0.25, 0.5, 0.6, 0.7, 0.8])
        # need ceil(0.95*5)=5 outs above threshold -> threshold 0.25
        # ins >= 0.25: {0.3, 0.9} -> fpr 0.5
        assert ood_metrics(ins, outs)["fpr95"] == 0.5

    def test_scores_from_probs(self):
        p = np.array([[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(ood_scores(p), [0.1, 0.5], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ood_metrics([], [0.5])


def _tie_groups(sorted_vals):
    """(i, j) bounds of each run of equal values, walked one at a time."""
    i, n = 0, len(sorted_vals)
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        yield i, j
        i = j + 1


def _loop_auc_roc(in_scores, out_scores):
    both = np.concatenate([in_scores, out_scores])
    order = np.argsort(both, kind="stable")
    ranks = np.empty(len(both), dtype=np.float64)
    for i, j in _tie_groups(both[order]):
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
    n_in, n_out = len(in_scores), len(out_scores)
    u = ranks[n_in:].sum() - n_out * (n_out + 1) / 2.0
    return float(u / (n_in * n_out))


def _loop_descending(in_scores, out_scores):
    """(tp, fp) after each tie group, accumulated as floats."""
    scores = np.concatenate([in_scores, out_scores])
    positive = np.concatenate([np.zeros(len(in_scores)),
                               np.ones(len(out_scores))])
    order = np.argsort(-scores, kind="stable")
    scores, positive = scores[order], positive[order]
    tp = fp = 0.0
    for i, j in _tie_groups(scores):
        tp += positive[i:j + 1].sum()
        fp += (j - i + 1) - positive[i:j + 1].sum()
        yield tp, fp


def _loop_auc_pr(in_scores, out_scores):
    n_pos = float(len(out_scores))
    ap = prev_recall = 0.0
    for tp, fp in _loop_descending(in_scores, out_scores):
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return float(ap)


def _loop_fpr95(in_scores, out_scores):
    """Share of in-scores at or above the ceil(0.95 n_out)-th largest
    out-score."""
    need = math.ceil(0.95 * len(out_scores))
    thresh = sorted(out_scores, reverse=True)[need - 1]
    return sum(1 for s in in_scores if s >= thresh) / len(in_scores)


class TestOodTieGroupsAgainstLoops:
    """ood_metrics, which reads one ranking, equals a loop per metric."""

    def _cases(self, seed, tied):
        gen = np.random.default_rng(seed)
        for _ in range(200):
            n_in, n_out = gen.integers(1, 80, size=2)
            if tied:  # a handful of distinct values, most scores tied
                levels = gen.integers(1, 6)
                ins = gen.integers(0, levels, n_in) / levels
                outs = gen.integers(0, levels, n_out) / levels
            else:
                ins, outs = gen.random(n_in), gen.random(n_out) + 0.3
            yield ins, outs

    @pytest.mark.parametrize("tied", [False, True])
    def test_bitwise_equal(self, tied):
        got, want = [], []
        for ins, outs in self._cases(11 + tied, tied):
            out = ood_metrics(ins, outs)
            got.append([out["auc_roc"], out["auc_pr"], out["fpr95"]])
            want.append([_loop_auc_roc(ins, outs), _loop_auc_pr(ins, outs),
                         _loop_fpr95(ins, outs)])
        np.testing.assert_array_equal(got, want)


class TestFewshotProbe:
    def gaussian_features(self, gen, m, n_per_class, s, gap=4.0):
        n = 2 * n_per_class
        y = np.repeat([0, 1], n_per_class)
        order = gen.permutation(n)
        y = y[order]
        feats = gen.normal(size=(m, n, s))
        feats[:, y == 1, 0] += gap
        return feats, y

    def test_separable_two_class(self):
        gen = np.random.default_rng(8)
        feats, y = self.gaussian_features(gen, m=1, n_per_class=100, s=8)
        err = fewshot_probe(feats, y, shots=25)
        assert err < 5.0

    def test_duplicated_members_match_single(self):
        gen = np.random.default_rng(10)
        feats, y = self.gaussian_features(gen, m=1, n_per_class=60, s=6)
        dup = np.concatenate([feats, feats], axis=0)
        a = fewshot_probe(feats, y, shots=20)
        b = fewshot_probe(dup, y, shots=20)
        assert abs(a - b) < 2.0

    def test_insufficient_shots_rejected(self):
        gen = np.random.default_rng(12)
        feats, y = self.gaussian_features(gen, m=1, n_per_class=5, s=4)
        with pytest.raises(ConfigError):
            fewshot_probe(feats, y, shots=10)

    @pytest.mark.parametrize("shots", [0, -1])
    def test_nonpositive_shots_rejected(self, shots):
        # [:shots] would train on every example but the last |shots|
        gen = np.random.default_rng(13)
        feats, y = self.gaussian_features(gen, m=1, n_per_class=10, s=4)
        with pytest.raises(ConfigError, match="shots"):
            fewshot_probe(feats, y, shots=shots)


def random_members(gen, m, n, c):
    raw = gen.uniform(0.05, 1.0, size=(m, n, c))
    return raw / raw.sum(axis=-1, keepdims=True)


def oracle_metrics(mp, y):
    """Each metric's definition written out in numpy, one pair at a time."""
    m, n, _ = mp.shape
    ens = mp.mean(axis=0)
    pred = np.argmax(ens, axis=1)
    conf = ens.max(axis=1)
    idx = np.minimum((conf * ECE_BINS).astype(int), ECE_BINS - 1)
    ece = 0.0
    for b in range(ECE_BINS):
        sel = idx == b
        if sel.any():
            ece += sel.mean() * abs(np.mean(pred[sel] == y[sel])
                                    - conf[sel].mean())
    kl = [np.sum(mp[a] * np.log(mp[a] / mp[b]), axis=1)
          for a in range(m) for b in range(m) if a != b]
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    norms = np.linalg.norm(mp, axis=-1)
    cos = [np.sum(mp[a] * mp[b], axis=1) / (norms[a] * norms[b])
           for a, b in pairs]
    preds = np.argmax(mp, axis=-1)
    disagree = np.mean([preds[a] != preds[b] for a, b in pairs])
    return {"nll": math.fsum(-np.log(ens[np.arange(n), y])) / n,
            "error_pct": 100.0 * float(np.mean(pred != y)),
            "ece": ece, "kl_diversity": np.mean(kl),
            "cosine_similarity": np.mean(cos),
            "normalized_disagreement": disagree / np.mean(preds != y)}


class TestAccumulator:
    def test_matches_direct_functions(self):
        gen = np.random.default_rng(13)
        mp = random_members(gen, 3, 40, 4)
        y = gen.integers(0, 4, size=40)
        acc = MetricAccumulator()
        acc.add_batch(mp, y)
        out = acc.result()
        want = oracle_metrics(mp, y)
        assert out["nll"] == want["nll"]
        assert out["error_pct"] == want["error_pct"]
        for key in ("ece", "kl_diversity", "cosine_similarity",
                    "normalized_disagreement"):
            np.testing.assert_allclose(out[key], want[key], atol=1e-15,
                                       err_msg=key)

    def test_merge_equals_single_pass(self):
        gen = np.random.default_rng(14)
        mp = random_members(gen, 2, 30, 3)
        y = gen.integers(0, 3, size=30)
        whole = MetricAccumulator()
        whole.add_batch(mp, y)
        a, b = MetricAccumulator(), MetricAccumulator()
        a.add_batch(mp[:, :13], y[:13])
        b.add_batch(mp[:, 13:], y[13:])
        merged = a.merge(b).result()
        assert merged == whole.result()

    def test_shard_order_does_not_matter(self):
        gen = np.random.default_rng(15)
        mp = random_members(gen, 2, 24, 3)
        y = gen.integers(0, 3, size=24)
        a, b = MetricAccumulator(), MetricAccumulator()
        a.add_batch(mp[:, :8], y[:8])
        b.add_batch(mp[:, 8:], y[8:])
        ab = a.merge(b).result()
        ba = b.merge(a).result()
        for key in ("nll", "error_pct", "ece", "kl_diversity"):
            assert ab[key] == ba[key]

    def test_member_count_change_rejected(self):
        gen = np.random.default_rng(16)
        acc = MetricAccumulator()
        acc.add_batch(random_members(gen, 2, 4, 3),
                      gen.integers(0, 3, size=4))
        with pytest.raises(ConfigError):
            acc.add_batch(random_members(gen, 3, 4, 3),
                          gen.integers(0, 3, size=4))

    def test_empty_result_rejected(self):
        with pytest.raises(ConfigError):
            MetricAccumulator().result()

    def test_jensen_ensemble_vs_members(self):
        gen = np.random.default_rng(17)
        for _ in range(20):
            mp = random_members(gen, 3, 16, 4)
            y = gen.integers(0, 4, size=16)
            acc = MetricAccumulator()
            acc.add_batch(mp, y)
            out = acc.result()
            assert out["nll"] <= out["member_nll"] + 1e-12
