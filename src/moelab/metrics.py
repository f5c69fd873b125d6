"""Evaluation metrics: NLL, error, calibration, diversity, OOD, few-shot.

MetricAccumulator is the one implementation of NLL, error, ECE and the
member-diversity metrics, which come from one loop over member pairs;
every report reads them from its result().  The three OOD metrics read
one ranking of the scores.
Accumulation is order-independent by construction: every per-example value
goes into its term's list (add_batch alone names the terms) and totals are
taken with math.fsum, which returns the correctly rounded sum of the
multiset regardless of arrival order.  Two accumulators merge by
concatenation, so sharded evaluation reproduces the sequential result
exactly.  EvalReport's fields are the report's keys.  losses.py shares
PROB_FLOOR, the floor under every log of a probability.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .tensor import Tensor

PROB_FLOOR = 1e-12
ECE_BINS = 15  # equal-width confidence bins


def _as_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _member_pair_terms(mp: np.ndarray, preds: np.ndarray) -> dict:
    """Per-example kl, cos and dis terms, from one loop over member pairs.

    kl is the mean over ordered pairs (a, b != a) of KL(p_a || p_b); cos
    (cosine similarity) and dis (top-1 disagreement) are means over the
    pairs a < b.  preds holds each member's argmax.
    """
    m = mp.shape[0]
    q = np.clip(mp, PROB_FLOOR, None)
    logq = np.log(q)
    norms = np.linalg.norm(mp, axis=-1)
    kl, cos, dis = (np.zeros(mp.shape[1], dtype=np.float64) for _ in range(3))
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            kl += np.sum(q[a] * (logq[a] - logq[b]), axis=-1)
            if a < b:
                denom = np.maximum(norms[a] * norms[b], PROB_FLOOR)
                cos += np.sum(mp[a] * mp[b], axis=-1) / denom
                dis += preds[a] != preds[b]
    pairs = m * (m - 1) // 2
    return {"kl": kl / (2 * pairs), "cos": cos / pairs, "dis": dis / pairs}


def ood_scores(ensemble_probs) -> np.ndarray:
    """OOD-ness score per example: 1 - max ensemble probability."""
    p = _as_array(ensemble_probs)
    return 1.0 - p.max(axis=1)


def _tie_group_counts(in_scores, out_scores) -> tuple:
    """(tp, fp) with OOD as the positive class, at each threshold.

    Scores are taken in descending order and every run of equal scores is
    one threshold; tp and fp are the exact int64 counts of out- and
    in-scores at or above it.
    """
    scores = np.concatenate([in_scores, out_scores])
    positive = np.concatenate([np.zeros(len(in_scores), dtype=np.int64),
                               np.ones(len(out_scores), dtype=np.int64)])
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    last = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
    tp = np.cumsum(positive[order])[last]
    return tp, last + 1 - tp


def ood_metrics(in_scores, out_scores) -> dict:
    """{auc_roc, auc_pr, fpr95} for OOD-ness scores (higher = more OOD).

    All three read one ranking, the tie-group counts.  auc_roc is the
    trapezoid area under the ROC steps, the Mann-Whitney P(out > in) with
    ties counted half: its integer sum is exactly 2U, so one division
    rounds it.  auc_pr is average precision with OOD as the positive
    class.  fpr95, the false-positive rate at 95% true-positive rate, is
    read at the first group reaching ceil(0.95 * n_out) out-scores: that
    group holds the threshold, and its fp counts the in-scores at or
    above it.
    """
    ins = np.asarray(in_scores, dtype=np.float64)
    outs = np.asarray(out_scores, dtype=np.float64)
    if len(ins) == 0 or len(outs) == 0:
        raise ConfigError("need both in- and out-of-distribution scores")
    n_in, n_out = len(ins), len(outs)
    tp, fp = _tie_group_counts(ins, outs)
    two_u = int(np.sum(np.diff(fp, prepend=0) * (np.append(0, tp[:-1]) + tp)))
    recall = tp / n_out
    precision = tp / (tp + fp)
    # cumsum adds strictly left to right; np.sum would pair terms up and
    # round differently
    auc_pr = np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1]
    g = np.searchsorted(tp, math.ceil(0.95 * n_out))
    return {"auc_roc": two_u / (2 * n_in * n_out),
            "auc_pr": float(auc_pr),
            "fpr95": float(fp[g] / n_in)}


def fewshot_probe(features, labels, shots: int) -> float:
    """Ridge-regression linear probe on frozen features; returns error %.

    features is (M, N, S).  The first `shots` examples of each class (in
    input order) train the probe; the rest are evaluated.  The M member
    features of an example are stacked into one M*S-wide input, so one
    probe sees every member.  A constant bias column is appended, and the
    ridge penalty, 1e-3 times the M*S feature width, regularizes it with
    the rest.
    """
    if shots < 1:
        raise ConfigError("shots must be >= 1")
    feats = _as_array(features)
    if feats.ndim != 3:
        raise ConfigError("features must be (members, examples, dim)")
    y = np.asarray(labels)
    m, n, s = feats.shape
    classes = int(y.max()) + 1
    train_idx = []
    for c in range(classes):
        idx = np.flatnonzero(y == c)[:shots]
        if len(idx) < shots:
            raise ConfigError(f"class {c} has fewer than {shots} examples")
        train_idx.append(idx)
    train_idx = np.sort(np.concatenate(train_idx))
    eval_mask = np.ones(n, dtype=bool)
    eval_mask[train_idx] = False
    if not eval_mask.any():
        raise ConfigError("no held-out examples left to evaluate")
    onehot = np.eye(classes)[y[train_idx]]

    stacked = feats.transpose(1, 0, 2).reshape(n, m * s)
    x_train = np.concatenate([stacked[train_idx],
                              np.ones((len(train_idx), 1))], 1)
    x_eval = np.concatenate([stacked[eval_mask],
                             np.ones((int(eval_mask.sum()), 1))], 1)
    gram = x_train.T @ x_train + 1e-3 * (m * s) * np.eye(m * s + 1)
    w = np.linalg.solve(gram, x_train.T @ onehot)
    pred = np.argmax(x_eval @ w, axis=1)
    return 100.0 * float(np.mean(pred != y[eval_mask]))


class MetricAccumulator:
    """Order-independent accumulator for the core prediction metrics.

    Per-example terms are kept in lists; result() reduces them with fsum.
    merge() concatenates, so any sharding of the eval set gives bit-equal
    totals.
    """

    def __init__(self):
        self.n_members = None
        self._terms = defaultdict(list)  # term name -> per-example values

    def add_batch(self, member_probs, labels) -> None:
        mp = _as_array(member_probs)
        y = np.asarray(labels)
        m = mp.shape[0]
        if self.n_members is None:
            self.n_members = m
        elif self.n_members != m:
            raise ConfigError("member count changed between batches")
        ens = mp.mean(axis=0)
        picked = np.clip(ens[np.arange(len(y)), y], PROB_FLOOR, None)
        mem_picked = np.clip(mp[:, np.arange(len(y)), y], PROB_FLOOR, None)
        conf = ens.max(axis=1)
        terms = {
            "nll": -np.log(picked),
            "member_nll": (-np.log(mem_picked)).mean(axis=0),
            "correct": (np.argmax(ens, 1) == y).astype(float),
            "conf": conf,
            "bin": np.minimum((conf * ECE_BINS).astype(int), ECE_BINS - 1),
        }
        if m >= 2:
            preds = np.argmax(mp, axis=-1)
            terms.update(_member_pair_terms(mp, preds))
            terms["member_err"] = (preds != y).astype(float).mean(axis=0)
        for name, values in terms.items():
            self._terms[name].extend(values.tolist())

    def merge(self, other: "MetricAccumulator") -> "MetricAccumulator":
        if (self.n_members is not None and other.n_members is not None
                and self.n_members != other.n_members):
            raise ConfigError("member counts differ")
        out = MetricAccumulator()
        out.n_members = self.n_members or other.n_members
        for name in self._terms.keys() | other._terms.keys():
            out._terms[name] = self._terms[name] + other._terms[name]
        return out

    @property
    def count(self) -> int:
        return len(self._terms["nll"])

    def result(self) -> dict:
        """Metrics of the ensemble (the member mean) over every example.

        nll is the mean -log p(y) and error_pct is 100 * (1 - top-1
        accuracy), with argmax ties broken toward the lowest class index.
        ece is the expected calibration error over ECE_BINS equal-width
        confidence bins, and member_nll the members' mean NLL.  With 2 or
        more members, kl_diversity is the mean over ordered pairs m != m'
        of KL(p_m || p_m'), cosine_similarity the mean pairwise cosine, and
        normalized_disagreement the pair-averaged rate at which two members
        pick different classes divided by the mean member error rate, or 0
        when that rate is 0: every member is then right on every example,
        so no two disagree.  With one member the three are None.
        """
        n = self.count
        if n == 0:
            raise ConfigError("no examples accumulated")
        t = self._terms
        nll = math.fsum(t["nll"]) / n
        err = 100.0 * (1.0 - math.fsum(t["correct"]) / n)
        bins = np.asarray(t["bin"])
        conf = np.asarray(t["conf"])
        correct = np.asarray(t["correct"])
        total = 0.0
        for b in range(ECE_BINS):
            sel = bins == b
            nb = int(sel.sum())
            if nb == 0:
                continue
            acc = math.fsum(correct[sel]) / nb
            avg = math.fsum(conf[sel]) / nb
            total += (nb / n) * abs(acc - avg)
        out = {"nll": nll, "error_pct": err, "ece": float(total),
               "member_nll": math.fsum(t["member_nll"]) / n,
               "kl_diversity": None, "cosine_similarity": None,
               "normalized_disagreement": None}
        if t["kl"]:
            out["kl_diversity"] = math.fsum(t["kl"]) / n
            out["cosine_similarity"] = math.fsum(t["cos"]) / n
            mean_dis = math.fsum(t["dis"]) / n
            mean_err = math.fsum(t["member_err"]) / n
            out["normalized_disagreement"] = (
                0.0 if mean_err == 0.0 else mean_dis / mean_err)
        return out


@dataclass
class EvalReport:
    """One evaluation's metrics; None marks metrics that do not apply."""

    nll: float
    error_pct: float
    ece: float
    kl_diversity: float | None = None
    cosine_similarity: float | None = None
    normalized_disagreement: float | None = None
    flops_train_giga: float | None = None
    ood: dict = field(default_factory=dict)
    fewshot: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fewshot"] = {str(k): v for k, v in self.fewshot.items()}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)
