"""Training objective: member-averaged cross-entropy plus balance regularizers.

The auxiliary losses follow the coefficient-of-variation lineage: importance
is CV^2 of per-expert softmax mass under the clean logits, load is CV^2 of a
smoothed count of how often each expert would survive the noisy top-K.  Both
are computed per router block (per member in the partitioned case), averaged
into a single Omega per layer, then averaged across MoE layers and weighted
by aux_weight.

The cross-entropy is one tape node, and so is each MoE layer's Omega.  Each
computes in numpy the expressions, in the order, of the composition of
generic ops it replaces (tests/oracles.py keeps those as references), and
its hand-written backward reproduces that tape's gradient expressions and
accumulation order, so values and gradients are bitwise the composition's.
Two orders fix the bits.  In a CV^2's backward the mean receives three
terms: the one from v - mean first, then the two from mean * mean.  And a
router block's clean logits receive the importance gradient and the load
gradient as two separate _accum calls, in that order, not their sum, so
that the gate's own gradient still lands where the tape put it: before both
in the last MoE layer, after both in the others.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import Record
from .errors import ConfigError
from .metrics import PROB_FLOOR
from .routing import RoutingDecision, _topk_desc
from .tensor import Tensor, _node, _pdf, _phi, _softmax, _softmax_backward

CV_FLOOR = 1e-24  # guards the squared mean a CV^2 divides by


@dataclass
class LossConfig(Record):
    aux_weight: float = 0.1
    loss_mode: str = "member_avg"  # or "ensemble_ce"

    def __post_init__(self):
        if self.aux_weight < 0:
            raise ConfigError("aux_weight must be >= 0")
        if self.loss_mode not in ("member_avg", "ensemble_ce"):
            raise ConfigError(f"unknown loss_mode {self.loss_mode!r}")


def check_loss_mode(variant: str, mode: str) -> None:
    """Reject ensemble_ce for mimo: its members carry different labels, so
    a cross-entropy of the member mean against one label per row is
    undefined."""
    if variant == "mimo" and mode == "ensemble_ce":
        raise ConfigError("loss_mode ensemble_ce is undefined for variant "
                          "mimo, whose members carry different labels")


@dataclass
class AuxLossState:
    """Balance-loss inputs for one MoE layer.

    members holds one (clean_logits, noisy_logits) pair per router block;
    clean stays on the tape, noisy is the realized constant draw.  sigma is
    the noise scale actually applied (0 when noise was off).
    """

    members: list
    sigma: float
    k: int

    @classmethod
    def from_decision(cls, decision: RoutingDecision) -> "AuxLossState":
        return cls(members=decision.member_logits, sigma=decision.sigma, k=decision.k)


def member_avg_cross_entropy(member_probs: Tensor, labels, *,
                             mode: str = "member_avg") -> Tensor:
    """(1/M) sum_m mean_b -log p_m(y_b), or -log mean_m p_m(y_b) for
    ensemble_ce, as one tape node; labels may be (B,) or, for member_avg,
    (M, B).

    Probabilities at the true label are clamped at PROB_FLOOR (with a
    warning) before the log, and no gradient passes where they were.
    """
    probs = member_probs.data
    m, b, c = probs.shape
    labels = np.asarray(labels)
    if mode == "ensemble_ce":
        table = probs.mean(axis=0)
        cols = labels.reshape(-1, 1)
    else:
        table = probs.reshape(m * b, c)
        cols = np.broadcast_to(labels, (m, b)).reshape(m * b, 1)
    rows = np.arange(table.shape[0])[:, None]
    picked = table[rows, cols]
    if np.any(picked < PROB_FLOOR):
        warnings.warn("zero probability at true label; clamped at 1e-12")
    kept = np.maximum(picked, PROB_FLOOR)
    out = np.log(kept).mean() * -1.0

    def backward(grad):
        g = np.broadcast_to(grad * -1.0, picked.shape) / picked.size
        g = g / kept
        g = g * (picked > PROB_FLOOR)
        g_table = np.zeros_like(table)  # add.at into zeros: -0.0 lands as 0.0
        np.add.at(g_table, (rows, cols), g)
        if mode == "ensemble_ce":
            member_probs._accum(np.broadcast_to(g_table, probs.shape) / m)
        else:
            member_probs._accum(g_table.reshape(probs.shape))

    return _node(out, (member_probs,), backward)


def _cv_squared(v: np.ndarray):
    """(population std / mean)^2 of v with a guarded denominator, and its
    backward, which maps the gradient of the value to that of v."""
    mu = v.mean()
    centered = v - mu
    var = (centered * centered).mean()
    mu_sq = mu * mu
    den = np.maximum(mu_sq, CV_FLOOR)

    def backward(g):
        g_sq = g / den / v.size
        g_mu_sq = -g * var / (den * den) * (mu_sq > CV_FLOOR)
        g_c = g_sq * centered
        g_c = g_c + g_c  # both factors of centered * centered
        g_mu = (-g_c).sum()
        g_mu = g_mu + g_mu_sq * mu
        g_mu = g_mu + g_mu_sq * mu
        return g_c + g_mu / v.size

    return var / den, backward


def _block_omega(clean: np.ndarray, noisy: np.ndarray, sigma: float,
                 k: int):
    """(importance + load) / 2 of one router block, and its backward, which
    maps the gradient of the importance and load CV^2s to the list of
    gradients of the clean logits, importance first.

    Importance is CV^2 of imp_e = sum_b softmax(clean)[b, e].  Load is CV^2
    of the smoothed count sum_i Phi((clean_{i,e} - tau_{i,e}) / sigma), with
    tau the K-th largest noisy logit among the OTHER experts of token i.
    sigma = 0 falls back to hard top-K membership counts (a constant, so no
    gradient), and K = E selects every expert always, so the load is uniform
    and its CV^2 0.  The hard count ranks by the gate's top-K rule, since
    its ties decide which expert is counted; the smooth count reads only the
    K-th and (K+1)-th largest values, which no tie rule changes, so a plain
    sort finds them.
    """
    p = _softmax(clean, -1)
    imp, imp_backward = _cv_squared(p.sum(axis=0))
    e = noisy.shape[1]
    lod, lod_backward = 0.0, None
    if k < e and sigma <= 0.0:
        top = _topk_desc(noisy, k)
        lod, _ = _cv_squared(np.bincount(top.reshape(-1), minlength=e)
                             .astype(np.float64))
    elif k < e:
        desc = -np.sort(-noisy, axis=1)
        kth = desc[:, k - 1:k]       # K-th largest including self
        kth_next = desc[:, k:k + 1]  # (K+1)-th largest
        # if e sits in the top K, removing it promotes the (K+1)-th largest
        tau = np.where(noisy >= kth, kth_next, kth)
        inv_sigma = 1.0 / sigma
        z = (clean - tau) * inv_sigma
        lod, lod_backward = _cv_squared(_phi(z).sum(axis=0))

    def backward(g):
        grads = [_softmax_backward(p, imp_backward(g), -1)]
        if lod_backward is not None:
            grads.append(lod_backward(g) * _pdf(z) * inv_sigma)
        return grads

    return (imp + lod) * 0.5, backward


def omega_partition(aux: AuxLossState) -> Tensor:
    """Mean over router blocks of (importance + load) / 2, as one tape node
    whose parents are the blocks' clean logits."""
    cleans = [clean for clean, _ in aux.members]
    total, backwards = None, []
    for clean, noisy in aux.members:
        omega_m, backward_m = _block_omega(clean.data, noisy, aux.sigma,
                                           aux.k)
        total = omega_m if total is None else total + omega_m
        backwards.append(backward_m)
    scale = 1.0 / len(aux.members)

    def backward(grad):
        g = grad * scale * 0.5
        for clean, backward_m in zip(cleans, backwards):
            for g_clean in backward_m(g):
                clean._accum(g_clean)

    return _node(total * scale, tuple(cleans), backward)


def total_loss(data_loss: Tensor, aux_states: list, aux_weight: float) -> Tensor:
    """data_loss + aux_weight * mean over MoE layers of omega_partition."""
    if not aux_states or aux_weight == 0.0:
        return data_loss
    acc = None
    for aux in aux_states:
        om = omega_partition(aux)
        acc = om if acc is None else acc + om
    return data_loss + (aux_weight / len(aux_states)) * acc
