"""Training objective: member-averaged cross-entropy plus balance regularizers.

The auxiliary losses follow the coefficient-of-variation lineage: importance
is CV^2 of per-expert softmax mass under the clean logits, load is CV^2 of a
smoothed count of how often each expert would survive the noisy top-K.  Both
are computed per router block (per member in the partitioned case), averaged
into a single Omega per layer, then averaged across MoE layers and weighted
by aux_weight.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import Record
from .errors import ConfigError
from .metrics import PROB_FLOOR
from .routing import RoutingDecision, _topk_desc
from .tensor import (Tensor, clamp_min, log, normal_cdf, reshape, softmax,
                     take_cols, tmean, tsum)


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


def _gather_label_probs(member_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Pick p_m(y_b) for every member row; labels may be (B,) or (M, B)."""
    m, b, c = member_probs.data.shape
    labels = np.asarray(labels)
    if labels.ndim == 1:
        labels = np.broadcast_to(labels, (m, b))
    flat = reshape(member_probs, (m * b, c))
    return take_cols(flat, labels.reshape(m * b, 1))


def member_avg_cross_entropy(member_probs: Tensor, labels, *,
                             mode: str = "member_avg") -> Tensor:
    """(1/M) sum_m mean_b -log p_m(y_b), or -log mean_m p_m(y_b) for ensemble_ce.

    Probabilities at the true label are clamped at 1e-12 (with a warning)
    before the log.
    """
    if mode == "ensemble_ce":
        ens = tmean(member_probs, axis=0)
        picked = take_cols(ens, np.asarray(labels).reshape(-1, 1))
    else:
        picked = _gather_label_probs(member_probs, labels)
    if np.any(picked.data < PROB_FLOOR):
        warnings.warn("zero probability at true label; clamped at 1e-12")
    return -tmean(log(clamp_min(picked, PROB_FLOOR)))


def _cv_squared(v: Tensor) -> Tensor:
    """(population std / mean)^2 with a guarded denominator."""
    mu = tmean(v)
    centered = v - mu
    var = tmean(centered * centered)
    return var / clamp_min(mu * mu, 1e-24)


def importance_loss(clean_softmax: Tensor) -> Tensor:
    """CV^2 of per-expert importance imp_e = sum_b softmax[b, e]."""
    return _cv_squared(tsum(clean_softmax, axis=0))


def load_loss(clean_logits: Tensor, noisy_logits: np.ndarray, sigma: float,
              k: int) -> Tensor:
    """CV^2 of the smoothed per-expert selection count.

    p_{i,e} = Phi((clean_{i,e} - tau_{i,e}) / sigma) with tau the K-th largest
    noisy logit among the OTHER experts of token i.  sigma = 0 falls back to
    hard top-K membership counts (a constant, so no gradient).  K = E means
    every expert is always selected: the load is uniform and the loss 0.
    The hard count ranks by the gate's top-K rule, since its ties decide
    which expert is counted; the smooth count reads only the K-th and
    (K+1)-th largest values, which no tie rule changes, so a plain sort
    finds them.
    """
    e = noisy_logits.shape[1]
    if k >= e:
        return Tensor(0.0)
    if sigma <= 0.0:
        top = _topk_desc(noisy_logits, k)
        return _cv_squared(Tensor(np.bincount(top.reshape(-1), minlength=e)))
    desc = -np.sort(-noisy_logits, axis=1)
    kth = desc[:, k - 1:k]       # K-th largest including self
    kth_next = desc[:, k:k + 1]  # (K+1)-th largest
    in_topk = noisy_logits >= kth
    # if e sits in the top K, removing it promotes the (K+1)-th largest
    tau = np.where(in_topk, kth_next, kth)
    z = (clean_logits - Tensor(tau)) * (1.0 / sigma)
    load = tsum(normal_cdf(z), axis=0)
    return _cv_squared(load)


def omega_partition(aux: AuxLossState) -> Tensor:
    """Mean over router blocks of (importance + load) / 2."""
    total = None
    for clean, noisy in aux.members:
        imp = importance_loss(softmax(clean, axis=-1))
        lod = load_loss(clean, noisy, aux.sigma, aux.k)
        omega_m = (imp + lod) * 0.5
        total = omega_m if total is None else total + omega_m
    return total * (1.0 / len(aux.members))


def total_loss(data_loss: Tensor, aux_states: list, aux_weight: float) -> Tensor:
    """data_loss + aux_weight * mean over MoE layers of omega_partition."""
    if not aux_states or aux_weight == 0.0:
        return data_loss
    acc = None
    for aux in aux_states:
        om = omega_partition(aux)
        acc = om if acc is None else acc + om
    return data_loss + (aux_weight / len(aux_states)) * acc
