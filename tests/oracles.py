"""Test-side references the tests compare the package against.

finite_difference_check checks tape gradients against central
differences; BeMoeView reads a batch-ensemble layer as a sparse MoE
(Appendix F), the other side of the BE/MoE equivalence.
"""

import numpy as np

from moelab.errors import ConfigError, EvaluationError
from moelab.layers import BatchEnsembleDense
from moelab.tensor import Tensor, no_grad


def finite_difference_check(fn, params, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `fn` is a zero-argument closure returning a scalar Tensor loss; `params`
    are the Tensors whose gradients are checked, element by element.  The
    relative error of an element is |a - n| / max(|a| + |n|, 1e-6).  The
    perturbed re-evaluations read only the loss value, so they build no tape.
    `fn` must be deterministic: a stochastic draw inside it comes from a
    fixed (seed, tags) address, so every re-evaluation sees the same noise.
    """
    for p in params:
        if not isinstance(p, Tensor) or not p.requires_grad:
            raise ValueError("params must be Tensors with requires_grad=True")
        p.grad = None
    loss = fn()
    if not np.all(np.isfinite(loss.data)):
        raise EvaluationError("loss is not finite at the evaluation point")
    loss.backward()
    analytic = [
        (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params
    ]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = float(fn().data)
                flat[i] = orig - eps
                fm = float(fn().data)
                flat[i] = orig
                numeric[i] = (fp - fm) / (2.0 * eps)
        an = a.reshape(-1)
        rel = np.abs(an - numeric) / np.maximum(np.abs(an) + np.abs(numeric), 1e-6)
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
    return worst


class BeMoeView:
    """Appendix-F reading of a batch-ensemble layer as a sparse MoE.

    E = M experts; expert e's weight is the materialized U * (r_e s_e^T);
    the gate for tiled row i is binary: 1 on the row's own member, 0
    elsewhere.  Forward computes the full mixture sum_e g_e * expert_e(h),
    which the binary gates collapse to the member's expert.
    """

    def __init__(self, be: BatchEnsembleDense):
        self.m = be.m
        self.expert_weights = [
            be.u.data * np.outer(be.r[mm].data, be.s[mm].data) for mm in range(be.m)
        ]

    def gates(self, n_rows: int) -> np.ndarray:
        if n_rows % self.m != 0:
            raise ConfigError(f"row count {n_rows} not divisible by M={self.m}")
        b = n_rows // self.m
        g = np.zeros((n_rows, self.m))
        for mm in range(self.m):
            g[mm * b:(mm + 1) * b, mm] = 1.0
        return g

    def forward(self, h_tiled) -> np.ndarray:
        h = h_tiled.data if isinstance(h_tiled, Tensor) else np.asarray(h_tiled)
        g = self.gates(h.shape[0])
        out = np.zeros((h.shape[0], self.expert_weights[0].shape[1]))
        for e in range(self.m):
            out = out + g[:, e:e + 1] * (h @ self.expert_weights[e])
        return out
