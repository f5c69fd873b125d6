"""Finite-difference verification of tape gradients.

The closure under test must be deterministic: any stochastic draw inside it
has to come from a fixed (seed, tags) address so that every re-evaluation
sees identical noise.
"""

from __future__ import annotations

import numpy as np

from .errors import EvaluationError
from .tensor import Tensor, no_grad


def finite_difference_check(fn, params, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `fn` is a zero-argument closure returning a scalar Tensor loss; `params`
    are the Tensors whose gradients are checked, element by element.  The
    relative error of an element is |a - n| / max(|a| + |n|, 1e-6).  The
    perturbed re-evaluations read only the loss value, so they build no tape.
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
