"""Sparse mixture-of-experts transformers and efficient ensembles.

The package builds small vision transformers whose MLP blocks can be
replaced by sparsely routed expert mixtures, and layers several ensemble
mechanisms on top: partitioned batch ensembles that tile the batch across
expert groups, multi-head routing, rank-1 batch ensembles, MC-dropout,
multi-input multi-output heads, and plain deep ensembles.  Everything is
numpy-based with a minimal reverse-mode autodiff core, so every number a
test asserts can be recomputed by hand or by a brute-force oracle.

Companion pieces: an analytic FLOPs model, calibration/diversity/OOD
metrics, performance-versus-compute analyzers, and a CLI (``moelab``)
that runs deterministic experiments from JSON configs.  Import from the
submodules (``moelab.model``, ``moelab.trainer``, ...): the package itself
re-exports nothing.
"""

__version__ = "0.1.0"
