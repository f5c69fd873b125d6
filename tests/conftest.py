"""Shared test references."""

from unittest import mock

import numpy as np
import pytest

from moelab.model import ModelSpec, forward


def _naive_forward(model, images, rng, **kwargs):
    """forward with the batch tiled up front ("naive" tiling).

    model.forward tiles the batch M times right before the first MoE/BE
    block's MLP.  This reference tiles the images before the embedding
    instead and runs forward with tile_factor patched to 1, so no block
    tiles again.  Every op before that MLP is row-independent, so the two
    must agree bit for bit.
    """
    x = np.concatenate([images] * model.spec.tile_factor)
    with mock.patch.object(ModelSpec, "tile_factor", 1):
        return forward(model, x, rng, **kwargs)


@pytest.fixture
def naive_forward():
    return _naive_forward
