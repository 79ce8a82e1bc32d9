"""BEV-to-voxel lifting.

A flat BEV map is expanded back to a 3D voxel tensor by pairing a per-cell
context vector with a predicted height distribution: the voxel feature at
height z is the context feature scaled by the cell's probability of mass at
z. The height distribution is a softmax, so summing the lifted volume over
height recovers the context map exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Conv, conv, conv_init, rng_named, softmax, upsample2x


@dataclass(frozen=True)
class BVLWeights:
    """Context conv (C_in -> C_out) and height conv (C_in -> Z), both 2D:
    ``seeded`` builds 1x1 kernels."""

    context: Conv
    height: Conv

    @classmethod
    def seeded(cls, seed: int, name: str, c_in: int, c_out: int, n_heights: int):
        rng = rng_named(seed, name)
        return cls(
            conv_init(rng, c_out, c_in, (1, 1)),
            conv_init(rng, n_heights, c_in, (1, 1)),
        )


def predict_height(b: np.ndarray, weights: BVLWeights) -> np.ndarray:
    """Per-cell height distribution: (Z, X, Y), softmax over the height axis."""
    return softmax(conv(b, *weights.height), axis=0)


def bev_to_voxel_lift(b: np.ndarray, weights: BVLWeights) -> np.ndarray:
    """Lift (C_in, X, Y) to (C_out, X, Y, Z).

    out[c, x, y, z] = context[c, x, y] * height[z, x, y]. Since the height
    distribution sums to one per cell, the volume's height-sum reproduces the
    context map.
    """
    ctx = conv(b, *weights.context)
    hgt = predict_height(b, weights)
    return np.einsum("cxy,zxy->cxyz", ctx, hgt)


def fuse_and_upsample(v_g: np.ndarray, v_s: np.ndarray, upsample: Conv) -> np.ndarray:
    """Sum the geometric and semantic volumes and double every spatial extent
    by the exact 2x transpose conv ``upsample``."""
    if v_g.shape != v_s.shape:
        raise ValueError(f"volume shapes differ: {v_g.shape} vs {v_s.shape}")
    return upsample2x(v_g + v_s, *upsample)
