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

from .tensor import conv, conv_init, rng_named, softmax, uniform_init, upsample2x


@dataclass(frozen=True)
class BVLWeights:
    """Context conv (C_in -> C_out) and height conv (C_in -> Z), both 2D:
    ``seeded`` builds 1x1 kernels."""

    context_w: np.ndarray
    context_b: np.ndarray
    height_w: np.ndarray
    height_b: np.ndarray

    @classmethod
    def seeded(cls, seed: int, name: str, c_in: int, c_out: int, n_heights: int):
        rng = rng_named(seed, name)
        return cls(
            *conv_init(rng, c_out, c_in, (1, 1)),
            *conv_init(rng, n_heights, c_in, (1, 1)),
        )


def predict_height(b: np.ndarray, weights: BVLWeights) -> np.ndarray:
    """Per-cell height distribution: (Z, X, Y), softmax over the height axis."""
    logits = conv(b, weights.height_w, weights.height_b)
    return softmax(logits, axis=0)


def bev_to_voxel_lift(b: np.ndarray, weights: BVLWeights) -> np.ndarray:
    """Lift (C_in, X, Y) to (C_out, X, Y, Z).

    out[c, x, y, z] = context[c, x, y] * height[z, x, y]. Since the height
    distribution sums to one per cell, the volume's height-sum reproduces the
    context map.
    """
    ctx = conv(b, weights.context_w, weights.context_b)
    hgt = predict_height(b, weights)
    return np.einsum("cxy,zxy->cxyz", ctx, hgt)


@dataclass(frozen=True)
class UpsampleWeights:
    """Exact 2x voxel upsample: transpose conv, stride 2, kernel 2."""

    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def seeded(cls, seed: int, channels: int):
        rng = rng_named(seed, "voxel_upsample")
        return cls(
            uniform_init(rng, (channels, channels, 2, 2, 2), fan_in=channels),
            uniform_init(rng, (channels,), fan_in=channels),
        )


def fuse_and_upsample(
    v_g: np.ndarray, v_s: np.ndarray, weights: UpsampleWeights
) -> np.ndarray:
    """Sum the geometric and semantic volumes and double every spatial extent."""
    if v_g.shape != v_s.shape:
        raise ValueError(f"volume shapes differ: {v_g.shape} vs {v_s.shape}")
    return upsample2x(v_g + v_s, weights.weight, weights.bias)
