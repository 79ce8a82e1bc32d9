"""BEV temporal fusion.

Voxel features are collapsed to a bird's-eye-view plane, past BEV maps are
warped into the current ego frame with a planar rigid transform, and the
stacked history is mixed back to the working channel width by two linear
3x3 convolutions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .tensor import FLOAT_DTYPES, conv, rng_named, uniform_init, upsample2x
from .view import GridSpec


@dataclass(frozen=True)
class EgoPose:
    """Rigid ego-to-world transform: x_world = R @ x_ego + t.

    The fusion warps in the ground plane only, so R must be a proper
    rotation about z: its third row and column are (0, 0, 1) and its
    determinant is positive.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("pose rotation and translation must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-6:
            raise ValueError("rotation is not orthonormal")
        e_z = np.array([0.0, 0.0, 1.0])
        if (np.abs(r[2] - e_z).max() > 1e-6 or np.abs(r[:, 2] - e_z).max() > 1e-6
                or not np.linalg.det(r) > 0):
            raise ValueError("rotation is not a proper rotation about z")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def from_yaw(cls, yaw: float, translation=(0.0, 0.0, 0.0)) -> "EgoPose":
        c, s = np.cos(yaw), np.sin(yaw)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(r, np.asarray(translation, dtype=np.float64))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "EgoPose":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError("pose matrix must be 4x4")
        return cls(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def inverse(self) -> "EgoPose":
        rt = self.rotation.T
        return EgoPose(rt, -rt @ self.translation)


def collapse_height(v: np.ndarray) -> np.ndarray:
    """Average a (C, X, Y, Z) voxel tensor over its height axis to (C, X, Y).

    The bytes are those of ``v.mean(axis=3)``, whose contiguous reduction
    sums each column from +0.0: in order below 8 heights, and at exactly 8
    as the tree ``((v0+v1)+(v2+v3)) + ((v4+v5)+(v6+v7))`` added to +0.0.
    For a C-contiguous float32 or float64 ``v`` with Z = 2 or 4 the same
    sums are whole-slice adds into a zeroed accumulator, and with Z = 8 the
    same tree of slices plus 0.0; either is then divided by Z. Any other
    height count, dtype or layout calls ``mean`` itself.
    """
    if v.ndim != 4:
        raise ValueError(f"expected 4D voxel tensor, got {v.ndim}D")
    z = v.shape[3]
    if z not in (2, 4, 8) or v.dtype not in FLOAT_DTYPES or not v.flags.c_contiguous:
        return v.mean(axis=3)
    s = [v[..., k] for k in range(z)]
    if z == 8:
        acc = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
        acc += 0.0
    else:
        acc = np.zeros(v.shape[:3], dtype=v.dtype)
        for sl in s:
            acc += sl
    acc /= z
    return acc


def _planar_relative(pose_hist: EgoPose, pose_now: EgoPose):
    """Current-ego -> history-ego transform restricted to the ground plane.

    Returns (c, s, tx, ty) with [c, -s; s, c] the planar rotation. The pair
    is read straight off the relative rotation R_hist^T R_now and
    renormalized, so exact axis-aligned rotations stay exact. Both poses
    turn about z, so the pair's norm is 1 to within ``EgoPose``'s 1e-6.
    """
    rt = pose_hist.rotation.T
    c, s = (rt @ pose_now.rotation)[:2, 0]
    tx, ty = (rt @ pose_now.translation + -rt @ pose_hist.translation)[:2]
    norm = np.hypot(c, s)
    return c / norm, s / norm, tx, ty


def warp_bev(
    b_hist: np.ndarray,
    pose_hist: EgoPose,
    pose_now: EgoPose,
    grid: GridSpec,
) -> np.ndarray:
    """Resample a past BEV map onto the current ego frame's grid.

    For each current-frame cell center, the matching metric point in the
    history frame is found through the relative pose (yaw + planar
    translation only) and bilinearly sampled; points that fall outside the
    history map contribute zeros. b_hist is (C, X, Y) on the same grid spec.
    """
    if b_hist.ndim != 3:
        raise ValueError(f"expected 3D BEV tensor, got {b_hist.ndim}D")
    nx, ny = grid.counts[0], grid.counts[1]
    if b_hist.shape[1:] != (nx, ny):
        raise ValueError(f"BEV extents {b_hist.shape[1:]} do not match grid ({nx}, {ny})")

    c, s, tx, ty = _planar_relative(pose_hist, pose_now)
    vx, vy = grid.voxel_size[0], grid.voxel_size[1]
    xs, ys = grid.start[0], grid.start[1]

    # Source index = A @ dest index + b, derived from
    #   p_hist = R @ p_now + t  with p = start + (idx + 0.5) * vsize.
    a11 = c
    a12 = -s * (vy / vx)
    a21 = s * (vx / vy)
    a22 = c
    # A far pose may overflow b to +-inf. Clipped into [-2, n + 1], a coordinate
    # keeps both corners off the map, on the same clipped cells, with finite weights.
    with np.errstate(over="ignore"):
        b_i = 0.5 * (a11 + a12) - 0.5 + ((c - 1.0) * xs - s * ys + tx) / vx
        b_j = 0.5 * (a21 + a22) - 0.5 + (s * xs + (c - 1.0) * ys + ty) / vy

    ii, jj = np.meshgrid(
        np.arange(nx, dtype=np.float64), np.arange(ny, dtype=np.float64), indexing="ij"
    )
    u = np.clip(a11 * ii + a12 * jj + b_i, -2.0, nx + 1.0)
    v = np.clip(a21 * ii + a22 * jj + b_j, -2.0, ny + 1.0)

    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    fu = u - u0
    fv = v - v0

    # Each corner gathers through one flat index into the (C, X*Y) map; a
    # corner off the map reads a clipped cell with weight 0, which is exact
    # because every bilinear weight is >= +0.
    src = b_hist.astype(np.float64).reshape(b_hist.shape[0], nx * ny)
    out = None
    for iu, iv, w in (
        (u0, v0, (1.0 - fu) * (1.0 - fv)),
        (u0, v0 + 1, (1.0 - fu) * fv),
        (u0 + 1, v0, fu * (1.0 - fv)),
        (u0 + 1, v0 + 1, fu * fv),
    ):
        inside = (iu >= 0) & (iu < nx) & (iv >= 0) & (iv < ny)
        flat = np.clip(iu, 0, nx - 1) * ny + np.clip(iv, 0, ny - 1)
        tap = src.take(flat.ravel(), axis=1)
        tap *= np.where(inside, w, 0.0).ravel()
        if out is None:
            out = tap
        else:
            out += tap
    return out.reshape(b_hist.shape).astype(b_hist.dtype, copy=False)


@dataclass(frozen=True)
class FusionWeights:
    """Two linear 3x3 convs mixing stacked history down to C channels."""

    mix1_w: np.ndarray
    mix1_b: np.ndarray
    mix2_w: np.ndarray
    mix2_b: np.ndarray

    def __post_init__(self):
        if self.mix1_w.ndim != 4 or self.mix2_w.ndim != 4:
            raise ValueError("fusion conv weights must be 4D")
        if self.mix1_w.shape[2:] != (3, 3) or self.mix2_w.shape[2:] != (3, 3):
            raise ValueError("fusion convs must use 3x3 kernels")
        if self.mix2_w.shape[1] != self.mix1_w.shape[0]:
            raise ValueError("mix2 input channels must equal mix1 output channels")

    @property
    def n_channels(self) -> int:
        return self.mix2_w.shape[0]

    @property
    def n_frames(self) -> int:
        return self.mix1_w.shape[1] // self.mix2_w.shape[0]

    @classmethod
    def seeded(cls, seed: int, channels: int, frames: int):
        c_in = channels * frames
        rng = rng_named(seed, "temporal_fusion")
        return cls(
            uniform_init(rng, (channels, c_in, 3, 3), fan_in=c_in * 9),
            uniform_init(rng, (channels,), fan_in=c_in * 9),
            uniform_init(rng, (channels, channels, 3, 3), fan_in=channels * 9),
            uniform_init(rng, (channels,), fan_in=channels * 9),
        )


def temporal_fuse(
    b_current: np.ndarray,
    history: Sequence[tuple[np.ndarray, EgoPose]],
    pose_now: EgoPose,
    weights: FusionWeights,
    grid: GridSpec,
) -> np.ndarray:
    """Fuse the current BEV map with its history warped into the current frame.

    ``history`` is a sequence of raw (bev, pose) pairs, newest first, of at
    most ``weights.n_frames - 1`` entries. The stack is [current, newest,
    ..., oldest] with missing history slots zero-filled, giving a fixed
    (frames * C)-channel input; the mixing convs are linear (no activation).
    Returns the fused (C, X, Y) map and changes none of its arguments.
    """
    n_ch = weights.n_channels
    frames = weights.n_frames
    if b_current.ndim != 3 or b_current.shape[0] != n_ch:
        raise ValueError(
            f"current BEV must be ({n_ch}, X, Y), got {b_current.shape}"
        )
    if len(history) > frames - 1:
        raise ValueError(
            f"{len(history)} history maps do not fit the fusion window of "
            f"{frames} (current + {frames - 1} history)"
        )

    stack = np.zeros((frames * n_ch,) + b_current.shape[1:], dtype=b_current.dtype)
    stack[:n_ch] = b_current
    for slot, (bev, pose) in enumerate(history, start=1):
        stack[slot * n_ch : (slot + 1) * n_ch] = warp_bev(bev, pose, pose_now, grid)

    h = conv(stack, weights.mix1_w, weights.mix1_b)
    return conv(h, weights.mix2_w, weights.mix2_b)


@dataclass(frozen=True)
class SemanticEncoderWeights:
    """Small 2D encoder-decoder over the fused BEV map.

    Two stride-2 3x3 downsamples, a residual 3x3 middle block, two exact 2x
    transpose-conv upsamples with skip connections, and an optional 1x1
    projection when the output width differs from the input width.
    """

    down1_w: np.ndarray
    down1_b: np.ndarray
    down2_w: np.ndarray
    down2_b: np.ndarray
    mid_w: np.ndarray
    mid_b: np.ndarray
    up1_w: np.ndarray
    up1_b: np.ndarray
    up2_w: np.ndarray
    up2_b: np.ndarray
    skip_w: np.ndarray | None = None
    skip_b: np.ndarray | None = None

    @classmethod
    def seeded(cls, seed: int, channels: int, out_channels: int):
        rng = rng_named(seed, "semantic_encoder_2d")
        c, co = channels, out_channels

        def conv_w(c_out, c_in, k):
            return uniform_init(rng, (c_out, c_in, k, k), fan_in=c_in * k * k)

        def bias(c_out, c_in, k):
            return uniform_init(rng, (c_out,), fan_in=c_in * k * k)

        up1_w = uniform_init(rng, (c, c, 2, 2), fan_in=c)
        up1_b = uniform_init(rng, (c,), fan_in=c)
        up2_w = uniform_init(rng, (c, co, 2, 2), fan_in=c)
        up2_b = uniform_init(rng, (co,), fan_in=c)
        skip_w = skip_b = None
        if co != c:
            skip_w = conv_w(co, c, 1)
            skip_b = bias(co, c, 1)
        return cls(
            conv_w(c, c, 3), bias(c, c, 3),
            conv_w(c, c, 3), bias(c, c, 3),
            conv_w(c, c, 3), bias(c, c, 3),
            up1_w, up1_b, up2_w, up2_b, skip_w, skip_b,
        )


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def semantic_encoder_2d(b_t: np.ndarray, weights: SemanticEncoderWeights) -> np.ndarray:
    """Refine a fused BEV map at multiple scales.

    b_t is (C, X, Y) with X and Y divisible by 4. Output is (C', X, Y) with
    no activation on the final layer. The residual adds b_t's 1x1 projection
    when the weights carry one and b_t itself otherwise, so weights without
    a projection must keep the width.
    """
    if b_t.ndim != 3:
        raise ValueError(f"expected 3D BEV tensor, got {b_t.ndim}D")
    nx, ny = b_t.shape[1], b_t.shape[2]
    if nx % 4 or ny % 4:
        raise ValueError(f"BEV extents must be divisible by 4, got ({nx}, {ny})")

    w = weights
    d1 = _relu(conv(b_t, w.down1_w, w.down1_b, stride=2))  # (C, X/2, Y/2)
    d2 = _relu(conv(d1, w.down2_w, w.down2_b, stride=2))  # (C, X/4, Y/4)
    m = _relu(conv(d2, w.mid_w, w.mid_b) + d2)
    u1 = _relu(upsample2x(m, w.up1_w, w.up1_b) + d1)  # (C, X/2, Y/2)
    u0 = upsample2x(u1, w.up2_w, w.up2_b)  # (C', X, Y)
    skip = b_t if w.skip_w is None else conv(b_t, w.skip_w, w.skip_b)
    if skip.shape != u0.shape:
        raise ValueError(f"residual {skip.shape} does not match decoder output {u0.shape}")
    return u0 + skip
