"""Scheduled depth mixup.

During training the depth distribution fed to the lifting step is a blend of
the network's prediction and a ground-truth one-hot distribution. The blend
weight follows a sigmoid over normalized training progress: early iterations
lean on ground truth, late iterations on the prediction, with a smooth
handoff in between.

Both the ground-truth binning and the blend act pixel by pixel, so each
takes a whole camera rig as one array: a frame makes one call of each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MixupSchedule:
    """Sigmoid ramp over training progress.

    Progress iter/total maps linearly onto x in [-half_range, +half_range];
    the blend weight is sigmoid(steepness * x), so it runs from near 0 to
    near 1 and crosses 0.5 exactly at the midpoint. Both steepness and
    2 * half_range * total_iters, the axis map's largest term, are finite.
    """

    steepness: float = 5.0
    total_iters: int = 1000
    half_range: float = 5.0

    def __post_init__(self):
        if not 0 < self.steepness < np.inf:
            raise ValueError(f"steepness must be finite and > 0, got {self.steepness}")
        if self.total_iters < 1:
            raise ValueError(f"total_iters must be >= 1, got {self.total_iters}")
        if not 0 < 2.0 * self.half_range * self.total_iters < np.inf:
            raise ValueError(
                f"half_range must be > 0 with 2 * half_range * total_iters finite, "
                f"got {self.half_range}"
            )


def iteration_to_x(iteration: int, schedule: MixupSchedule) -> float:
    """Map an iteration index onto the symmetric schedule axis."""
    if not 0 <= iteration <= schedule.total_iters:
        raise ValueError(
            f"iteration {iteration} outside [0, {schedule.total_iters}]"
        )
    n = schedule.half_range
    return -n + 2.0 * n * iteration / schedule.total_iters


def mixup_alpha(iteration: int, schedule: MixupSchedule) -> float:
    """Blend weight on the predicted depth at a given iteration.

    Monotonically increasing in the iteration; 0.5 at the midpoint.
    """
    x = iteration_to_x(iteration, schedule)
    with np.errstate(over="ignore"):  # exp -> inf gives the limit 1 / (1 + inf) = 0
        return float(1.0 / (1.0 + np.exp(-schedule.steepness * x)))


def mix_depth(
    pred: np.ndarray,
    gt: np.ndarray,
    alpha: float,
    valid_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Blend predicted and ground-truth depth distributions.

    pred and gt are (..., D, H, W) per-pixel distributions, such as a whole
    camera rig's (N_c, D, H, W) stack; the blend is per pixel, so no camera
    mixes with another. valid_mask is (..., H, W): where it is False there
    is no trustworthy ground truth, so the prediction passes through
    unblended.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, gt {gt.shape}")
    if pred.ndim < 3:
        raise ValueError(f"expected (..., bin, v, u) distributions, got {pred.ndim}D")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    mixed = alpha * pred + (1.0 - alpha) * gt.astype(pred.dtype)
    if valid_mask is not None:
        pixels = pred.shape[:-3] + pred.shape[-2:]
        if valid_mask.shape != pixels:
            raise ValueError(f"valid_mask shape {valid_mask.shape} != pixel extents {pixels}")
        mixed = np.where(valid_mask[..., None, :, :], mixed, pred)
    return mixed.astype(pred.dtype, copy=False)


def gt_depth_from_points(depth: np.ndarray, d_min: float, d_max: float, n_bins: int):
    """Build one-hot depth distributions from measured per-pixel depths.

    depth is (..., H, W) metric depth along the optical axis, such as a
    frame's (N_c, H, W) camera rig; each pixel snaps to its uniform bin over
    [d_min, d_max). NaN, nonpositive and out-of-range depths are missing:
    those pixels get a uniform distribution and a False validity flag.

    Returns (one_hot (..., n_bins, H, W) float32, valid (..., H, W) bool).
    """
    if not d_max > d_min > 0:
        raise ValueError(f"need 0 < d_min < d_max, got {d_min}, {d_max}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    d = np.asarray(depth, dtype=np.float64)
    if d.ndim < 2:
        raise ValueError(f"depth must be (..., H, W), got {d.ndim}D")

    # NaN fails both comparisons, and d_min > 0 excludes nonpositive depths
    valid = (d >= d_min) & (d < d_max)
    width = (d_max - d_min) / n_bins
    offsets = np.where(valid, d - d_min, 0.0)
    bin_idx = np.clip(np.floor(offsets / width).astype(np.int64), 0, n_bins - 1)
    hot = bin_idx[..., None, :, :] == np.arange(n_bins)[:, None, None]
    one_hot = np.where(valid[..., None, :, :], hot, 1.0 / n_bins).astype(np.float32)
    return one_hot, valid
