"""Large-kernel 3D convolution re-parameterization.

A train-form block is a set of parallel branches, each a (possibly dilated)
small-kernel 3D convolution followed by an inference-mode batch norm. The
deploy form is a single large-kernel convolution with a bias. Merging is
exact: dilation becomes zero-insertion, batch norm folds into a per-channel
scale and shift, and the sparse kernels are zero-padded to the target extents
and summed. ``forward_train`` and ``forward_deploy`` agree elementwise up to
floating-point rounding.

Every branch conv and the merged conv pad by the conv's one centred rule
(see ``tensor``): (e-1)//2 zeros low and e//2 high for an effective extent
e, the extra zero of an even extent on the high side. The two forms then
read the same voxels only if each branch fits inside the kernel with the
kernel's parity on every axis, as ``check_fit`` requires. Every forward
preserves spatial extents.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .tensor import Conv, as_axes, conv, effective_extents, rng_named, uniform_init


@dataclass(frozen=True)
class BatchNormParams:
    """Inference-mode batch norm: accumulated mean/std plus learned affine.

    ``std`` is the standard deviation (eps already folded in), strictly
    positive per channel.
    """

    mean: np.ndarray
    std: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        c = self.mean.shape
        for name in ("std", "gamma", "beta"):
            if getattr(self, name).shape != c:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {c}")
        if self.mean.ndim != 1:
            raise ValueError("batch norm parameters must be per-channel vectors")
        if not (self.std > 0).all():
            raise ValueError("std must be strictly positive for every channel")


@dataclass(frozen=True)
class ConvBranchSpec:
    """One parallel branch: conv weight (C_out, C_in, kx, ky, kz), per-axis
    dilation, and the batch norm that follows the convolution."""

    weight: np.ndarray
    dilation: tuple[int, int, int]
    bn: BatchNormParams

    def __post_init__(self):
        if self.weight.ndim != 5:
            raise ValueError(f"branch weight must be 5D, got {self.weight.ndim}D")
        object.__setattr__(self, "dilation", as_axes(self.dilation, 3, "dilation"))
        if self.bn.mean.shape[0] != self.weight.shape[0]:
            raise ValueError(
                f"batch norm has {self.bn.mean.shape[0]} channels, "
                f"branch outputs {self.weight.shape[0]}"
            )

    @property
    def kernel(self) -> tuple[int, int, int]:
        return tuple(self.weight.shape[2:])

    @property
    def effective(self) -> tuple[int, int, int]:
        return effective_extents(self.kernel, self.dilation)


def dilate_to_sparse(weight: np.ndarray, dilation: tuple[int, int, int]) -> np.ndarray:
    """Expand a dilated kernel into its non-dilated sparse equivalent by
    inserting (r - 1) zeros between taps on each of the trailing three axes.

    Tap [i, j, k] lands at [i*rx, j*ry, k*rz]; leading axes pass through.
    """
    rx, ry, rz = dilation
    out_sp = effective_extents(weight.shape[-3:], dilation)
    out = np.zeros(weight.shape[:-3] + out_sp, dtype=weight.dtype)
    out[..., ::rx, ::ry, ::rz] = weight
    return out


def fuse_bn(weight: np.ndarray, bn: BatchNormParams) -> Conv:
    """Fold batch norm into the convolution: scale the kernel per output
    channel by gamma/std and return it with the matching bias."""
    scale = bn.gamma / bn.std
    return Conv(weight * scale[:, None, None, None, None], bn.beta - bn.mean * scale)


def check_fit(eff: tuple[int, ...], target: tuple[int, ...]) -> None:
    """Raise unless ``eff`` fits centred inside ``target``: no larger, and
    of the same parity, on every axis."""
    for axis, (e, t) in enumerate(zip(eff, target)):
        if e > t:
            raise ValueError(
                f"branch effective extent {eff} exceeds target {target} on axis {axis}"
            )
        if (t - e) % 2 != 0:
            raise ValueError(
                f"parity mismatch on axis {axis}: effective extent {e} cannot be "
                f"centered inside target extent {t}"
            )


def merge_branches(
    branches: Sequence[ConvBranchSpec], target_extents: tuple[int, int, int]
) -> Conv:
    """Collapse parallel conv+BN branches into the deploy form: one
    large-kernel conv, weight (C_out, C_in, K_X, K_Y, K_Z) plus bias.

    Each branch kernel is dilated to sparse form, BN-folded, zero-padded
    centered to ``target_extents``, and summed; biases sum directly.
    """
    if not branches:
        raise ValueError("need at least one branch")
    target = as_axes(target_extents, 3, "target extents")
    c_out, c_in = branches[0].weight.shape[:2]
    dtype = branches[0].weight.dtype

    weight = np.zeros((c_out, c_in) + target, dtype=dtype)
    bias = np.zeros(c_out, dtype=dtype)
    for branch in branches:
        if branch.weight.shape[:2] != (c_out, c_in):
            raise ValueError("branches disagree on channel counts")
        if branch.weight.dtype != dtype:
            raise ValueError("branches disagree on dtype")
        check_fit(branch.effective, target)
        sparse = dilate_to_sparse(branch.weight, branch.dilation)
        fused_w, fused_b = fuse_bn(sparse, branch.bn)
        off = tuple((t - e) // 2 for t, e in zip(target, branch.effective))
        region = (slice(None), slice(None)) + tuple(
            slice(o, o + e) for o, e in zip(off, branch.effective)
        )
        weight[region] += fused_w
        bias += fused_b
    return Conv(weight, bias)


def apply_bn(y: np.ndarray, bn: BatchNormParams) -> np.ndarray:
    """Inference-mode batch norm over channel-first voxel features, applied
    to ``y`` in place; returns ``y``."""
    scale = (bn.gamma / bn.std).reshape(-1, 1, 1, 1)
    shift = (bn.beta - bn.mean * bn.gamma / bn.std).reshape(-1, 1, 1, 1)
    y *= scale
    y += shift
    return y


def forward_train(x: np.ndarray, branches: Sequence[ConvBranchSpec]) -> np.ndarray:
    """Train-form forward: sum of per-branch conv + batch norm outputs.

    Each branch's output is added into the running sum and freed before
    the next branch pads its input."""
    if not branches:
        raise ValueError("need at least one branch")

    def branch_out(branch):
        return apply_bn(conv(x, branch.weight, dilation=branch.dilation), branch.bn)

    out = branch_out(branches[0])
    for branch in branches[1:]:
        out += branch_out(branch)
    return out


def forward_deploy(x: np.ndarray, merged: Conv) -> np.ndarray:
    """Deploy-form forward: one large-kernel conv."""
    return conv(x, *merged)


def default_branch_extents(
    target: tuple[int, int, int],
) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Default branch layout for a target kernel: the full-size non-dilated
    kernel plus dilated 5-tap (r=2) and 3-tap (r=3) branches, clipped per
    axis so effective extents fit inside the target with matching parity.
    A dilated layout that has no fitting extent on some axis is left out,
    as the 5-tap one is on an even axis, so every layout merges.
    """

    def clip(k: int, r: int, extent: int) -> tuple[int, int] | None:
        if extent == 1:
            return 1, 1
        for kk in range(k, 0, -1):
            (eff,) = effective_extents((kk,), (r,))
            if eff <= extent and (extent - eff) % 2 == 0:
                return kk, r
        return None

    target = tuple(int(t) for t in target)
    layouts = [(target, (1, 1, 1))]
    for k, r in ((5, 2), (3, 3)):
        axes = [clip(k, r, t) for t in target]
        if None in axes:
            continue
        kernel, dilation = zip(*axes)
        cand = (tuple(kernel), tuple(dilation))
        if cand not in layouts:
            layouts.append(cand)
    return layouts


def random_branch_set(
    seed: int,
    c_in: int,
    c_out: int,
    target: tuple[int, int, int],
    extents: list[tuple[tuple[int, int, int], tuple[int, int, int]]] | None = None,
    dtype=np.float32,
) -> list[ConvBranchSpec]:
    """Seeded branch set over the default (or given) layouts, with random
    batch norm statistics. Reproducible per (seed, layout)."""
    if extents is None:
        extents = default_branch_extents(target)
    branches = []
    for i, (kernel, dilation) in enumerate(extents):
        rng = rng_named(seed, f"reparam/branch{i}")
        fan_in = c_in * int(np.prod(kernel))
        weight = uniform_init(rng, (c_out, c_in) + tuple(kernel), fan_in, dtype)
        bn = BatchNormParams(
            mean=rng.normal(0.0, 0.3, c_out).astype(dtype),
            std=rng.uniform(0.5, 1.5, c_out).astype(dtype),
            gamma=(
                rng.uniform(0.3, 1.5, c_out) * rng.choice([-1.0, 1.0], c_out)
            ).astype(dtype),
            beta=rng.normal(0.0, 0.3, c_out).astype(dtype),
        )
        branches.append(ConvBranchSpec(weight=weight, dilation=tuple(dilation), bn=bn))
    return branches
