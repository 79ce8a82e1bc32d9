"""Helpers shared by the test modules: a dtype cast for weight dataclasses,
the identity ego pose, and convolution oracles that run on an input the
caller has already padded."""

from dataclasses import fields, is_dataclass, replace
from itertools import product
from math import prod

import numpy as np

from occkit.bev import EgoPose


def cast(weights, dtype):
    """``weights`` with every array in ``dtype``: an array, or a dataclass
    rebuilt field by field or a tuple item by item, recursing into nested
    ones. ``None`` and scalars pass through; arrays already in ``dtype`` are
    reused, not copied."""
    if isinstance(weights, np.ndarray):
        return weights.astype(dtype, copy=False)
    if isinstance(weights, tuple):
        return tuple(cast(w, dtype) for w in weights)
    if is_dataclass(weights):
        return replace(weights, **{
            f.name: cast(getattr(weights, f.name), dtype) for f in fields(weights)
        })
    return weights


def identity_pose() -> EgoPose:
    return EgoPose(np.eye(3), np.zeros(3))


def centred_pad(x, kernel, dilation):
    """``x`` with centred zeros on each trailing axis: for the effective
    extent e = (k-1)*d + 1, floor((e-1)/2) zeros low and the rest high."""
    eff = [(k - 1) * d + 1 for k, d in zip(kernel, dilation)]
    return np.pad(x, [(0, 0)] + [((e - 1) // 2, e - 1 - (e - 1) // 2) for e in eff])


def _unpadded_extents(xp, kernel, dilation, stride):
    return tuple(
        (n - (k - 1) * d - 1) // s + 1
        for n, k, d, s in zip(xp.shape[1:], kernel, dilation, stride)
    )


def conv_loops(xp, weight, bias, dilation, stride):
    """Nested-loop cross-correlation of an already padded ``xp`` in float64,
    adding no zeros of its own and sharing nothing with the GEMM path."""
    c_out, c_in = weight.shape[:2]
    kernel = weight.shape[2:]
    out_sp = _unpadded_extents(xp, kernel, dilation, stride)
    out = np.zeros((c_out,) + out_sp, dtype=np.float64)
    for o, at in product(range(c_out), np.ndindex(*out_sp)):
        acc = 0.0
        for c, tap in product(range(c_in), np.ndindex(*kernel)):
            src = tuple(i * s + t * d for i, t, d, s in zip(at, tap, dilation, stride))
            acc += xp[(c,) + src] * weight[(o, c) + tap]
        out[(o,) + at] = acc if bias is None else acc + bias[o]
    return out


def conv_untiled(xp, weight, bias, dilation, stride):
    """Cross-correlation of an already padded ``xp`` as the conv ran before
    slab tiling: a zero-filled accumulator, one copy, GEMM and add per tap
    over the whole output at once, then the bias. The tiled ``conv``
    runs the same taps in the same order on each output element, so it must
    match this byte for byte."""
    c_out, c_in = weight.shape[:2]
    kernel = weight.shape[2:]
    out_sp = _unpadded_extents(xp, kernel, dilation, stride)
    n_out = prod(out_sp)
    w2 = np.ascontiguousarray(weight.reshape(c_out, c_in, -1))
    acc = np.zeros((c_out, n_out), dtype=xp.dtype)
    patch = np.empty((c_in, n_out), dtype=xp.dtype)
    tmp = np.empty((c_out, n_out), dtype=xp.dtype)
    patch_nd = patch.reshape((c_in,) + out_sp)
    for tap_idx, tap in enumerate(np.ndindex(*kernel)):
        sl = tuple(
            slice(t * d, t * d + s * (o - 1) + 1, s)
            for t, d, s, o in zip(tap, dilation, stride, out_sp)
        )
        np.copyto(patch_nd, xp[(slice(None),) + sl])
        np.matmul(w2[:, :, tap_idx], patch, out=tmp)
        acc += tmp
    if bias is not None:
        acc += bias[:, None]
    return acc.reshape((c_out,) + out_sp)
