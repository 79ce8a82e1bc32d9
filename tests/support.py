"""Helpers shared by the test modules: a dtype cast for weight dataclasses,
a config with other scene fields, the identity ego pose, scenes with boxes
placed by hand, the voxel of a point, convolution oracles that run on an
input the caller has already padded, the float64 column split of their
GEMMs, a call's peak traced memory, convs on a set worker count and the threads
they started."""

import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass, replace
from itertools import product
from math import prod

import numpy as np
import pytest

from occkit import tensor
from occkit.bev import EgoPose
from occkit.scene import BoxObstacle, SceneSpec
from occkit.tensor import SMALL_GEMM_MACS


def cast(weights, dtype):
    """``weights`` with every array in ``dtype``: an array, or a dataclass
    rebuilt field by field or a tuple item by item, a named tuple such as
    ``Conv`` keeping its type, recursing into nested ones. ``None`` and
    scalars pass through; arrays already in ``dtype`` are reused, not
    copied."""
    if isinstance(weights, np.ndarray):
        return weights.astype(dtype, copy=False)
    if isinstance(weights, tuple):
        items = (cast(w, dtype) for w in weights)
        return weights._make(items) if hasattr(weights, "_make") else tuple(items)
    if is_dataclass(weights):
        return replace(weights, **{
            f.name: cast(getattr(weights, f.name), dtype) for f in fields(weights)
        })
    return weights


def with_scene(config, **fields):
    """``config`` with ``fields`` of its ``SceneSpec`` replaced."""
    return replace(config, scene=replace(config.scene, **fields))


def identity_pose() -> EgoPose:
    return EgoPose(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class PlacedSceneSpec(SceneSpec):
    """A scene spec whose boxes are given, not seeded; nothing checks that
    they lie in the grid."""

    boxes: tuple[BoxObstacle, ...] = ()

    def resolve_boxes(self) -> tuple[BoxObstacle, ...]:
        return self.boxes


def voxel_index(grid, points):
    """Voxel of each metric point (..., 3), one ``GridSpec.axis_index`` per
    axis: ``(idx, inside)``, the int64 (..., 3) index, unclipped outside the
    grid, and whether it lies in the grid."""
    idx = np.stack([grid.axis_index(points[..., a], a) for a in range(3)], axis=-1)
    return idx, ((idx >= 0) & (idx < np.array(grid.counts))).all(axis=-1)


def traced_peak(fn, *args, **kw):
    """(fn(*args, **kw), peak bytes): the most memory, numpy buffers
    included, that ``tracemalloc`` saw the call hold above what was traced
    at its start. Tracing is switched off again afterwards unless it was on
    before, so no later test runs traced; an outer trace's peak is reset."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kw)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


@contextmanager
def conv_workers(n):
    """``tensor.conv`` on ``n`` workers, which every conv of several slabs
    then uses, however few multiply-adds it makes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "WORKERS", n)
        mp.setattr(tensor, "THREAD_MACS", 0)
        yield


def conv_threads():
    """Names of the live threads that a conv started."""
    return [t.name for t in threading.enumerate() if t.name.startswith("occkit-conv")]


def gemm_split(cols, macs, dtype):
    """How many leading columns of a GEMM over ``cols`` columns of ``macs``
    multiply-adds each run as one GEMM; the rest run as a second. In
    float64 over ``SMALL_GEMM_MACS``, OpenBLAS's regular kernel rounds the
    columns past the last multiple of 8 by how its threads split the
    columns, so those columns get a GEMM of their own, and at least two of
    them, since a one-column product is a BLAS matrix-vector product."""
    if np.dtype(dtype) != np.float64 or cols * macs <= SMALL_GEMM_MACS:
        return cols
    tail = cols % 8 if cols % 8 != 1 else 9
    return cols - tail if tail < cols else cols


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
    runs the same taps in the same order on each output element, so it
    must match this byte for byte."""
    c_out, c_in = weight.shape[:2]
    kernel = weight.shape[2:]
    out_sp = _unpadded_extents(xp, kernel, dilation, stride)
    n_out = prod(out_sp)
    # as in ``conv``, more than 256 input channels run as a GEMM depth of
    # the next multiple of 32, the extra channels and weight columns zero
    k = c_in if c_in <= 256 else -(-c_in // 32) * 32
    xp = np.pad(xp, [(0, k - c_in)] + [(0, 0)] * len(kernel))
    # (taps, C_rows, k): each tap's weight is one contiguous matrix, as
    # ``conv`` passes it to BLAS, and one output channel's gains a zero
    # second row, as in ``conv``
    c_rows = max(c_out, 2)
    w_taps = np.zeros((prod(kernel), c_rows, k), dtype=xp.dtype)
    w_taps[:, :c_out, :c_in] = np.moveaxis(weight.reshape(c_out, c_in, -1), -1, 0)
    acc = np.zeros((c_rows, n_out), dtype=xp.dtype)
    patch = np.empty((k, n_out), dtype=xp.dtype)
    tmp = np.empty((c_rows, n_out), dtype=xp.dtype)
    patch_nd = patch.reshape((k,) + out_sp)
    # as in ``conv``, a float64 GEMM's last columns may run on their own
    split = gemm_split(n_out, c_rows * k, xp.dtype)
    for tap_idx, tap in enumerate(np.ndindex(*kernel)):
        sl = tuple(
            slice(t * d, t * d + s * (o - 1) + 1, s)
            for t, d, s, o in zip(tap, dilation, stride, out_sp)
        )
        np.copyto(patch_nd, xp[(slice(None),) + sl])
        np.matmul(w_taps[tap_idx], patch[:, :split], out=tmp[:, :split])
        np.matmul(w_taps[tap_idx], patch[:, split:], out=tmp[:, split:])
        acc += tmp
    acc = acc[:c_out]
    if bias is not None:
        acc += bias[:, None]
    return acc.reshape((c_out,) + out_sp)
