import os
import subprocess
import sys
import threading
import time
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occkit import tensor
from occkit.bev import EgoPose, warp_bev
from occkit.reparam import BatchNormParams, ConvBranchSpec, dilate_to_sparse
from occkit.scene import camera_ring
from occkit.tensor import (
    SMALL_GEMM_MACS,
    Conv,
    conv,
    conv_init,
    effective_extents,
    gemm_shape,
    rng_named,
    slab_rows,
    softmax,
    uniform_init,
    upsample2x,
    upsample_init,
)
from occkit.view import DepthDistribution, GridSpec, LiftPlan, bin_centers, lift_splat
from support import (
    cast,
    centred_pad,
    conv_loops,
    conv_threads,
    conv_untiled,
    conv_workers,
    gemm_split,
    traced_peak,
)


def conv_nd_loops(x, weight, bias, dilation, stride):
    """The nested-loop oracle on ``x`` padded explicitly, centred; dilation
    and stride are per-axis tuples."""
    xp = centred_pad(x, weight.shape[2:], dilation)
    return conv_loops(xp, weight, bias, dilation, stride)


def conv_nd_untiled(x, weight, bias, dilation, stride):
    """The untiled GEMM oracle on ``x`` padded explicitly, centred; dilation
    and stride are per-axis tuples."""
    xp = centred_pad(x, weight.shape[2:], dilation)
    return conv_untiled(xp, weight, bias, dilation, stride)


def upsample2x_interleaved(x, weight, bias, rank):
    """The upsample before per-block GEMMs: one GEMM for all 2^rank block
    offsets, then a transposing copy that interleaves them. The block
    GEMMs of ``upsample2x`` must match it byte for byte."""
    c_out = weight.shape[1]
    sp = x.shape[1:]
    w2 = weight.reshape(weight.shape[0], -1)
    y = np.matmul(w2.T, x.reshape(x.shape[0], -1))
    if rank == 3:
        y = y.reshape((c_out, 2, 2, 2) + sp).transpose(0, 4, 1, 5, 2, 6, 3)
    else:
        y = y.reshape((c_out, 2, 2) + sp).transpose(0, 3, 1, 4, 2)
    y = np.ascontiguousarray(y).reshape((c_out,) + tuple(2 * n for n in sp))
    y += bias.reshape((c_out,) + (1,) * rank)
    return y


def upsample2x_strided_add(x, weight, bias):
    """The upsample before its contiguous bias adds: each block offset's
    GEMM plus the bias is written by one ``np.add`` straight into its
    stride-2 view of the output. ``upsample2x`` must match it byte for
    byte."""
    rank = x.ndim - 1
    c_out = weight.shape[1]
    sp = x.shape[1:]
    x2 = x.reshape(x.shape[0], -1)
    w_blocks = np.ascontiguousarray(np.moveaxis(weight, 1, -1))
    out = np.empty((c_out,) + tuple(2 * n for n in sp), dtype=x.dtype)
    for block in np.ndindex(*(2,) * rank):
        y = np.matmul(w_blocks[(slice(None),) + block].T, x2).reshape((c_out,) + sp)
        dst = out[(slice(None),) + tuple(slice(o, None, 2) for o in block)]
        np.add(y, bias.reshape((c_out,) + (1,) * rank), out=dst)
    return out


class TestConvGeometry:
    """``conv`` reads its rank and kernel from the weight and takes
    dilation and stride as an int or one int per axis."""

    def test_default_dilation_and_stride_are_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 6, 3))
        w = rng.standard_normal((2, 2, 3, 2, 1))
        got = conv(x, w)
        assert got.tobytes() == conv(x, w, None, (1, 1, 1), (1, 1, 1)).tobytes()
        want = conv_nd_loops(x, w, None, (1, 1, 1), (1, 1, 1))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_effective_extents(self):
        assert effective_extents((3, 5, 1), (3, 2, 1)) == (7, 9, 1)

    @pytest.mark.parametrize(
        "kernel,dilation",
        [((3, 3, 1), 1), ((2, 4, 1), 1), ((2, 3, 3), (3, 2, 1))],
        ids=["3x3x1", "even-2x4x1", "dilated-2x3x3"],
    )
    def test_stride_1_preserves_extents(self, kernel, dilation):
        x = np.zeros((1, 8, 9, 4))
        assert conv(x, np.zeros((1, 1) + kernel), dilation=dilation).shape == x.shape

    @pytest.mark.parametrize(
        "kernel,stride",
        [((3, 3, 2), (2, 2, 2)), ((1, 1, 1), (3, 1, 2)), ((3, 3), 2), ((2, 1), (1, 3))],
        ids=["3d-stride-2", "3d-pointwise-mixed", "2d-stride-2", "2d-even-mixed"],
    )
    def test_output_extents_formula(self, kernel, stride):
        sp = (8, 9, 1)[: len(kernel)]
        strides = (stride,) * len(kernel) if isinstance(stride, int) else stride
        y = conv(np.zeros((1,) + sp), np.zeros((2, 1) + kernel), stride=stride)
        assert y.shape == (2,) + tuple((n - 1) // s + 1 for n, s in zip(sp, strides))

    def test_kernel_larger_than_input_pads_to_fit(self):
        x = np.ones((1, 3, 3, 3))
        y = conv(x, np.ones((1, 1, 5, 1, 1)))
        assert y.shape == (1, 3, 3, 3)
        np.testing.assert_array_equal(y[0, :, 0, 0], [3.0, 3.0, 3.0])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="input extents must be >= 1"):
            conv(np.zeros((1, 0, 4)), np.zeros((1, 1, 3, 3)))

    @pytest.mark.parametrize(
        "kernel,kwargs,match",
        [
            ((0, 1, 1), {}, r"kernel extents must be >= 1, got \(0, 1, 1\)"),
            ((3, 3), {"dilation": 0}, r"dilation must be >= 1"),
            ((3, 3, 1), {"dilation": (2, 0, 1)}, r"dilation must be >= 1"),
            ((3, 3), {"stride": (1, 0)}, r"stride must be >= 1"),
            ((1, 1, 1), {"stride": -1}, r"stride must be >= 1"),
            ((3, 3), {"stride": (2, 2, 2)}, r"stride must have 2 entries, got 3"),
            ((3, 3, 1), {"dilation": (2, 2)}, r"dilation must have 3 entries, got 2"),
            ((), {}, r"conv weight has no spatial axis: shape \(1, 1\)"),
        ],
        ids=[
            "zero-kernel", "dilation-0", "dilation-axis-0", "stride-axis-0",
            "stride-negative", "stride-too-long", "dilation-too-short",
            "no-spatial-axis",
        ],
    )
    def test_rejects_invalid(self, kernel, kwargs, match):
        x = np.zeros((1,) + (4,) * len(kernel))
        with pytest.raises(ValueError, match=match):
            conv(x, np.zeros((1, 1) + kernel), **kwargs)


class TestConv3d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 5, 2)).astype(np.float32)
        w = np.zeros((3, 3, 1, 1, 1), dtype=np.float32)
        for c in range(3):
            w[c, c, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(conv(x, w), x)

    def test_delta_input_reads_kernel(self):
        x = np.zeros((1, 5, 5, 1), dtype=np.float64)
        x[0, 2, 2, 0] = 1.0
        rng = np.random.default_rng(1)
        w = rng.standard_normal((1, 1, 3, 3, 1))
        y = conv(x, w)
        # the delta copies the kernel, flipped by cross-correlation indexing
        np.testing.assert_allclose(y[0, 1:4, 1:4, 0], w[0, 0, ::-1, ::-1, 0])

    def test_even_extent_puts_extra_zero_high(self):
        """Kernel extent 2 pads no zero low and one high: output i reads
        inputs i and i+1, and the last output reads the high zero."""
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
        w = np.array([1.0, 10.0]).reshape(1, 1, 2, 1)
        np.testing.assert_array_equal(conv(x, w)[0, :, 0], [21.0, 32.0, 43.0, 4.0])

    @pytest.mark.parametrize(
        "dilation,stride",
        [
            ((1, 1, 1), (1, 1, 1)),
            ((1, 1, 1), (2, 2, 2)),
            ((2, 1, 1), (1, 1, 1)),
            ((1, 2, 1), (2, 1, 1)),
            ((2, 2, 2), (1, 1, 1)),
        ],
    )
    def test_matches_nested_loop_oracle(self, dilation, stride):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 4, 4, 4))
        w = rng.standard_normal((3, 2, 2, 2, 2))
        b = rng.standard_normal(3)
        got = conv(x, w, b, dilation, stride)
        want = conv_nd_loops(x, w, b, dilation, stride)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_dilated_equals_sparse_kernel_f64(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 9, 9, 5))
        w = rng.standard_normal((2, 2, 3, 3, 1))
        dense = conv(x, w, dilation=(2, 2, 1))
        sparse = dilate_to_sparse(w, (2, 2, 1))
        same = conv(x, sparse)
        np.testing.assert_array_equal(dense, same)

    def test_dilated_equals_sparse_kernel_f32(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 9, 9, 5)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3, 1)).astype(np.float32)
        dense = conv(x, w, dilation=(2, 2, 1))
        sparse = dilate_to_sparse(w, (2, 2, 1))
        same = conv(x, sparse)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(dense - same)) <= 1e-5 * scale

    def test_linear_in_input(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 5, 5, 3))
        y = rng.standard_normal((2, 5, 5, 3))
        w = rng.standard_normal((2, 2, 3, 3, 3))
        lhs = conv(2.0 * x + 3.0 * y, w)
        rhs = 2.0 * conv(x, w) + 3.0 * conv(y, w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5 * np.max(np.abs(lhs)))

    def test_shape_mismatch_errors(self):
        x = np.zeros((2, 4, 4, 4), dtype=np.float32)
        w = np.zeros((3, 3, 1, 1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="channel mismatch"):
            conv(x, w)
        with pytest.raises(ValueError, match="dtype"):
            conv(x, np.zeros((3, 2, 1, 1, 1), dtype=np.float64))


# Every conv call of a desk run (default config), a wide run (perfbench's
# 200x200x16 grid, stub depth) and acceptance check 9's run, in deploy and
# train mode: input shape, weight shape, bias, dilation, stride.
PIPELINE_CONVS = [
    # desk
    ((32, 10, 96, 8), (18, 32, 1, 1, 1), True, 1, 1),
    ((32, 6, 96, 8), (18, 32, 1, 1, 1), True, 1, 1),
    ((32, 12, 12), (32, 32, 3, 3), True, 1, 1),
    ((32, 24, 24), (32, 32, 3, 3), True, 1, 2),
    ((32, 48, 48), (32, 32, 1, 1), True, 1, 1),
    ((32, 48, 48), (32, 32, 3, 3), True, 1, 1),
    ((32, 48, 48), (32, 32, 3, 3), True, 1, 2),
    ((32, 48, 48), (4, 32, 1, 1), True, 1, 1),
    ((32, 48, 48, 4), (32, 32, 3, 3, 1), False, (3, 3, 1), 1),
    ((32, 48, 48, 4), (32, 32, 5, 5, 1), False, (2, 2, 1), 1),
    ((32, 48, 48, 4), (32, 32, 11, 11, 1), False, 1, 1),
    ((32, 48, 48, 4), (32, 32, 11, 11, 1), True, 1, 1),
    ((512, 48, 48), (32, 512, 3, 3), True, 1, 1),
    # wide
    ((128, 100, 100), (32, 128, 3, 3), True, 1, 1),
    ((32, 100, 100), (32, 32, 1, 1), True, 1, 1),
    ((32, 100, 100), (32, 32, 3, 3), True, 1, 1),
    ((32, 100, 100), (32, 32, 3, 3), True, 1, 2),
    ((32, 100, 100), (8, 32, 1, 1), True, 1, 1),
    ((32, 100, 100, 8), (32, 32, 3, 3, 1), False, (3, 3, 1), 1),
    ((32, 100, 100, 8), (32, 32, 5, 5, 1), False, (2, 2, 1), 1),
    ((32, 100, 100, 8), (32, 32, 11, 11, 1), False, 1, 1),
    ((32, 100, 100, 8), (32, 32, 11, 11, 1), True, 1, 1),
    ((32, 16, 44), (16, 32, 1, 1), True, 1, 1),
    ((32, 16, 44), (32, 32, 3, 3), True, 1, 1),
    ((32, 25, 25), (32, 32, 3, 3), True, 1, 1),
    ((32, 2, 200, 16), (18, 32, 1, 1, 1), True, 1, 1),
    ((32, 50, 50), (32, 32, 3, 3), True, 1, 2),
    # acceptance check 9
    ((32, 24, 24), (8, 32, 3, 3), True, 1, 1),
    ((8, 12, 12), (8, 8, 3, 3), True, 1, 2),
    ((8, 24, 24), (2, 8, 1, 1), True, 1, 1),
    ((8, 24, 24), (8, 8, 1, 1), True, 1, 1),
    ((8, 24, 24), (8, 8, 3, 3), True, 1, 1),
    ((8, 24, 24), (8, 8, 3, 3), True, 1, 2),
    ((8, 24, 24, 2), (8, 8, 3, 3, 1), False, (3, 3, 1), 1),
    ((8, 24, 24, 2), (8, 8, 5, 5, 1), False, (2, 2, 1), 1),
    ((8, 24, 24, 2), (8, 8, 11, 11, 1), False, 1, 1),
    ((8, 24, 24, 2), (8, 8, 11, 11, 1), True, 1, 1),
    ((8, 48, 48, 4), (18, 8, 1, 1, 1), True, 1, 1),
    ((8, 6, 6), (8, 8, 3, 3), True, 1, 1),
]

# Convs whose output slab_rows splits into several slabs, most with the
# last one short: (x, weight, bias, dilation, stride, dtype). The
# strided ones and the one with more than 256 input channels must still run
# as one slab. The one-row ones read every tap as a view.
EDGE_CONVS = {
    "3d-short-last-slab": ((32, 37, 16, 4), (32, 32, 3, 3, 1), True, 1, 1, np.float32),
    "3d-stride-2": ((32, 120, 20, 4), (32, 32, 3, 3, 3), True, 1, 2, np.float32),
    "3d-dilated": ((32, 41, 12, 4), (32, 32, 3, 3, 1), True, (2, 2, 1), 1, np.float32),
    "3d-one-row-in-place": ((32, 20, 100, 8), (32, 32, 3, 3, 1), True, 1, 1, np.float32),
    "3d-dilated-one-row-in-place": ((32, 20, 100, 8), (32, 32, 3, 3, 1), False, (2, 2, 1), 1, np.float32),
    "2d-short-last-slab": ((32, 80, 34), (32, 32, 3, 3), True, 1, 1, np.float32),
    "2d-stride-2": ((32, 200, 32), (32, 32, 3, 3), True, 1, 2, np.float32),
    "2d-300-input-channels": ((300, 100, 40), (32, 300, 3, 3), True, 1, 1, np.float32),
    "3d-float64": ((32, 50, 24, 2), (32, 32, 3, 3, 1), True, 1, 1, np.float64),
    "3d-float64-one-row-in-place": ((32, 20, 100, 8), (32, 32, 3, 3, 1), True, 1, 1, np.float64),
    "2d-float64-no-bias": ((32, 80, 34), (32, 32, 3, 3), False, 1, 1, np.float64),
}


def _conv_case(x_shape, w_shape, bias, dilation, stride, dtype):
    """Seeded input, weight and bias, and the dilation and stride as
    per-axis tuples."""
    rng = np.random.default_rng(len(x_shape) * 1000 + x_shape[1])
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal(w_shape).astype(dtype)
    b = rng.standard_normal(w_shape[0]).astype(dtype) if bias else None
    rank = len(w_shape) - 2
    dilation, stride = (
        (v,) * rank if isinstance(v, int) else tuple(v) for v in (dilation, stride)
    )
    return x, w, b, dilation, stride


def _tiled_and_untiled(*case):
    case = _conv_case(*case)
    return conv(*case), conv_nd_untiled(*case)


def _products(a, right):
    """The GEMMs of one ``np.matmul`` call, as (left, right) pairs: each of
    a stack's in turn, which numpy runs as one BLAS call apiece, or the
    one."""
    return list(zip(a, right)) if a.ndim == 3 else [(a, right)]


def _gemms(monkeypatch, x, w, b, dilation, stride):
    """``conv``'s output, and for each GEMM it ran, its output columns and
    where its right operand was read as a view: "input" for ``x``, "padded"
    for the padded copy of ``x`` that the conv made, None for a patch."""
    gemms, padded = [], []
    matmul, pad = np.matmul, np.pad

    def spy_pad(*args, **kwargs):
        padded.append(pad(*args, **kwargs))
        return padded[-1]

    def spy(a, right, out=None):
        for _, patch in _products(a, right):
            read = None
            if np.may_share_memory(patch, x):
                read = "input"
            elif any(np.may_share_memory(patch, p) for p in padded):
                read = "padded"
            gemms.append((patch.shape[1], read))
        return matmul(a, right, out=out)

    monkeypatch.setattr(np, "pad", spy_pad)
    monkeypatch.setattr(np, "matmul", spy)
    try:
        return conv(x, w, b, dilation, stride), gemms
    finally:
        monkeypatch.undo()


def _slab_gemms(monkeypatch, case):
    """``conv``'s output and the columns of each slab it ran, grouped by the
    thread that ran them, in the order each thread ran them. Each thread
    must run its slabs one at a time: every tap's GEMM in tap order, each
    over the slab's columns."""
    calls, matmul = [], np.matmul

    def spy(a, right, out=None):
        for w, patch in _products(a, right):
            calls.append((threading.get_ident(), w.ctypes.data, w.nbytes, patch.shape[1]))
        return matmul(a, right, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    try:
        got = conv(*case)
    finally:
        monkeypatch.undo()
    taps = prod(case[1].shape[2:])
    w_taps = min(ptr for _, ptr, _, _ in calls)  # the first tap's weight
    slabs = []
    for thread in dict.fromkeys(t for t, _, _, _ in calls):
        run = [(ptr, size, cols) for t, ptr, size, cols in calls if t == thread]
        assert len(run) % taps == 0
        for i in range(0, len(run), taps):
            slab = run[i : i + taps]
            assert [(ptr - w_taps) // size for ptr, size, _ in slab] == list(range(taps))
            assert len({cols for _, _, cols in slab}) == 1
            slabs.append(slab[0][2])
    return got, slabs


def _padded_row(trailing, kernel, dilation):
    """Columns of one output row when a conv reads its taps as windows:
    the product of the padded trailing extents."""
    return prod(n + e - 1 for n, e in zip(trailing, effective_extents(kernel, dilation)))


def _slabs(n_rows, row, rows):
    """Columns of each slab when ``n_rows`` rows go ``rows`` at a time."""
    return [min(rows, n_rows - r0) * row for r0 in range(0, n_rows, rows)]


class TestSlabTiling:
    @pytest.mark.parametrize(
        "x_shape,w_shape,bias,dilation,stride",
        PIPELINE_CONVS,
        ids=[
            "x".join(map(str, x)) + "-w" + "x".join(map(str, w))
            + ("-bias" if b else "") + ("-stride2" if s == 2 else "")
            for x, w, b, _, s in PIPELINE_CONVS
        ],
    )
    def test_pipeline_convs_match_untiled(self, x_shape, w_shape, bias, dilation, stride):
        got, want = _tiled_and_untiled(x_shape, w_shape, bias, dilation, stride, np.float32)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", list(EDGE_CONVS.values()), ids=list(EDGE_CONVS))
    def test_edge_convs_match_untiled(self, monkeypatch, case):
        """On one worker the slabs run in order; on two each worker's slabs
        may interleave with the other's, but each worker still runs a slab's
        taps in order over the slab's columns, and the bytes do not move."""
        case = _conv_case(*case)
        want = conv_nd_untiled(*case)
        x, w, b, dilation, stride = case
        out_rows, row = want.shape[1], prod(want.shape[2:])
        macs = w.shape[0] * w.shape[1]
        assert slab_rows(out_rows, row, macs) < out_rows
        one_slab = stride != (1,) * len(stride) or w.shape[1] > 256
        rows = out_rows if one_slab else slab_rows(out_rows, row, macs)
        if w.shape[1] > 256:  # a window read: rows span the padded extents
            row = _padded_row(want.shape[2:], w.shape[3:], dilation[1:])
        for workers in (1, 2):
            with conv_workers(workers):
                got, slabs = _slab_gemms(monkeypatch, case)
            if workers == 1:
                assert slabs == _slabs(out_rows, row, rows)
            assert sorted(slabs) == sorted(_slabs(out_rows, row, rows))
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "name, run_elems, stacks, copies",
        [
            ("3d-one-row-in-place", None, [3, 3, 3] * 20, 0),
            # room for two taps' GEMM outputs: any two taps' reads start a
            # fixed step apart, so the nine run as 2 + 2 + 2 + 2 + 1
            ("3d-one-row-in-place", 2 * 32 * 800, [2, 2, 2, 2, 1] * 20, 0),
            # copied taps: 37 rows in slabs of 15, 15 and 7, one copy per run
            ("3d-short-last-slab", None, [3, 3, 3] * 3, 9),
        ],
        ids=["views", "views-two-per-run", "copies"],
    )
    def test_taps_run_as_stacked_gemms(
        self, monkeypatch, name, run_elems, stacks, copies
    ):
        """Each slab of a 3x3x1 conv runs each kernel row's taps, whose reads
        start a fixed column step apart, as one stacked GEMM call, as far
        as ``RUN_ELEMS`` allows, and every tap keeps the untiled oracle's
        bytes. A slab that copies its taps copies each run in one call."""
        case = _conv_case(*EDGE_CONVS[name])
        calls, copied, matmul, copyto = [], [], np.matmul, np.copyto

        def spy(a, right, out=None):
            calls.append(len(_products(a, right)))
            return matmul(a, right, out=out)

        def spy_copy(dst, src, **kwargs):
            copied.append(dst.shape)
            return copyto(dst, src, **kwargs)

        if run_elems:
            monkeypatch.setattr(tensor, "RUN_ELEMS", run_elems)
        monkeypatch.setattr(np, "matmul", spy)
        monkeypatch.setattr(np, "copyto", spy_copy)
        with conv_workers(1):
            got = conv(*case)
        monkeypatch.undo()
        assert calls == stacks
        assert [shape[0] for shape in copied] == [3] * copies
        assert got.tobytes() == conv_nd_untiled(*case).tobytes()

    def test_columns_off_16_run_as_one_slab(self, monkeypatch):
        """OpenBLAS's small-matrix and regular kernels round the columns
        past the last multiple of 16 differently, so a conv whose output
        columns are not a multiple of 16 is not split, even over the
        cutoff."""
        case = _conv_case((32, 70, 33), (32, 32, 3, 3), True, 1, 1, np.float32)
        assert 70 * 33 % 16 and 70 * 33 * 32 * 32 > SMALL_GEMM_MACS
        assert slab_rows(70, 33, 32 * 32) == 70
        got, gemms = _gemms(monkeypatch, *case)
        assert [c for c, _ in gemms] == [70 * 33] * 9
        assert got.tobytes() == conv_nd_untiled(*case).tobytes()

    @pytest.mark.parametrize(
        "case",
        [EDGE_CONVS[k] for k in EDGE_CONVS if k.endswith("in-place")],
        ids=[k for k in EDGE_CONVS if k.endswith("in-place")],
    )
    def test_one_row_slabs_read_taps_in_place(self, monkeypatch, case):
        case = _conv_case(*case)
        got, gemms = _gemms(monkeypatch, *case)
        assert gemms and all(in_place for _, in_place in gemms)
        assert got.tobytes() == conv_nd_untiled(*case).tobytes()

    def test_padded_taps_are_copied(self, monkeypatch):
        _, gemms = _gemms(monkeypatch, *_conv_case(*EDGE_CONVS["3d-short-last-slab"]))
        assert not any(in_place for _, in_place in gemms)

    @pytest.mark.parametrize(
        "x_shape,cut,w_shape,stride,gemms",
        [
            # its slab skips rows and columns: each tap is copied
            ((32, 40, 30), np.s_[:, :, :21], (16, 32, 1, 1), 2, [(220, None)]),
            # each channel's rows are contiguous, so its flattened rows are
            # a view of the input, read a slab at a time
            ((32, 100, 100), np.s_[:, 10:58], (32, 32, 1, 1), 1,
             [(c, "input") for c in _slabs(4800, 1, 976)]),
            # its one-row slab is contiguous, but the input flattens only
            # through one copy
            ((32, 3, 30), np.s_[:, :, :21], (16, 32, 1, 1), (4, 1), [(21, None)]),
        ],
        ids=[
            "1x1-stride-2-column-slice", "pointwise-row-slice", "one-row-column-slice"
        ],
    )
    def test_unpadded_non_contiguous_inputs(
        self, monkeypatch, x_shape, cut, w_shape, stride, gemms
    ):
        x, w, b, dilation, stride = _conv_case(
            x_shape, w_shape, True, 1, stride, np.float32
        )
        x = x[cut]
        assert not x.flags.c_contiguous
        got, read = _gemms(monkeypatch, x, w, b, dilation, stride)
        assert read == gemms
        assert got.tobytes() == conv_nd_untiled(x, w, b, dilation, stride).tobytes()

    @pytest.mark.parametrize(
        "x_shape,w_shape,chunk",
        [
            ((32, 4, 200, 16), (18, 32, 1, 1, 1), 1728),
            ((32, 100, 100), (32, 32, 1, 1), 976),
        ],
        ids=["head-3d", "1x1-2d"],
    )
    def test_pointwise_convs_run_as_one_axis(
        self, monkeypatch, x_shape, w_shape, chunk
    ):
        case = _conv_case(x_shape, w_shape, True, 1, 1, np.float32)
        got, gemms = _gemms(monkeypatch, *case)
        assert [c for c, _ in gemms] == _slabs(prod(x_shape[1:]), 1, chunk)
        assert all(in_place for _, in_place in gemms)
        assert got.tobytes() == conv_nd_untiled(*case).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        n_rows=st.integers(1, 400),
        row=st.integers(1, 5000),
        macs=st.integers(1, 300_000),
    )
    def test_slabs_span_multiples_of_16_columns_under_the_cutoff(
        self, n_rows, row, macs
    ):
        rows = slab_rows(n_rows, row, macs)
        step = 16 // gcd(row, 16)
        assert 1 <= rows <= n_rows
        if rows < n_rows:
            assert rows * row % 16 == 0 and n_rows * row % 16 == 0
            assert rows * row * macs <= SMALL_GEMM_MACS or rows == step
            assert (rows + step) * row * macs > SMALL_GEMM_MACS


# Convs with more than 256 input channels that read each tap as a window
# of the flattened padded input: (x, weight, bias, dilation, stride, dtype).
WINDOW_CONVS = {
    "desk-fusion": ((512, 48, 48), (32, 512, 3, 3), True, 1, 1, np.float32),
    "2d-odd-extents": ((300, 24, 9), (32, 300, 3, 3), True, 1, 1, np.float32),
    "2d-dilated": ((300, 24, 12), (32, 300, 3, 3), True, (2, 2), 1, np.float32),
    "2d-even-4x4": ((300, 16, 13), (32, 300, 4, 4), True, 1, 1, np.float32),
    "3d-3x3x1": ((300, 8, 7, 8), (32, 300, 3, 3, 1), True, 1, 1, np.float32),
    "2d-float64-no-bias": ((300, 24, 9), (32, 300, 3, 3), False, 1, 1, np.float64),
    "2d-one-output-channel": ((300, 48, 40), (1, 300, 3, 3), True, 1, 1, np.float32),
    "2d-k-block": ((504, 48, 48), (24, 504, 3, 3), True, 1, 1, np.float32),
}

# Convs with more than 256 input channels that copy each tap into a patch
# instead, as one slab: strided, under the small-matrix cutoff, or with an
# output or window column count off a multiple of 8. Windows would change
# low bits of the last three.
COPIED_WIDE_CONVS = {
    "2d-stride-2": ((300, 20, 20), (32, 300, 3, 3), True, 1, 2, np.float32),
    "2d-odd-extents": ((300, 7, 9), (32, 300, 3, 3), True, 1, 1, np.float32),
    "2d-under-cutoff": ((300, 12, 12), (16, 300, 3, 3), True, 1, 1, np.float32),
    "2d-columns-off-8": ((300, 2, 102), (32, 300, 3, 3), True, 1, 1, np.float64),
    "2d-window-off-8": ((300, 2, 100), (64, 300, 3, 3), True, 1, 1, np.float64),
    # 153 columns: the float64 second GEMM takes the last 9, not one
    "2d-columns-one-past-8": ((300, 3, 51), (32, 300, 3, 3), True, 1, 1, np.float64),
    # over the cutoff only at the padded depth: 52 x 320 x 63 MACs, not 289
    "2d-padded-depth-split": ((289, 7, 9), (52, 289, 3, 3), True, 1, 1, np.float64),
}


# Every conv whose reads a spy test pins, by name.
READ_CONVS = {
    **{f"edge-{k}": v for k, v in EDGE_CONVS.items()},
    **{f"window-{k}": v for k, v in WINDOW_CONVS.items()},
    **{f"copied-wide-{k}": v for k, v in COPIED_WIDE_CONVS.items()},
}


@pytest.mark.parametrize("case", list(READ_CONVS.values()), ids=list(READ_CONVS))
def test_run_views_stay_inside_their_buffer(monkeypatch, case):
    """Each run of taps reads through one ``as_strided`` view, which numpy
    does not bounds-check, so each must lie within the bytes of the array
    it views. A window conv's read past its end would reach only columns
    the output drops, so no byte test would see it."""
    byte_bounds, strided, views = np.lib.array_utils.byte_bounds, tensor.as_strided, []

    def spy(arr, shape, strides):
        view = strided(arr, shape, strides)
        owner = arr if arr.base is None else arr.base
        views.append((byte_bounds(view), byte_bounds(owner)))
        return view

    monkeypatch.setattr(tensor, "as_strided", spy)
    conv(*_conv_case(*case))
    assert views
    for (lo, hi), (start, end) in views:
        assert start <= lo and hi <= end


class TestWindowRead:
    """A conv with more than 256 input channels runs one GEMM per tap over
    the whole output. Where OpenBLAS gives each column the same bytes at
    either column count, its right operand is a contiguous column window
    of the flattened padded input, not a copied patch."""

    @pytest.mark.parametrize("case", list(WINDOW_CONVS.values()), ids=list(WINDOW_CONVS))
    def test_taps_are_windows_of_the_padded_input(self, monkeypatch, case):
        case = _conv_case(*case)
        got, gemms = _gemms(monkeypatch, *case)
        x, w, b, dilation, stride = case
        cols = got.shape[1] * _padded_row(got.shape[2:], w.shape[3:], dilation[1:])
        assert gemms == [(cols, "padded")] * prod(w.shape[2:])
        want = conv_nd_untiled(*case)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "case", list(COPIED_WIDE_CONVS.values()), ids=list(COPIED_WIDE_CONVS)
    )
    def test_other_wide_convs_copy_one_slab(self, monkeypatch, case):
        case = _conv_case(*case)
        got, gemms = _gemms(monkeypatch, *case)
        w = case[1]
        cols = prod(got.shape[1:])
        # a float64 GEMM's columns past the last multiple of 8 run on their
        # own, for a stack of taps after the stack's leading columns
        split = gemm_split(cols, prod(gemm_shape(*w.shape[:2])), w.dtype)
        parts = [(split, None), (cols - split, None)] if split < cols else [(cols, None)]
        assert sorted(gemms) == sorted(parts * prod(w.shape[2:]))
        assert got.tobytes() == conv_nd_untiled(*case).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [True, False], ids=["window", "one-slab"])
    def test_matches_untiled_oracle(self, window, dtype, data):
        """Random convs with 257-399 input channels, on the window path or
        copied as one slab, give the bytes of the untiled oracle, one output
        channel included."""
        rank = data.draw(st.integers(2, 3))
        c_in = data.draw(st.integers(257, 399))
        # a 1x1 conv reads its input as a view, with no window to take
        kernel = data.draw(st.tuples(*[st.integers(1, 3)] * rank).filter(
            lambda k: window <= (max(k) > 1)))
        dilation = data.draw(st.tuples(*[st.integers(1, 2)] * rank))
        if window:
            # rows of 8 keep both column counts multiples of 8, and enough
            # output channels take the GEMM over the small-matrix cutoff
            trailing = (st.integers(16, 48),) if rank == 2 else (
                st.integers(4, 16), st.integers(2, 4))
            sp = (8 * data.draw(st.integers(1, 4)),) + data.draw(st.tuples(*trailing))
            stride = (1,) * rank
            least = max(2, SMALL_GEMM_MACS // (c_in * prod(sp)) + 1)
            # one output channel runs as a GEMM of two rows, over the
            # cutoff wherever two channels are
            c_out = data.draw(st.integers(1 if least == 2 else least, least + 8))
        else:
            # at most 1,000 outputs keep even two output channels' GEMM
            # under the cutoff, so no conv drawn here reads windows or
            # splits its columns
            sp = data.draw(st.tuples(*[st.integers(1, 12 if rank == 2 else 10)] * rank))
            stride = data.draw(st.tuples(*[st.integers(1, 2)] * rank))
            # per output channel at unit stride, at the GEMM's padded depth
            macs = gemm_shape(c_out=1, c_in=c_in)[1] * prod(sp)
            c_out = data.draw(st.integers(1, max(2, min(16, SMALL_GEMM_MACS // macs))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        x = rng.standard_normal((c_in,) + sp).astype(dtype)
        w = rng.standard_normal((c_out, c_in) + kernel).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype) if data.draw(st.booleans()) else None
        with pytest.MonkeyPatch.context() as mp:
            got, gemms = _gemms(mp, x, w, b, dilation, stride)
        if window:
            cols = got.shape[1] * _padded_row(got.shape[2:], kernel[1:], dilation[1:])
            assert gemms == [(cols, "padded")] * prod(kernel)
        else:
            assert [c for c, _ in gemms] == [prod(got.shape[1:])] * prod(kernel)
        assert got.tobytes() == conv_nd_untiled(x, w, b, dilation, stride).tobytes()

    def test_no_patch_buffer(self):
        """The desk fusion conv holds its padded input, its accumulator
        buffers and its output, but no copy of a tap: at most 1.75 times
        its input's bytes above its start."""
        x, w, b, dilation, stride = _conv_case(*WINDOW_CONVS["desk-fusion"])
        _, peak = traced_peak(conv, x, w, b)
        assert peak <= 1.75 * x.nbytes, f"{peak / 1e6:.2f} MB"

    @pytest.mark.parametrize(
        "c_in,depth", [(256, 256), (257, 288), (452, 480), (504, 512), (512, 512)]
    )
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3)], ids=["pointwise", "3x3"])
    def test_gemm_depth_past_256_is_a_multiple_of_32(
        self, monkeypatch, c_in, depth, kernel
    ):
        """Past 256 input channels every GEMM runs on the next multiple of
        32, the extra input channels and weight columns zero, which leaves
        the sums unchanged."""
        x, w, b, dilation, stride = _conv_case(
            (c_in, 6, 5), (4, c_in) + kernel, True, 1, 1, np.float64
        )
        depths, matmul = [], np.matmul

        def spy(a, right, out=None):
            depths.extend((w.shape[1], patch.shape[0]) for w, patch in _products(a, right))
            return matmul(a, right, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        got = conv(x, w, b, dilation, stride)
        monkeypatch.undo()
        assert depths and set(depths) == {(depth, depth)}
        np.testing.assert_allclose(
            got, conv_nd_loops(x, w, b, dilation, stride), rtol=1e-12, atol=1e-12
        )


# Every single-tap conv of a desk, wide and check-9 run (input, weight), as
# recorded from their run_pipeline calls: the head on each tail slab, the
# BVL context and height convs and the stub depth head. The encoder's 1x1
# skip runs only when the refined width differs from the base width, which
# none of the three configs sets, so it is taken at desk's map with 16
# refined channels.
SINGLE_TAP_CONVS = {
    "desk-head-slab": ((32, 10, 96, 8), (18, 32, 1, 1, 1)),
    "desk-head-last-slab": ((32, 6, 96, 8), (18, 32, 1, 1, 1)),
    "desk-bvl-context": ((32, 48, 48), (32, 32, 1, 1)),
    "desk-bvl-height": ((32, 48, 48), (4, 32, 1, 1)),
    "desk-encoder-skip": ((32, 48, 48), (16, 32, 1, 1)),
    "wide-head-slab": ((32, 2, 200, 16), (18, 32, 1, 1, 1)),
    "wide-bvl-context": ((32, 100, 100), (32, 32, 1, 1)),
    "wide-bvl-height": ((32, 100, 100), (8, 32, 1, 1)),
    "wide-stub": ((32, 16, 44), (16, 32, 1, 1)),
    "check9-head": ((8, 48, 48, 4), (18, 8, 1, 1, 1)),
    "check9-bvl-context": ((8, 24, 24), (8, 8, 1, 1)),
    "check9-bvl-height": ((8, 24, 24), (2, 8, 1, 1)),
}


def _signed_zero_matmul(monkeypatch):
    """Make ``np.matmul`` return -0.0 for every zero it computes, as a BLAS
    whose accumulators start at -0.0 could; the installed one gives +0.0."""
    matmul = np.matmul

    def negative_zeros(a, b, out=None):
        y = matmul(a, b, out=out)
        np.copysign(y, -1.0, out=y, where=y == 0)
        return y

    monkeypatch.setattr(np, "matmul", negative_zeros)


class TestAccumulatorStart:
    """``conv`` starts each slab's accumulator with the first tap's GEMM
    and adds the bias (or 0.0) on the way into the output, so a one-tap conv
    is one GEMM and one add. ``conv_nd_untiled``, which zero-fills its
    accumulator, adds every tap's product and then the bias, is its byte
    oracle."""

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize(
        "case", list(SINGLE_TAP_CONVS.values()), ids=list(SINGLE_TAP_CONVS)
    )
    def test_pipeline_shapes_match_accumulator(self, case, bias):
        x_shape, w_shape = case
        case = _conv_case(x_shape, w_shape, bias, 1, 1, np.float32)
        got = conv(*case)
        want = conv_nd_untiled(*case)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("signed_gemm", [False, True], ids=["blas", "neg-zero-blas"])
    @pytest.mark.parametrize("bias", ["none", "signed-zeros"])
    @pytest.mark.parametrize(
        "kernel, stride",
        [((1, 1), 1), ((1, 1), 2), ((3, 3), 1), ((3, 1), 2)],
        ids=["1x1", "1x1-stride-2", "3x3", "3x1-stride-2"],
    )
    def test_zero_columns_and_signed_zero_bias(
        self, monkeypatch, kernel, stride, dtype, signed_gemm, bias
    ):
        """All-zero input columns under negative weights, and a bias that
        holds -0.0 and +0.0: every output byte, sign bits included, is the
        zero-filled accumulator's, also when the GEMM itself returns -0.0."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 6, 16)).astype(dtype)
        x[:, :, 3:9] = 0.0
        w = -np.abs(rng.standard_normal((6, 8) + kernel)).astype(dtype)
        b = None if bias == "none" else np.array([-0.0, 0.0, -0.0, 1.5, -0.0, -2.0], dtype)
        if signed_gemm:
            _signed_zero_matmul(monkeypatch)
        got = conv(x, w, b, (1, 1), (stride, stride))
        want = conv_nd_untiled(x, w, b, (1, 1), (stride, stride))
        assert (got == 0).any()
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0]).any()


class TestConv2d:
    @pytest.mark.parametrize(
        "stride", [(1, 1), (2, 2), (1, 2)]
    )
    def test_matches_nested_loop_oracle(self, stride):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6, 6))
        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        np.testing.assert_allclose(
            conv(x, w, b, stride=stride),
            conv_nd_loops(x, w, b, (1, 1), stride),
            atol=1e-12,
        )


@st.composite
def conv_geometries(draw):
    """A 2D or 3D conv: kernel 1-4, dilation 1-3 and stride 1-2 per axis,
    input extents 1-5, one or two channels in and out."""
    rank = draw(st.sampled_from([2, 3]))

    def axes(lo, hi):
        return tuple(draw(st.integers(lo, hi)) for _ in range(rank))

    kernel, dilation, stride = axes(1, 4), axes(1, 3), axes(1, 2)
    c_in, c_out = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return (dilation, stride), (c_in,) + axes(1, 5), (c_out, c_in) + kernel


class TestCentredPaddingProperty:
    @settings(max_examples=40, deadline=None)
    @given(case=conv_geometries(), seed=st.integers(0, 2**16), bias=st.booleans())
    def test_matches_loops_on_explicitly_padded_input(self, case, seed, bias):
        """``conv`` equals the nested loops run on the input padded with
        floor((e-1)/2) zeros low and the rest high per axis."""
        (dilation, stride), x_shape, w_shape = case
        rng = np.random.default_rng(seed)
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[0]) if bias else None
        got = conv(x, w, b, dilation, stride)
        out_sp = tuple((n - 1) // s + 1 for n, s in zip(x_shape[1:], stride))
        assert got.shape == (w_shape[0],) + out_sp
        want = conv_nd_loops(x, w, b, dilation, stride)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSoftmax:
    def test_uniform_logits(self):
        x = np.zeros((8, 3))
        np.testing.assert_allclose(softmax(x, axis=0), np.full((8, 3), 0.125))

    def test_saturation(self):
        y = softmax(np.array([0.0, 60.0]), axis=0)
        assert y[0] == pytest.approx(0.0, abs=1e-20)
        assert y[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5, 6))
        want = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(softmax(x, axis=1), want, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-50, 50, (3, 9))
        np.testing.assert_allclose(softmax(x, axis=1).sum(axis=1), 1.0, atol=1e-6)

    def test_large_logits_stable(self):
        y = softmax(np.array([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(y, [0.5, 0.5])


# Upsample inputs of a desk, wide and check-9 run: the tail's x-slabs and
# the 2D encoder's two upsamples.
UPSAMPLE_INPUTS = {
    "desk-tail-slab": (32, 5, 48, 4),
    "desk-tail-last-slab": (32, 3, 48, 4),
    "wide-tail-slab": (32, 1, 100, 8),
    "check9-tail": (8, 24, 24, 2),
    "desk-encoder-up1": (32, 12, 12),
    "desk-encoder-up2": (32, 24, 24),
    "wide-encoder-up1": (32, 25, 25),
    "wide-encoder-up2": (32, 50, 50),
    "check9-encoder-up1": (8, 6, 6),
    "check9-encoder-up2": (8, 12, 12),
}


class TestUpsample2x:
    def test_extents_double(self):
        x = np.zeros((1, 100, 100, 8), dtype=np.float32)
        w = np.zeros((1, 1, 2, 2, 2), dtype=np.float32)
        assert upsample2x(x, w, np.zeros(1, np.float32)).shape == (1, 200, 200, 16)

    def test_constant_input_all_ones_kernel(self):
        x = np.full((1, 3, 3, 3), 4.0)
        w = np.ones((1, 1, 2, 2, 2))
        np.testing.assert_array_equal(
            upsample2x(x, w, np.zeros(1)), np.full((1, 6, 6, 6), 4.0)
        )

    def test_block_expansion_oracle_3d(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 3, 4, 2))
        w = rng.standard_normal((3, 2, 2, 2, 2))
        b = rng.standard_normal(2)
        want = np.zeros((2, 6, 8, 4))
        for o in range(2):
            for i in range(3):
                for xx in range(3):
                    for yy in range(4):
                        for zz in range(2):
                            for a in range(2):
                                for bb in range(2):
                                    for c in range(2):
                                        want[o, 2 * xx + a, 2 * yy + bb, 2 * zz + c] += (
                                            x[i, xx, yy, zz] * w[i, o, a, bb, c]
                                        )
        want += b[:, None, None, None]
        np.testing.assert_allclose(upsample2x(x, w, b), want, atol=1e-12)

    def test_block_expansion_oracle_2d(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 5))
        w = rng.standard_normal((2, 4, 2, 2))
        want = np.zeros((4, 6, 10))
        for o in range(4):
            for i in range(2):
                for xx in range(3):
                    for yy in range(5):
                        for a in range(2):
                            for bb in range(2):
                                want[o, 2 * xx + a, 2 * yy + bb] += (
                                    x[i, xx, yy] * w[i, o, a, bb]
                                )
        np.testing.assert_allclose(upsample2x(x, w, np.zeros(4)), want, atol=1e-12)

    def test_rejects_wrong_kernel(self):
        x = np.zeros((1, 4, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="extents"):
            upsample2x(
                x, np.zeros((1, 1, 3, 3, 3), dtype=np.float32), np.zeros(1, np.float32)
            )

    def test_rejects_integer_input(self):
        x = np.zeros((2, 4, 4), dtype=np.int64)
        w = np.zeros((2, 3, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="input must be float32 or float64, got int64"):
            upsample2x(x, w, np.zeros(3, dtype=np.int64))

    def test_rejects_bias_of_other_dtype(self):
        x = np.zeros((2, 4, 4), dtype=np.float32)
        w = np.zeros((2, 3, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="bias dtype float64 != input dtype float32"):
            upsample2x(x, w, np.zeros(3))

    def test_rejects_column_bias(self):
        x = np.zeros((2, 4, 4), dtype=np.float32)
        w = np.zeros((2, 3, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match=r"bias must have shape \(3,\), got \(3, 1\)"):
            upsample2x(x, w, np.zeros((3, 1), dtype=np.float32))

    def test_rejects_bias_of_other_length(self):
        x = np.zeros((2, 4, 4, 4), dtype=np.float32)
        w = np.zeros((2, 3, 2, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match=r"bias must have shape \(3,\), got \(4,\)"):
            upsample2x(x, w, np.zeros(4, dtype=np.float32))

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "zero-bias"])
    @pytest.mark.parametrize(
        "shape", list(UPSAMPLE_INPUTS.values()), ids=list(UPSAMPLE_INPUTS)
    )
    def test_matches_interleaving_oracle(self, shape, bias):
        """Bytes of both older forms: the one-GEMM interleaving upsample and
        the per-block strided add."""
        rank = len(shape) - 1
        rng = np.random.default_rng(prod(shape))
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal((shape[0], shape[0]) + (2,) * rank).astype(np.float32)
        b = (rng.standard_normal(shape[0]) if bias else np.zeros(shape[0])).astype(np.float32)
        got = upsample2x(x, w, b)
        want = upsample2x_interleaved(x, w, b, rank)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == upsample2x_strided_add(x, w, b).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("signed_gemm", [False, True], ids=["blas", "neg-zero-blas"])
    def test_signed_zero_bias_matches_strided_add(self, monkeypatch, dtype, signed_gemm):
        """Zero input cells under negative weights plus a bias of -0.0 and
        +0.0 entries: the in-place add gives the strided add's sign bits."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3, 5, 2)).astype(dtype)
        x[:, 1] = 0.0
        w = -np.abs(rng.standard_normal((4, 4, 2, 2, 2))).astype(dtype)
        b = np.array([-0.0, 0.0, -0.0, 0.25], dtype)
        if signed_gemm:
            _signed_zero_matmul(monkeypatch)
        got = upsample2x(x, w, b)
        assert got.tobytes() == upsample2x_strided_add(x, w, b).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in", [1, 3, 8, 32, 64, 300])
    @pytest.mark.parametrize("c_out", [1, 2, 24])
    def test_x_slabs_match_the_whole(self, c_out, c_in, dtype):
        """Each x-slab's upsample has the bytes of the whole upsample's
        matching rows, as ``run_pipeline``'s tail needs, whatever the
        slab's column count: a one-channel weight runs as a GEMM of two
        rows, and no float64 GEMM leaves one column to a product of its
        own. Past OpenBLAS's K block a slab's bytes may differ, as a tiled
        conv's would."""
        rng = np.random.default_rng(100 * c_in + c_out)
        x = rng.standard_normal((c_in, 16, 37, 5)).astype(dtype)
        w = rng.standard_normal((c_in, c_out, 2, 2, 2)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        whole = upsample2x(x, w, b)
        for cut in (3, 7, 13):
            for lo, hi in ((0, cut), (cut, 16)):
                got = upsample2x(x[:, lo:hi], w, b)
                assert got.tobytes() == whole[:, 2 * lo : 2 * hi].tobytes(), (lo, hi)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in,depth", [(256, 256), (257, 288), (452, 480)])
@pytest.mark.parametrize("c_out", [1, 4])
@pytest.mark.parametrize("kernel", ["conv", "upsample2x"])
def test_every_product_has_the_gemm_shape(monkeypatch, kernel, c_out, c_in, depth, dtype):
    """Every product ``conv`` and ``upsample2x`` run has the rows and
    depth of ``gemm_shape``: at least two rows and, past 256 input
    channels, the next multiple of 32 as its depth, the extra rows and
    depth zero, which leaves the sums unchanged."""
    rng = np.random.default_rng(c_in + c_out)
    x = rng.standard_normal((c_in, 6, 5, 2)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    if kernel == "conv":
        w = rng.standard_normal((c_out, c_in, 3, 3, 1)).astype(dtype)
        run, want = conv, lambda: conv_nd_untiled(x, w, b, (1, 1, 1), (1, 1, 1))
    else:
        w = rng.standard_normal((c_in, c_out, 2, 2, 2)).astype(dtype)
        run, want = upsample2x, lambda: upsample2x_interleaved(x, w, b, 3)
    shapes, matmul = [], np.matmul

    def spy(a, right, out=None):
        shapes.extend((w.shape, patch.shape[0]) for w, patch in _products(a, right))
        return matmul(a, right, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    got = run(x, w, b)
    monkeypatch.undo()
    assert gemm_shape(c_out, c_in) == (max(c_out, 2), depth)
    assert shapes and set(shapes) == {((max(c_out, 2), depth), depth)}
    tol = 1e-4 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(got, want(), rtol=tol, atol=tol)


# One conv in a fresh interpreter: OpenBLAS reads its thread count once,
# when it loads.
_THREAD_CHILD = """
import hashlib
import numpy as np
from occkit.tensor import conv
rng = np.random.default_rng(7)
x = rng.standard_normal({x_shape}).astype(np.float32)
w = rng.standard_normal({w_shape}).astype(np.float32)
y = conv(x, w)
print(y.shape, hashlib.sha256(y.tobytes()).hexdigest())
"""


def _at_one_and_two_threads(program, *args):
    """What ``program`` prints in a fresh interpreter with one and then two
    OpenBLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        child = subprocess.run(
            [sys.executable, "-c", program, *args],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        outs.append(child.stdout)
    return outs


def _conv_at_one_and_two_threads(x_shape, w_shape):
    """The output shape and sha256 of a seeded conv, printed by a fresh
    interpreter with one and then two OpenBLAS threads."""
    return _at_one_and_two_threads(_THREAD_CHILD.format(x_shape=x_shape, w_shape=w_shape))


def test_wide_branch_conv_independent_of_blas_threads():
    """The 11x11x1 branch conv of a wide run, whose one-row slabs read taps
    as views, gives the same bytes with one and two BLAS threads."""
    outs = _conv_at_one_and_two_threads((32, 100, 100, 8), (32, 32, 11, 11, 1))
    assert outs[0].startswith("(32, 100, 100, 8) ")
    assert outs[0] == outs[1]


def test_fusion_conv_independent_of_blas_threads():
    """The desk fusion conv, whose K = 512 GEMMs over padded windows are the
    only pipeline GEMMs large enough for OpenBLAS to split between threads,
    gives the same bytes with one and two BLAS threads."""
    outs = _conv_at_one_and_two_threads((512, 48, 48), (32, 512, 3, 3))
    assert outs[0].startswith("(32, 48, 48) ")
    assert outs[0] == outs[1]


def test_one_output_channel_conv_independent_of_blas_threads():
    """A conv with one output channel runs each tap as a GEMM of two rows,
    not as a BLAS vector-matrix product, whose bytes follow the thread
    count, and so gives the same bytes with one and two BLAS threads."""
    outs = _conv_at_one_and_two_threads((361, 88, 51), (1, 361, 3, 3))
    assert outs[0].startswith("(1, 88, 51) ")
    assert outs[0] == outs[1]


# The batch's convs by read path, each in float32 and float64: shapes whose
# read path a spy test pins (the pointwise one in
# ``test_pointwise_convs_run_as_one_axis``).
BATCH_CONVS = {
    "view": EDGE_CONVS["3d-one-row-in-place"],
    "pointwise-view": ((32, 100, 100), (32, 32, 1, 1), True, 1, 1, np.float32),
    "window": WINDOW_CONVS["2d-odd-extents"],
    "patch": EDGE_CONVS["3d-short-last-slab"],
    "one-output-channel": WINDOW_CONVS["2d-one-output-channel"],
    "stride": EDGE_CONVS["2d-stride-2"],
    "dilation": EDGE_CONVS["3d-dilated"],
    # input channels past OpenBLAS's K block and off a multiple of 32
    "window-k-block": WINDOW_CONVS["2d-k-block"],
    "pointwise-k-block": ((452, 48, 48), (24, 452, 1, 1), True, 1, 1, np.float32),
}
BATCH_RANDOM_CONVS, BATCH_YAWS, BATCH_LIFTS = 12, (0.1, 0.7, 2.0, -2.9), 3
# 1,100 cells: a float64 upsample GEMM over the cutoff, off a multiple of 8
BATCH_UPSAMPLE = (32, 10, 10, 11)
# upsample input channels past OpenBLAS's K block and off a multiple of 32
BATCH_K_UPSAMPLES = ((452, np.float32), (392, np.float64))


def thread_batch():
    """Seeded outputs, each as (label, array): the ``BATCH_CONVS`` in both
    dtypes, random convs, upsamples, yawed warps, lifts through one plan
    and the ``BATCH_K_UPSAMPLES``."""
    outs = []
    for name, (x_shape, w_shape, bias, dilation, stride, _) in BATCH_CONVS.items():
        for dtype in (np.float32, np.float64):
            case = _conv_case(x_shape, w_shape, bias, dilation, stride, dtype)
            outs.append((f"conv-{name}-{np.dtype(dtype)}", conv(*case)))
    rng = np.random.default_rng(27)
    for i in range(BATCH_RANDOM_CONVS):
        rank = int(rng.integers(1, 4))
        sp = tuple(int(n) for n in rng.integers(1, (0, 400, 40, 16)[rank], rank))
        c_in, c_out = int(rng.integers(1, 300)), int(rng.integers(1, 33))
        dtype = (np.float32, np.float64)[i % 2]
        x = rng.standard_normal((c_in,) + sp).astype(dtype)
        kernel = tuple(int(k) for k in rng.integers(1, 4, rank))
        w = rng.standard_normal((c_out, c_in) + kernel).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        dilation, stride = rng.integers(1, 3, rank), rng.integers(1, 3, rank)
        outs.append((f"conv-random-{i}", conv(x, w, b, dilation, stride)))
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal(BATCH_UPSAMPLE).astype(dtype)
        w = rng.standard_normal((32, 32, 2, 2, 2)).astype(dtype)
        b = rng.standard_normal(32).astype(dtype)
        outs.append((f"upsample-{np.dtype(dtype)}", upsample2x(x, w, b)))
    grid = GridSpec((-24.0, -24.0, -1.0), (24.0, 24.0, 3.0), (96, 96, 8))
    b_hist = rng.standard_normal((32, 96, 96)).astype(np.float32)
    now = EgoPose.from_yaw(-0.4, (0.3, 1.2, 0.0))
    for yaw in BATCH_YAWS:
        pose = EgoPose.from_yaw(yaw, (1.5, -0.5, 0.0))
        outs.append((f"warp-{yaw}", warp_bev(b_hist, pose, now, grid)))
    cams = camera_ring(6, (64, 176), (8, 22), focal=100.0)
    plan = LiftPlan.build(cams, bin_centers(1.0, 40.0, 32), grid)
    for i in range(BATCH_LIFTS):
        features = rng.standard_normal((6, 16, 8, 22)).astype(np.float32)
        probs = softmax(rng.standard_normal((6, 32, 8, 22)), axis=1).astype(np.float32)
        outs.append((f"lift-{i}", lift_splat(features, DepthDistribution(probs), plan)))
    for c_in, dtype in BATCH_K_UPSAMPLES:
        x = rng.standard_normal((c_in, 24, 24, 4)).astype(dtype)
        w = rng.standard_normal((c_in, 24, 2, 2, 2)).astype(dtype)
        b = rng.standard_normal(24).astype(dtype)
        outs.append((f"upsample-k{c_in}-{np.dtype(dtype)}", upsample2x(x, w, b)))
    return outs


_BATCH_CHILD = """
import hashlib
import sys
sys.path.insert(0, sys.argv[1])
import test_tensor
for label, out in test_tensor.thread_batch():
    print(label, out.dtype, out.shape, hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_seeded_batch_independent_of_blas_threads():
    """Every output of ``thread_batch`` has the same bytes with one and two
    BLAS threads: convs on every read path, strided, dilated and with one
    output channel, in both dtypes; random convs; upsamples, also past the
    K block; yawed warps; and lifts through one ``LiftPlan``."""
    outs = _at_one_and_two_threads(_BATCH_CHILD, str(Path(__file__).resolve().parent))
    lines = outs[0].splitlines()
    assert len(lines) == (
        2 * len(BATCH_CONVS) + BATCH_RANDOM_CONVS + 2 + len(BATCH_YAWS) + BATCH_LIFTS
        + len(BATCH_K_UPSAMPLES)
    )
    assert outs[0] == outs[1]


class TestWorkers:
    """``conv`` hands its slabs to ``tensor.WORKERS`` threads: the calling
    thread and threads that the conv starts and joins before it returns.
    The worker count moves no byte, an error on any worker reaches the
    caller once every worker has stopped, and no thread outlives the
    call."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_worker_count_moves_no_byte(self, data):
        """Random convs give the untiled oracle's bytes on one worker and on
        two: convs of several slabs, the last often short; window convs past
        256 input channels; float64 convs whose GEMMs split off their tail
        columns; dilated and strided convs. Convs of one slab run on the calling
        thread at any worker count."""
        rank = data.draw(st.integers(1, 3), label="rank")
        if data.draw(st.sampled_from((False, False, True)), label="past 256 channels"):
            c_in, cols = data.draw(st.integers(257, 320)), 600
        else:
            c_in, cols = data.draw(st.integers(16, 48)), 8000
        c_out = data.draw(st.one_of(st.integers(16, 40), st.integers(1, 15)))
        # The trailing extents, then a first extent within the column budget:
        # any, or a multiple of the slab step near the budget, which gives
        # several slabs wherever the GEMM is over the cutoff.
        trailing = data.draw(st.tuples(*[st.integers(1, 24)] * (rank - 1)))
        row = prod(trailing)
        step = 16 // gcd(row, 16)
        most = max(1, cols // (row * step))
        n0 = data.draw(st.one_of(
            st.integers(1, max(1, cols // row)),
            st.integers(max(1, most // 2), most).map(lambda m: m * step),
        ))
        sp = (n0,) + trailing
        kernel = data.draw(st.tuples(*[st.integers(1, 3)] * rank))
        dilation = data.draw(st.tuples(*[st.integers(1, 2)] * rank))
        stride = data.draw(st.one_of(
            st.just((1,) * rank), st.tuples(*[st.integers(1, 2)] * rank)
        ))
        dtype = data.draw(st.sampled_from((np.float32, np.float64)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        x = rng.standard_normal((c_in,) + sp).astype(dtype)
        w = rng.standard_normal((c_out, c_in) + kernel).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype) if data.draw(st.booleans()) else None
        outs = []
        for workers in (1, 2):
            with conv_workers(workers):
                outs.append(conv(x, w, b, dilation, stride))
        assert outs[0].tobytes() == outs[1].tobytes()
        assert outs[0].tobytes() == conv_nd_untiled(x, w, b, dilation, stride).tobytes()

    def test_more_workers_than_cpus_run_each_slab_once(self, monkeypatch):
        """Six workers, with the interpreter switching threads every
        microsecond, run each slab once, every one of its taps' GEMMs, and
        give the bytes of one worker."""
        case = _conv_case(*EDGE_CONVS["3d-one-row-in-place"])  # 20 slabs, 9 taps
        with conv_workers(1):
            want = conv(*case)
        gemm, calls, outs = tensor._gemm, [], []

        def counted(w, x, out):
            calls.extend([threading.get_ident()] * len(w))  # a stack of tap GEMMs
            gemm(w, x, out)

        def convs():
            with conv_workers(6):
                outs.extend(conv(*case) for _ in range(5))

        monkeypatch.setattr(tensor, "_gemm", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=convs)
            runner.start()
            runner.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(calls) == 5 * 20 * 9
        assert [out.tobytes() for out in outs] == [want.tobytes()] * 5

    def test_forked_child_starts_its_own_pool(self):
        """A child forked after a threaded conv gives that conv's bytes: its
        conv starts threads of its own, as every threaded conv does."""
        case = _conv_case(*EDGE_CONVS["3d-one-row-in-place"])
        with conv_workers(2):
            want = conv(*case)
            pid = os.fork()
            if pid == 0:
                os._exit(0 if conv(*case).tobytes() == want.tobytes() else 1)
        for _ in range(600):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.1)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's conv did not return within 60 s")
        assert os.waitstatus_to_exitcode(status) == 0

    @staticmethod
    def _fail_on_a_started_thread(monkeypatch, case):
        """Run ``case`` on two workers with a GEMM that fails on the thread
        the conv started, and check that the error reaches the caller."""
        gemm, caller, pool_failed = tensor._gemm, threading.get_ident(), threading.Event()

        def failing(w, x, out):
            if threading.get_ident() == caller:
                pool_failed.wait(30)  # the started thread claims a slab meanwhile
            else:
                pool_failed.set()
                raise RuntimeError("pool GEMM failed")
            gemm(w, x, out)

        with conv_workers(2):
            monkeypatch.setattr(tensor, "_gemm", failing)
            with pytest.raises(RuntimeError, match="pool GEMM failed"):
                conv(*case)
            monkeypatch.undo()
        assert pool_failed.is_set()

    def test_pool_thread_error_reaches_the_caller(self, monkeypatch):
        """A GEMM that fails on a thread the conv started raises in the
        caller, and the next conv on two workers gives the bytes of one
        worker."""
        case = _conv_case(*EDGE_CONVS["3d-one-row-in-place"])
        with conv_workers(1):
            want = conv(*case)
        self._fail_on_a_started_thread(monkeypatch, case)
        with conv_workers(2):
            assert conv(*case).tobytes() == want.tobytes()

    @pytest.mark.parametrize("outcome", ["returns", "fails"])
    def test_no_conv_thread_outlives_its_call(self, monkeypatch, outcome):
        """No thread that a conv started is alive once the conv has returned
        on six workers, or once an error on one of its threads has reached
        the caller."""
        case = _conv_case(*EDGE_CONVS["3d-one-row-in-place"])
        if outcome == "returns":
            with conv_workers(6):
                conv(*case)
        else:
            self._fail_on_a_started_thread(monkeypatch, case)
        assert conv_threads() == []

    def test_calling_thread_error_waits_for_the_pool(self, monkeypatch):
        """A GEMM that fails on the calling thread raises only once the
        threads the conv started have run their last GEMM of that conv, and
        the next conv on two workers gives the bytes of one worker."""
        case = _conv_case(*EDGE_CONVS["3d-one-row-in-place"])
        with conv_workers(1):
            want = conv(*case)
        gemm, caller, pool_started = tensor._gemm, threading.get_ident(), threading.Event()
        pool = {"running": 0, "done": 0}

        def failing(w, x, out):
            if threading.get_ident() == caller:
                pool_started.wait(30)
                raise RuntimeError("caller GEMM failed")
            pool_started.set()
            pool["running"] += 1
            gemm(w, x, out)
            time.sleep(0.001)  # still at work when the caller fails
            pool["running"] -= 1
            pool["done"] += 1

        with conv_workers(2):
            monkeypatch.setattr(tensor, "_gemm", failing)
            with pytest.raises(RuntimeError, match="caller GEMM failed"):
                conv(*case)
            monkeypatch.undo()
            done = pool["done"]
            assert pool["running"] == 0 and done > 0
            time.sleep(0.05)
            assert pool["done"] == done
            assert conv(*case).tobytes() == want.tobytes()


class TestRng:
    def test_named_streams_reproducible(self):
        a = rng_named(42, "alpha").standard_normal(8)
        b = rng_named(42, "alpha").standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_named_streams_decorrelated(self):
        a = rng_named(42, "alpha").standard_normal(8)
        b = rng_named(42, "beta").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = rng_named(1, "alpha").standard_normal(8)
        b = rng_named(2, "alpha").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_uniform_init_bounds(self):
        w = uniform_init(rng_named(0, "w"), (64, 64), fan_in=16)
        assert w.dtype == np.float32
        assert np.max(np.abs(w)) <= 0.25

    def test_conv_init_draws_weight_then_bias(self):
        """One stream, weight first, both at fan-in C_in * taps = 16."""
        w, b = conv_init(rng_named(0, "c"), 3, 4, (2, 2))
        rng = rng_named(0, "c")
        expected_w = uniform_init(rng, (3, 4, 2, 2), fan_in=16)
        expected_b = uniform_init(rng, (3,), fan_in=16)
        assert w.dtype == b.dtype == np.float32
        assert w.tobytes() == expected_w.tobytes() and w.shape == expected_w.shape
        assert b.tobytes() == expected_b.tobytes() and b.shape == (3,)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_upsample_init_draws_weight_then_bias(self, rank):
        """One stream, the (C_in, C_out, 2..) weight first, both at fan-in
        C_in = 4 alone."""
        layer = upsample_init(rng_named(0, "u"), 4, 3, rank)
        rng = rng_named(0, "u")
        expected_w = uniform_init(rng, (4, 3) + (2,) * rank, fan_in=4)
        expected_b = uniform_init(rng, (3,), fan_in=4)
        assert isinstance(layer, Conv)
        w, b = layer
        assert w.dtype == b.dtype == np.float32
        assert w.tobytes() == expected_w.tobytes() and w.shape == expected_w.shape
        assert b.tobytes() == expected_b.tobytes() and b.shape == (3,)


class TestCast:
    def test_named_tuple_keeps_type(self):
        layer = conv_init(rng_named(0, "c"), 3, 4, (1, 1))
        wide = cast(layer, np.float64)
        assert isinstance(wide, Conv)
        assert wide.weight.dtype == wide.bias.dtype == np.float64

    def test_nested_dataclass(self):
        rng = np.random.default_rng(0)
        branch = ConvBranchSpec(
            rng.standard_normal((2, 1, 3, 3, 1)).astype(np.float32),
            (2, 2, 1),
            BatchNormParams(*(np.full(2, v, np.float32) for v in (0.0, 1.0, 1.0, 0.0))),
        )

        def arrays(b):
            return [b.weight, b.bn.mean, b.bn.std, b.bn.gamma, b.bn.beta]

        wide = cast(branch, np.float64)
        assert wide.dilation == (2, 2, 1)
        assert all(a.dtype == np.float64 for a in arrays(wide))
        same = cast(branch, np.float32)
        assert all(a is b for a, b in zip(arrays(same), arrays(branch)))
