"""Dense tensor primitives: one convolution (``conv``, of any rank), softmax,
exact 2x transpose-conv upsampling (``upsample2x``, 2D or 3D by its
weight's rank), and ``Conv``, the (weight, bias) value of one learned layer,
with its two init rules: ``conv_init`` for a conv and ``upsample_init`` for
a 2x upsample.

All operations are pure functions on numpy arrays in channel-first, row-major
layout. Float tensors are float32 by default; float64 is supported everywhere
for high-precision oracle runs. Weights must already be in the input's dtype:
no operation casts them, and a mismatch is an error. ``conv`` and
``upsample2x`` check their operands by one rule, ``_check_operands``: the
weight's trailing axes give the rank, at least 1; the input has that rank
plus a channel axis of the weight's input channels and is float32 or
float64; the weight and the (C_out,) bias, if any, are in its dtype. Each
adds its own extent rule (``as_axes`` for ``conv``, all 2 for
``upsample2x``) and raises ValueError before it writes any output, so
neither the weight containers of the other modules nor the callers of the
two repeat these checks. Every operation is deterministic for fixed inputs:
no reduction is unordered, the GEMM rules below keep each product's bytes
at any BLAS thread count, and ``conv``'s bytes do not follow its worker
count.

``conv`` reads its rank and kernel extents from its weight, which needs a
spatial axis, and takes only ``dilation`` and ``stride`` besides, each an
int or one int per axis.
It pads itself by one centred rule, and no caller passes padding: an axis
of effective extent e (``effective_extents``) gets (e-1)//2 zeros low and
e//2 high, the extra zero of an even extent on the high side. Output extents
are then (n-1)//stride + 1, and dilated branches pad around the same voxel
as the kernel they merge into.

Convolutions run in slabs of output rows along the first spatial axis, sized
so that each per-tap GEMM stays at or under ``SMALL_GEMM_MACS``
multiply-adds, where OpenBLAS runs its faster small-matrix kernel, and the
working buffers stay in cache. Each output element still sums its taps in
the same order. Every slab but the last spans a multiple of 16 columns (see
``slab_rows``), which keeps the logits byte-identical to running each GEMM
over the whole output at once. A conv starts each slab's accumulator with
its first tap's GEMM and adds the bias (or 0.0) on the way into the output,
and ``upsample2x`` adds its bias to each contiguous block GEMM before one
strided copy per block: the bytes of a zero-filled accumulator or a strided
add, in fewer passes.

A conv's slabs run on ``WORKERS`` threads, one per CPU the process may use,
so a CPU affinity mask (``taskset -c 0``) sets the count: the calling thread
and ``WORKERS - 1`` threads that the conv starts and joins itself, so no
thread outlives the call, an error included, and a forked child holds no
stale one. Starting and joining a thread costs about 70 us, 45 us more
than handing slabs to a thread kept between calls, while a conv over
``THREAD_MACS`` multiply-adds runs for 7 ms or more at 70 GFLOP/s. Each
worker claims the next slab from one shared iterator, under a lock, as it
frees up, so a CPU that a neighbouring process holds delays at most one
slab. The calling thread allocates every worker's buffers (copied taps,
GEMM outputs and accumulator) before any worker starts, so that no other
thread allocates: glibc gives each thread that does its own malloc arena,
whose freed memory the main heap cannot reuse. Only a conv of several
slabs and over ``THREAD_MACS`` multiply-adds starts threads; for smaller
ones the hand-off costs more than the second CPU gains. The worker count
cannot move a byte: each slab runs the same taps in the same order, into
output rows no other slab writes, whichever thread claims it.

Within a slab, consecutive taps whose reads start a fixed column step apart
form a run, and each run is one stacked ``_gemm``. numpy runs a stack as one
BLAS call per GEMM, each with the bytes it has alone, but a worker leaves
the interpreter lock once per run instead of once per tap, which is what
lets two workers overlap. A run's GEMM outputs and copied taps hold at most
``RUN_ELEMS`` elements (or one tap's, if more), so that they stay in a
core's cache; its products are added to the accumulator one by one, in tap
order.

A tap's right operand is a view where its slab is contiguous in the
padded input: the column range ``[off, off + cols)`` of that input
flattened to (channels, columns), ``off`` being the flat index of the slab's
first read, and a run's taps are one strided (taps, channels, columns) view
of it. Otherwise each tap is copied into a patch. One-row slabs of
kz=1 convs, pointwise convs (run as one flat axis) and window convs read
views. A strided conv, or one with more than 256 input channels, runs as
one slab, since tiling either changed low bits, and with unit stride the
latter is a window conv: its accumulator rows span the padded
trailing extents, so that every tap's slab is contiguous. The pad gains
one more zero row high on the first axis, where the last tap's range ends,
and the final add reads only the columns inside the output. OpenBLAS's
regular GEMM kernel gives a column the same bytes at any column count if it
lies before the last multiple of 8, and its small-matrix kernel does not.
So a conv is a window conv only when its GEMM is over ``SMALL_GEMM_MACS``
and both its output's and its accumulator's column counts are multiples
of 8.

The GEMM rules: ``conv``'s runs of taps and ``upsample2x``'s block loop run
every product through ``_gemm``, at the rows and depth ``gemm_shape``
gives, and three rules keep its bytes fixed at any OpenBLAS thread count.
A weight with one output channel gains a zero second row, so that every
product is a GEMM: a BLAS vector-matrix product rounds by column count,
operand layout and thread count. More than 256 input channels are padded
with zeros to the next multiple of 32, and the weight gains zero columns to
match: OpenBLAS cuts any other depth past its K block (385 in float64, 449
in float32) at points that follow the thread count. The pad keeps the
unpadded one-thread bytes, except at a depth one past a multiple of 32. A
float64 GEMM over ``SMALL_GEMM_MACS`` runs its columns past the last
multiple of 8 as a second GEMM, since OpenBLAS rounds them by how its
threads split the columns; where that would leave one column, the second
GEMM takes the last 9, since a one-column product is a BLAS matrix-vector
product. Each kernel lays out its own weight: ``conv`` one contiguous
matrix per tap, ``upsample2x`` a (depth, 2.., rows) array whose blocks it
reads as transposed views, since a contiguous copy rounds some columns
differently.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from math import gcd, prod, sqrt
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
FLOAT_DTYPES = (F32, F64)


def _check_operands(x, weight, bias, c_in: int, c_out: int) -> int:
    """The operand rules ``conv`` and ``upsample2x`` share (see the module
    docstring); returns the rank, which the weight's trailing axes give."""
    rank = weight.ndim - 2
    if rank < 1:
        raise ValueError(f"conv weight has no spatial axis: shape {weight.shape}")
    if x.ndim != rank + 1:
        raise ValueError(f"input must have rank {rank + 1}, got {x.ndim}")
    if x.dtype not in FLOAT_DTYPES:
        raise ValueError(f"input must be float32 or float64, got {x.dtype}")
    if weight.dtype != x.dtype:
        raise ValueError(f"weight dtype {weight.dtype} != input dtype {x.dtype}")
    if c_in != x.shape[0]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[0]}, weight expects {c_in}"
        )
    if bias is not None and bias.shape != (c_out,):
        raise ValueError(f"bias must have shape ({c_out},), got {bias.shape}")
    if bias is not None and bias.dtype != x.dtype:
        raise ValueError(f"bias dtype {bias.dtype} != input dtype {x.dtype}")
    return rank


def as_axes(value, rank: int, name: str) -> tuple[int, ...]:
    """``value`` as one int per axis: an int repeats, a sequence must have
    ``rank`` entries. Every entry must be at least 1."""
    if isinstance(value, (int, np.integer)):
        out = (int(value),) * rank
    else:
        out = tuple(int(v) for v in value)
        if len(out) != rank:
            raise ValueError(f"{name} must have {rank} entries, got {len(out)}")
    if min(out) < 1:
        raise ValueError(f"{name} must be >= 1, got {out}")
    return out


def effective_extents(kernel, dilation) -> tuple[int, ...]:
    """Extent each kernel axis covers once its taps sit ``dilation`` apart:
    the span the conv pads for, and the extent a dilated kernel has in
    sparse form."""
    return tuple((k - 1) * d + 1 for k, d in zip(kernel, dilation))


# Multiply-adds at or under which OpenBLAS runs a GEMM through its
# small-matrix kernel (its cutoff is 100^3). A 32x32 @ 32xN sgemm runs at
# about 70 GFLOP/s up to N = 976 and at about 50 from N = 1024 up.
SMALL_GEMM_MACS = 1_000_000

# Threads that run a conv's slabs: one per CPU this process may use, so a
# CPU affinity mask (``taskset``) sets it where the OS has them. The calling
# thread is one of them.
if hasattr(os, "sched_getaffinity"):
    WORKERS = len(os.sched_getaffinity(0))
else:  # macOS and Windows
    WORKERS = os.cpu_count() or 1
# Multiply-adds past which a conv of several slabs spreads them over the
# workers. Starting a thread has a fixed cost, and the threads take turns
# at the interpreter between runs of GEMMs. On a 2-CPU host (medians of 15
# alternating calls), two workers ran convs of 4M-92M multiply-adds
# 0.88-1.07x as fast as one, and convs of 368M-9.9G 1.41-1.57x.
THREAD_MACS = 256 * SMALL_GEMM_MACS
# Elements of GEMM output and copied taps that one run of taps may fill,
# 1 MB in float32: on that host, runs of twice that ran the desk run's
# large-kernel conv 13% slower on one worker, and runs of half that ran the
# wide run's 9% slower on two.
RUN_ELEMS = 1 << 18


def slab_rows(n_rows: int, row: int, macs: int) -> int:
    """Rows per slab when ``n_rows`` rows of ``row`` columns each go through
    GEMMs of ``macs`` multiply-adds per column: the most rows whose GEMM
    stays within ``SMALL_GEMM_MACS``, but never fewer than one step, where a
    step is ``16 // gcd(row, 16)`` rows. Every slab then spans a multiple of
    16 columns, and a GEMM over a slab gives each column the bytes a GEMM
    over all rows gives it. All rows are one slab when they fit under the
    cutoff, or when they span no multiple of 16 columns: OpenBLAS's small
    and regular kernels round the columns past the last multiple of 16
    differently."""
    if n_rows * row % 16 or n_rows * row * macs <= SMALL_GEMM_MACS:
        return n_rows
    step = 16 // gcd(row, 16)
    return min(n_rows, max(1, SMALL_GEMM_MACS // (macs * row * step)) * step)


def gemm_shape(c_out: int, c_in: int) -> tuple[int, int]:
    """The (rows, depth) of a GEMM from ``c_in`` to ``c_out`` channels: at
    least two rows, and past 256 the next multiple of 32 as its depth, the
    extra rows and depth zero (see the module docstring)."""
    return max(c_out, 2), c_in if c_in <= 256 else -(-c_in // 32) * 32


def _gemm(w: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """``out = w @ x``, one GEMM or a stack of them, which numpy runs as one
    BLAS call per GEMM, each with the bytes it has alone. A float64 GEMM over
    ``SMALL_GEMM_MACS`` runs its columns past the last multiple of 8, or its
    last 9 where that would be one column, as a second GEMM (see the module
    docstring)."""
    cols = x.shape[-1]
    tail = cols % 8 + 8 * (cols % 8 == 1)
    macs = w.shape[-2] * w.shape[-1] * cols
    if 0 < tail < cols and out.dtype == F64 and macs > SMALL_GEMM_MACS:
        split = cols - tail
        np.matmul(w, x[..., :split], out=out[..., :split])
        np.matmul(w, x[..., split:], out=out[..., split:])
    else:
        np.matmul(w, x, out=out)


def conv(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    dilation: int | tuple[int, ...] = 1,
    stride: int | tuple[int, ...] = 1,
) -> np.ndarray:
    """Direct cross-correlation over the trailing spatial axes of ``x``.

    x: (C_in, *spatial); weight: (C_out, C_in, *kernel), whose trailing
    axes give the rank (a 4D weight makes a 2D conv) and kernel extents;
    ``dilation`` and ``stride`` are an int or one int per axis, each at
    least 1. Operands that break ``_check_operands`` raise ValueError. No
    kernel flip.
    Zero padding is centred per axis, (e-1)//2 low and e//2 high for an
    effective extent e (an even extent's extra zero goes high), and is made
    by one ``np.pad`` copy of the input, only when some effective extent is
    above 1. Accumulates one GEMM per kernel tap so arbitrary dilation and
    stride reduce to shifted slices of the padded input.

    The output is worked through in slabs of ``slab_rows`` rows of its first
    spatial axis, a pointwise conv's flattened to one axis first, by the
    workers the module docstring describes; each worker's slab-sized
    buffers are allocated once, by the caller. Each slab's first tap's GEMM
    writes its accumulator, every later tap's is added to it, and one add
    of the bias (or of 0.0) writes the slab out, so a 1x1 conv makes one
    GEMM and one add per slab. How each tap is read, which convs run as one
    slab, and the GEMM rules are set out in the module docstring.
    """
    c_out, c_in = weight.shape[:2]
    rank = _check_operands(x, weight, bias, c_in, c_out)
    kernel = as_axes(weight.shape[2:], rank, "kernel extents")
    dilation = as_axes(dilation, rank, "dilation")
    stride = as_axes(stride, rank, "stride")
    if min(x.shape[1:]) < 1:
        raise ValueError(f"input extents must be >= 1, got {x.shape[1:]}")

    out_sp = tuple((n - 1) // s + 1 for n, s in zip(x.shape[1:], stride))
    out_shape = (c_out,) + out_sp
    if kernel == stride == (1,) * rank:
        x, weight = x.reshape(c_in, -1), weight.reshape(c_out, c_in, 1)
        kernel = dilation = stride = (1,)
        rank, out_sp = 1, (prod(out_sp),)
    n_rows, row = out_sp[0], prod(out_sp[1:])
    c_rows, k = gemm_shape(c_out, c_in)
    s0 = stride[0]
    if all(s == 1 for s in stride) and k <= 256:
        rows = slab_rows(n_rows, row, c_rows * k)
    else:
        rows = n_rows

    eff = effective_extents(kernel, dilation)
    # The trailing extents an accumulator row spans: the padded ones for a
    # window conv, the output's otherwise.
    grid = tuple(n + e - 1 for n, e in zip(out_sp[1:], eff[1:]))
    window = (
        k > 256
        and stride == (1,) * rank
        and c_rows * k * n_rows * row > SMALL_GEMM_MACS
        and n_rows * row % 8 == n_rows * prod(grid) % 8 == 0
    )
    if not window:
        grid = out_sp[1:]
    pitch = prod(grid)
    pad = [(0, k - c_in)] + [((e - 1) // 2, e // 2) for e in eff]
    # A window conv's last tap reads past the padded input's last row, into
    # one more row of zeros.
    pad[1] = (pad[1][0], pad[1][1] + window)
    xp = np.pad(x, pad) if max(eff) > 1 or k > c_in else x
    # The column stride of each spatial axis in xp flattened to (k, columns).
    steps = [prod(xp.shape[a + 2 :]) for a in range(rank)]

    # (taps, C_rows, k): each tap's weight is one contiguous matrix.
    w_taps = np.zeros((prod(kernel), c_rows, k), dtype=x.dtype)
    w_taps[:, :c_out, :c_in] = np.moveaxis(weight.reshape(c_out, c_in, -1), -1, 0)
    out = np.empty((c_out,) + out_sp, dtype=x.dtype)
    # Per tap, in np.ndindex order and as read for the first slab: its first
    # padded input row, its slices of the other axes and the flat column
    # where its read starts, each a product of per-axis choices.
    firsts = range(0, kernel[0] * dilation[0], dilation[0])
    inners = product(*[
        [slice(c, c + s * (n - 1) + 1, s) for c in range(0, k * d, d)]
        for k, d, s, n in zip(kernel[1:], dilation[1:], stride[1:], out_sp[1:])
    ])
    offsets = [range(0, k * d * p, d * p) for k, d, p in zip(kernel, dilation, steps)]
    taps = [
        (f, i, sum(o)) for (f, i), o in zip(product(firsts, inners), product(*offsets))
    ]
    # Every tap's slab of `rows` rows by `grid` has the same strides, and is a
    # column range of the flattened xp when it spans as many columns as it
    # holds. The flattening copies only an unpadded, non-contiguous input.
    span = 1 + sum((n - 1) * s * p for n, s, p in zip((rows,) + grid, stride, steps))
    view = span == rows * pitch
    flat = xp.reshape(k, -1) if view else None
    # The first tap's GEMM starts the accumulator in place of a zero fill.
    # Its sums then differ from +0.0-started ones only by being -0.0 where
    # those are +0.0, and adding b + 0.0 (or 0.0 without a bias) turns each
    # such -0.0 into +0.0, as adding b to a +0.0-started sum does.
    shift = 0.0 if bias is None else (bias + 0.0).reshape((c_out,) + (1,) * rank)
    # The accumulator's rows and columns that are the output's.
    inside = (slice(c_out), slice(None)) + tuple(map(slice, out_sp[1:]))
    slabs = range(0, n_rows, rows)
    work = c_rows * k * len(taps) * n_rows * row
    workers = min(WORKERS, len(slabs)) if work > THREAD_MACS else 1
    # Runs of consecutive taps whose reads start a fixed column step apart,
    # as (first tap, taps, step): one stacked _gemm each. A run's GEMM
    # outputs and copied taps hold at most RUN_ELEMS elements.
    cap = max(1, RUN_ELEMS // ((c_rows + (0 if view else k)) * rows * pitch))
    runs = []
    for t, (_, _, off) in enumerate(taps):
        t0, g, step = runs[-1] if runs else (0, cap, 0)
        if g < cap and (g == 1 or off - taps[t - 1][2] == step):
            runs[-1] = (t0, g + 1, off - taps[t - 1][2])
        else:
            runs.append((t, 1, 0))
    longest = max(g for _, g, _ in runs)
    # A view run's reads, for every slab at once: a (taps, k, columns) view
    # of the flattened input from its first tap's first read on, each tap's
    # `step` columns after the one before.
    reads = []
    for t0, g, step in runs:
        read = flat[None, :, taps[t0][2] :] if view else None
        if view and g > 1:
            col = flat.strides[1]
            shape = (g, k, read.shape[2] - (g - 1) * step)
            read = as_strided(read[0], shape, (step * col, flat.strides[0], col))
        reads.append(read)
    # Per worker, all from this thread: room for the copies of a run's taps,
    # and for the accumulator followed by a run's GEMM outputs.
    buffers = [
        (
            None if view else np.empty(longest * k * rows * pitch, dtype=x.dtype),
            np.empty((longest + 1) * c_rows * rows * pitch, dtype=x.dtype),
        )
        for _ in range(workers)
    ]
    # Each worker claims the next slab's first row under the lock.
    starts, claim = iter(slabs), threading.Lock()

    def run_slabs(patch_buf, gemm_buf):
        while True:
            with claim:
                r0 = next(starts, None)
            if r0 is None:
                return
            n = min(rows, n_rows - r0)
            cols = n * pitch
            if not view:
                patches = patch_buf[: longest * k * cols].reshape(longest, k, cols)
                patches_nd = patches.reshape((longest, k, n) + grid)
            gemms = gemm_buf[: (longest + 1) * c_rows * cols].reshape(-1, c_rows, cols)
            acc = gemms[0]
            r = s0 * r0  # padded rows between each tap's first read and this slab's
            for (t0, g, _), run_reads in zip(runs, reads):
                if view:
                    patch = run_reads[:, :, r * steps[0] : r * steps[0] + cols]
                else:
                    for i, (first, inner, _) in enumerate(taps[t0 : t0 + g]):
                        rows_in = slice(first + r, first + r + s0 * (n - 1) + 1, s0)
                        np.copyto(patches_nd[i], xp[(slice(None), rows_in) + inner])
                    patch = patches[:g]
                # The first tap's GEMM writes the accumulator; every later
                # tap's is added to it, in tap order.
                lo = 1 if t0 else 0
                _gemm(w_taps[t0 : t0 + g], patch, gemms[lo : lo + g])
                for tmp in gemms[1 : lo + g]:
                    acc += tmp
            np.add(
                acc.reshape((c_rows, n) + grid)[inside], shift, out=out[:, r0 : r0 + n]
            )

    if workers == 1:
        run_slabs(*buffers[0])
    else:
        # Leaving the block waits for every thread, even when the calling
        # thread's slabs raise; a started thread's error is raised after.
        with ThreadPoolExecutor(workers - 1, thread_name_prefix="occkit-conv") as pool:
            futures = [pool.submit(run_slabs, *b) for b in buffers[1:]]
            run_slabs(*buffers[0])
        for f in futures:
            f.result()
    return out.reshape(out_shape)


# perfbench/spans.py's TARGETS wraps convolutions under this name, and its
# tracer patches every module attribute that is this same function.
_conv_nd = conv


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax along one axis; output sums to 1 there."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def upsample2x(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-2, kernel-2 transpose convolution: doubles every spatial extent
    of (C_in, *spatial) exactly. weight layout (C_in, C_out, 2, ..., 2), one
    2 per spatial axis of ``x``; bias (C_out,); operands as
    ``_check_operands`` requires.

    Stride equals kernel, so output blocks never overlap: each input cell
    expands into an independent 2^rank block. Each block offset is one
    ``_gemm`` into a contiguous buffer (the GEMM rules are in the module
    docstring), the bias is added to its output rows in place, and one
    strided copy writes them into that offset's view of the output.
    """
    c_in, c_out = weight.shape[:2]
    rank = _check_operands(x, weight, bias, c_in, c_out)
    if weight.shape[2:] != (2,) * rank:
        raise ValueError(f"kernel extents must all be 2, got {weight.shape[2:]}")
    sp = x.shape[1:]
    rows, k = gemm_shape(c_out, c_in)
    x2 = x.reshape(c_in, -1)
    if k > c_in:
        x2 = np.pad(x2, ((0, k - c_in), (0, 0)))
    # (k, 2.., rows): each block's weight is read as a transposed view.
    w_blocks = np.zeros((k,) + (2,) * rank + (rows,), dtype=x.dtype)
    w_blocks[:c_in, ..., :c_out] = np.moveaxis(weight, 1, -1)
    out = np.empty((c_out,) + tuple(2 * n for n in sp), dtype=x.dtype)
    y = np.empty((rows, x2.shape[1]), dtype=x.dtype)
    y_out = y[:c_out].reshape((c_out,) + sp)  # a view of y's output rows
    for block in np.ndindex(*(2,) * rank):
        _gemm(w_blocks[(slice(None),) + block].T, x2, y)
        y[:c_out] += bias[:, None]
        out[(slice(None),) + tuple(slice(o, None, 2) for o in block)] = y_out
    return out


def rng_named(seed: int, name: str) -> np.random.Generator:
    """Generator derived from a master seed and a label.

    The label is hashed so independent weight tensors get decorrelated
    streams that are stable across runs and platforms.
    """
    tag = int.from_bytes(
        hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "little"
    )
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


class Conv(NamedTuple):
    """One learned layer: its weight and its (C_out,) bias. A call site
    passes ``*layer`` to ``conv`` or ``upsample2x``."""

    weight: np.ndarray
    bias: np.ndarray


def uniform_init(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype=F32
) -> np.ndarray:
    """Uniform weights in +-1/sqrt(fan_in): ``conv_init`` and ``upsample_init``
    draw a layer's, and ``reparam.random_branch_set`` a branch's, which is
    followed by batch-norm statistics, not a bias."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    bound = 1.0 / sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def conv_init(
    rng: np.random.Generator, c_out: int, c_in: int, kernel: tuple[int, ...]
) -> Conv:
    """A conv's float32 (C_out, C_in, *kernel) weight, then its (C_out,) bias,
    at fan-in C_in * prod(kernel)."""
    fan_in = c_in * prod(kernel)
    weight = uniform_init(rng, (c_out, c_in) + tuple(kernel), fan_in)
    return Conv(weight, uniform_init(rng, (c_out,), fan_in))


def upsample_init(rng: np.random.Generator, c_in: int, c_out: int, rank: int) -> Conv:
    """A 2x upsample's float32 (C_in, C_out, 2, ..., 2) weight, ``rank`` 2s,
    then its (C_out,) bias, both at fan-in C_in."""
    weight = uniform_init(rng, (c_in, c_out) + (2,) * rank, c_in)
    return Conv(weight, uniform_init(rng, (c_out,), c_in))
