"""End-to-end forward pipeline.

Only the last scene frame is predicted, so each frame does only the work a
later step reads. A frame is encoded: synthesize image-plane features,
bin the whole camera rig's ground-truth depth into one-hot distributions,
produce the predicted ones (that same one-hot or a small seeded conv stub),
blend the rig's two stacks in one call with the scheduled mixup weight, lift
features into the half-resolution voxel grid through the run's one lift
plan, and collapse to BEV. The ``queue_len`` frames before the last are
encoded raw, unfused, and become the fusion's history of (BEV map, pose)
pairs; older frames are skipped. Only the last frame is fused with its
warped history. The fused BEV map forks into a geometric path (height
lifting then the large-kernel 3D convolution), which runs first, and a
semantic path (2D encoder then height lifting); the two volumes are summed,
upsampled to full resolution, and classified, one half-resolution x-slab at
a time.

Every step runs as a named stage, and a call returns one ``StageRecord`` per
stage; a stage whose output holds a NaN or an Inf fails, naming itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bev import (
    FusionWeights,
    SemanticEncoderWeights,
    collapse_height,
    semantic_encoder_2d,
    temporal_fuse,
)
from .bvl import BVLWeights, bev_to_voxel_lift, fuse_and_upsample
from .config import PipelineConfig
from .evaluate import N_CLASSES
from .reparam import forward_deploy, forward_train, merge_branches, random_branch_set
from .scene import SceneBundle
from .schedule import gt_depth_from_points, mix_depth
from .tensor import Conv, conv, conv_init, rng_named, slab_rows, softmax, upsample_init
from .view import DepthDistribution, LiftPlan, bin_centers, lift_splat


class PipelineStageError(RuntimeError):
    """A stage failed or output a NaN or an Inf; ``stage`` names it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {str(cause) or type(cause).__name__}")
        self.stage = stage


@dataclass(frozen=True)
class StubDepthWeights:
    """Tiny depth head: 3x3 conv + relu, then 1x1 conv to bin logits."""

    conv1: Conv
    conv2: Conv

    @classmethod
    def seeded(cls, seed: int, channels: int, n_bins: int):
        rng = rng_named(seed, "stub_depth_head")
        return cls(
            conv_init(rng, channels, channels, (3, 3)),
            conv_init(rng, n_bins, channels, (1, 1)),
        )


@dataclass(frozen=True)
class PipelineWeights:
    """Every learned tensor in the forward pass, all derived from one seed."""

    fusion: FusionWeights
    encoder: SemanticEncoderWeights
    bvl_semantic: BVLWeights
    bvl_geometric: BVLWeights
    branches: tuple
    merged: Conv
    upsample: Conv
    head: Conv
    stub: StubDepthWeights


def build_weights(config: PipelineConfig) -> PipelineWeights:
    seed = config.seed
    c = config.channels
    cr = config.refined_channels
    nz_half = config.scene.grid.downsample(2).counts[2]
    branches = tuple(
        random_branch_set(
            seed, c_in=cr, c_out=cr, target=config.kernel,
            extents=config.branch_extents(),
        )
    )
    merged = merge_branches(branches, config.kernel)
    head = conv_init(rng_named(seed, "classifier_head"), N_CLASSES, cr, (1, 1, 1))
    return PipelineWeights(
        fusion=FusionWeights.seeded(seed, c, config.queue_len + 1),
        encoder=SemanticEncoderWeights.seeded(seed, c, cr),
        bvl_semantic=BVLWeights.seeded(seed, "bvl_semantic", cr, cr, nz_half),
        bvl_geometric=BVLWeights.seeded(seed, "bvl_geometric", c, cr, nz_half),
        branches=branches,
        merged=merged,
        upsample=upsample_init(rng_named(seed, "voxel_upsample"), cr, cr, 3),
        head=head,
        stub=StubDepthWeights.seeded(seed, c, config.depth_bins),
    )


class StageRecord(NamedTuple):
    """A stage's calls, summed seconds, and last array output's shape and dtype."""

    name: str
    calls: int
    seconds: float
    shape: tuple
    dtype: np.dtype


def frame_features(config: PipelineConfig, frame: int) -> np.ndarray:
    """Seeded stand-in for the image backbone: per-camera float32 noise
    features."""
    h_f, w_f = config.scene.feature_size
    out = np.empty((config.scene.n_cameras, config.channels, h_f, w_f), dtype=np.float32)
    for ci in range(config.scene.n_cameras):
        rng = rng_named(config.seed, f"features/frame{frame:03d}/cam{ci}")
        out[ci] = rng.standard_normal((config.channels, h_f, w_f))
    return out


def _stub_depth(features: np.ndarray, stub: StubDepthWeights) -> np.ndarray:
    """(N_c, C, H, W) features -> (N_c, D, H, W) depth distributions.

    The whole rig runs as one 3D conv pair over (C, N_c, H, W): the weights
    gain a camera axis of extent 1, so no camera reads another's pixels, and
    ``slab_rows`` cuts the 3x3 conv's slabs at whole cameras."""
    x = np.ascontiguousarray(np.moveaxis(features, 1, 0))
    h = np.maximum(conv(x, stub.conv1.weight[:, :, None], stub.conv1.bias), 0)
    logits = conv(h, stub.conv2.weight[:, :, None], stub.conv2.bias)
    return np.ascontiguousarray(np.moveaxis(softmax(logits, axis=0), 0, 1))


def check_finite(out: np.ndarray) -> None:
    """Raise on a NaN or an Inf in ``out``; a non-finite sum may be mere overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        n = 0 if np.isfinite(out.sum()) else np.count_nonzero(~np.isfinite(out))
    if n:
        raise FloatingPointError(f"{n} non-finite values in its {out.shape} {out.dtype} output")


def _check_scene(config: PipelineConfig, scene: SceneBundle) -> None:
    """The scene must have the grid and camera rig the config's lift assumes."""
    for field in ("grid", "n_cameras", "image_size", "feature_size", "focal"):
        got, expected = getattr(scene.spec, field), getattr(config.scene, field)
        if got != expected:
            raise ValueError(f"scene {field} {got} does not match config {expected}")


def run_pipeline(
    config: PipelineConfig,
    scene: SceneBundle,
    alpha: float,
    reparam_mode: str = "deploy",
    weights: PipelineWeights | None = None,
):
    """Predict the last scene frame.

    The ``queue_len`` frames before it are encoded, oldest first, and passed
    to ``temporal_fuse`` as raw (BEV map, pose) pairs, newest first; the
    history never holds fused maps, so they need no fusion. Earlier frames
    fall outside the fusion window and are skipped. Only the last frame is
    fused with its warped history and classified. Weights whose fusion
    window is not ``queue_len + 1`` frames are rejected before any stage
    runs. The lift geometry does not change between frames, so one
    ``LiftPlan`` is built per call under "lift", and every frame's lift
    reads it.

    The stages then run in this order: "temporal_fuse", the geometric
    "bvl", "large_kernel_conv", "semantic_encoder" and the semantic "bvl",
    then the tail. Each volume is released after its last read: each
    frame's lifted volume once it is collapsed, and the geometric lift once
    the large-kernel conv returns. So is each BEV map: the history and the
    last frame's map once ``temporal_fuse`` returns, the fused map once the
    semantic encoder returns, and the encoder's map once its lift returns.
    The semantic path runs after that conv, so its volume never coexists
    with the conv's padded input and branch outputs. Only the two summed
    volumes, ``v_g`` and ``v_s``, are alive in the tail next to the logits.

    The tail runs slab by slab along x: for each slab of ``slab_rows``
    half-resolution rows, ``fuse_and_upsample`` sums and upsamples the two
    volumes and the 1x1x1 head classifies the result into its rows of the
    preallocated logits. Both act on each x-slab alone, so the logits are
    those of the whole-volume tail, and the full-resolution feature volume
    never exists whole. The "fuse_upsample" and "classifier" records count
    and time every slab.

    Returns (logits, records): logits are (18, X, Y, Z) at the full grid
    resolution, records one ``StageRecord`` per stage in the order the
    stages first ran (the depth binning and ``LiftPlan.build`` return no
    array, so they are only timed). ``reparam_mode`` selects the
    multi-branch ("train") or merged single-kernel ("deploy") form of the
    large 3D convolution; the two agree to within accumulated float32
    rounding.
    """
    if reparam_mode not in ("train", "deploy"):
        raise ValueError(f"reparam_mode must be 'train' or 'deploy', got {reparam_mode!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    _check_scene(config, scene)
    if weights is None:
        weights = build_weights(config)
    if weights.fusion.n_frames != config.queue_len + 1:
        raise ValueError(
            f"fusion weights span {weights.fusion.n_frames} frames, config "
            f"queue {config.queue_len} needs {config.queue_len + 1}"
        )

    half = config.scene.grid.downsample(2)
    records: dict = {}

    def staged(stage, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
            if isinstance(out, np.ndarray):
                check_finite(out)
        except Exception as e:
            raise PipelineStageError(stage, e) from e
        _, calls, seconds, *last = records.get(stage, (stage, 0, 0.0, (), None))
        last = (out.shape, out.dtype) if isinstance(out, np.ndarray) else last
        records[stage] = StageRecord(stage, calls + 1, seconds + time.perf_counter() - t0, *last)
        return out

    def encode(t):
        """Features, depth, lift and height collapse of frame t: its BEV map.

        The depth stage works on the frame's whole camera rig at once: one
        ground-truth binning of its (N_c, H, W) depths, in which the scene's
        -1 (no hit) counts as missing, and one blend of the rig's
        (N_c, D, H, W) stacks.
        """
        features = staged("features", frame_features, config, t)
        gt_oh, valid = staged(
            "depth", gt_depth_from_points,
            scene.depth[t], config.d_min, config.scene.d_max, config.depth_bins,
        )
        if config.depth_provider == "stub":
            pred = staged("depth", _stub_depth, features, weights.stub)
        else:
            pred = gt_oh
        mixed = staged("depth", mix_depth, pred, gt_oh, alpha, valid)
        v = staged("lift", lift_splat, features, DepthDistribution(mixed), plan)
        return staged("height_collapse", collapse_height, v)

    centers = bin_centers(config.d_min, config.scene.d_max, config.depth_bins)
    plan = staged("lift", LiftPlan.build, scene.cameras(), centers, half)
    last = scene.n_frames - 1
    history = [
        (encode(t), scene.pose(t)) for t in range(max(0, last - config.queue_len), last)
    ][::-1]
    b = encode(last)
    b_t = staged(
        "temporal_fuse", temporal_fuse, b, history, scene.pose(last), weights.fusion, half
    )
    del history, b

    v_g0 = staged("bvl", bev_to_voxel_lift, b_t, weights.bvl_geometric)
    if reparam_mode == "deploy":
        v_g = staged("large_kernel_conv", forward_deploy, v_g0, weights.merged)
    else:
        v_g = staged("large_kernel_conv", forward_train, v_g0, weights.branches)
    del v_g0
    b_s = staged("semantic_encoder", semantic_encoder_2d, b_t, weights.encoder)
    del b_t
    v_s = staged("bvl", bev_to_voxel_lift, b_s, weights.bvl_semantic)
    del b_s
    c, nx, ny, nz = v_g.shape
    logits = np.empty((N_CLASSES, 2 * nx, 2 * ny, 2 * nz), dtype=v_g.dtype)
    rows = slab_rows(nx, ny * nz, c * c)
    for a in range(0, nx, rows):
        end = min(a + rows, nx)
        v_gs = staged(
            "fuse_upsample", fuse_and_upsample,
            v_g[:, a:end], v_s[:, a:end], weights.upsample,
        )
        logits[:, 2 * a : 2 * end] = staged("classifier", conv, v_gs, *weights.head)
    return logits, tuple(records.values())
