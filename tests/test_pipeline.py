import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
import time
from collections import deque
from math import prod
from pathlib import Path

import numpy as np
import pytest

import occkit.pipeline
import occkit.tensor
import occkit.view
from occkit.bev import collapse_height, semantic_encoder_2d, temporal_fuse
from occkit.bvl import bev_to_voxel_lift, fuse_and_upsample
from occkit.config import PipelineConfig, default_config, parse_config
from occkit.evaluate import argmax_decode
from occkit.pipeline import (
    PipelineStageError,
    StubDepthWeights,
    _stub_depth,
    build_weights,
    check_finite,
    frame_features,
    run_pipeline,
)
from occkit.reparam import forward_deploy, forward_train
from occkit.scene import BoxObstacle, SceneSpec, gen_scene
from occkit.schedule import gt_depth_from_points, mix_depth
from occkit.tensor import conv, slab_rows, softmax
from occkit.view import DepthDistribution, GridSpec, LiftPlan, bin_centers, lift_splat
from support import (
    PlacedSceneSpec,
    cast,
    conv_threads,
    conv_workers,
    traced_peak,
    with_scene,
)
from test_acceptance import GATE_CONFIG

# in the order they first run
STAGES = (
    "lift",
    "features",
    "depth",
    "height_collapse",
    "temporal_fuse",
    "bvl",
    "large_kernel_conv",
    "semantic_encoder",
    "fuse_upsample",
    "classifier",
)


def small_config(scene=None, **overrides):
    """The tiny config with ``overrides`` of its fields and ``scene``, a
    dict, of its ``SceneSpec``'s."""
    spec = SceneSpec(
        seed=7,
        grid=GridSpec((-8.0, -8.0, -1.0), (8.0, 8.0, 1.0), (32, 32, 4)),
        n_frames=2,
        n_boxes=2,
        n_cameras=1,
        image_size=(8, 16),
        feature_size=(4, 8),
        focal=8.0,
        d_max=12.0,
        speed=0.5,
    )
    kw = dict(
        scene=dataclasses.replace(spec, **(scene or {})),
        depth_bins=4,
        d_min=0.5,
        queue_len=2,
        channels=4,
        refined_channels=4,
        kernel=(3, 3, 1),
        branches=(((3, 3, 1), (1, 1, 1)), ((1, 1, 1), (1, 1, 1))),
    )
    kw.update(overrides)
    return PipelineConfig(**kw)


def fuse_every_frame(config, scene, alpha, reparam_mode, weights):
    """Reference forward pass: encode and fuse every scene frame, keeping the
    last ``queue_len`` raw maps newest first, then run the heads on the last
    fused map."""
    half = config.scene.grid.downsample(2)
    cams = scene.cameras()
    history = deque(maxlen=config.queue_len)
    for t in range(scene.n_frames):
        features = frame_features(config, t)
        gt_oh, valid = gt_depth_from_points(
            scene.depth[t], config.d_min, config.scene.d_max, config.depth_bins
        )
        pred = _stub_depth(features, weights.stub) if config.depth_provider == "stub" else gt_oh
        mixed = mix_depth(pred, gt_oh, alpha, valid)
        centers = bin_centers(config.d_min, config.scene.d_max, config.depth_bins)
        plan = LiftPlan.build(cams, centers, half)
        b = collapse_height(lift_splat(features, DepthDistribution(mixed), plan))
        b_t = temporal_fuse(b, history, scene.pose(t), weights.fusion, half)
        history.appendleft((b, scene.pose(t)))
    v_s = bev_to_voxel_lift(semantic_encoder_2d(b_t, weights.encoder), weights.bvl_semantic)
    v_g0 = bev_to_voxel_lift(b_t, weights.bvl_geometric)
    if reparam_mode == "deploy":
        v_g = forward_deploy(v_g0, weights.merged)
    else:
        v_g = forward_train(v_g0, weights.branches)
    v_gs = fuse_and_upsample(v_g, v_s, weights.upsample)
    return conv(v_gs, *cast(weights.head, v_gs.dtype))


@pytest.fixture(scope="module")
def small_setup():
    config = small_config()
    return config, gen_scene(config.scene)


class TestRunPipeline:
    def test_logits_shape_and_dtype(self, small_setup):
        config, scene = small_setup
        logits, _ = run_pipeline(config, scene, alpha=0.0)
        assert logits.shape == (18,) + config.scene.grid.counts
        assert logits.dtype == np.float32
        assert np.isfinite(logits).all()

    def test_bit_identical_reruns(self, small_setup):
        config, scene = small_setup
        a, _ = run_pipeline(config, scene, alpha=0.0)
        b, _ = run_pipeline(config, scene, alpha=0.0)
        np.testing.assert_array_equal(a, b)

    def test_train_deploy_agree(self, small_setup):
        config, scene = small_setup
        deploy, _ = run_pipeline(config, scene, alpha=0.0, reparam_mode="deploy")
        train, _ = run_pipeline(config, scene, alpha=0.0, reparam_mode="train")
        scale = max(np.abs(train).max(), 1.0)
        assert np.abs(deploy - train).max() <= 1e-4 * scale

    def test_report_contents(self, small_setup):
        config, scene = small_setup
        t0 = time.perf_counter()
        _, records = run_pipeline(config, scene, alpha=0.5)
        elapsed = time.perf_counter() - t0
        assert tuple(r.name for r in records) == STAGES
        assert all(r.calls >= 1 and r.seconds >= 0.0 for r in records)
        assert sum(r.seconds for r in records) <= elapsed

    def test_alpha_is_identity_for_gt_provider(self, small_setup):
        # with ground-truth depth the prediction equals the target, so the
        # blend weight cannot matter
        config, scene = small_setup
        a, _ = run_pipeline(config, scene, alpha=0.0)
        b, _ = run_pipeline(config, scene, alpha=1.0)
        np.testing.assert_array_equal(a, b)

    def test_alpha_matters_for_stub_provider(self):
        # a box dead ahead guarantees some pixels carry trusted depth, so the
        # blend weight reaches the lifted volume
        config = small_config(depth_provider="stub")
        spec = PlacedSceneSpec(
            **vars(config.scene),
            boxes=(BoxObstacle((5.0, 0.0, 0.0), (2.0, 3.0, 2.0), cls=4),),
        )
        scene = gen_scene(spec)
        assert (scene.depth >= 0).any()
        a, _ = run_pipeline(config, scene, alpha=0.0)
        b, _ = run_pipeline(config, scene, alpha=1.0)
        assert np.abs(a - b).max() > 0.0

    def test_explicit_weights_reused(self, small_setup):
        config, scene = small_setup
        weights = build_weights(config)
        a, _ = run_pipeline(config, scene, alpha=0.0, weights=weights)
        b, _ = run_pipeline(config, scene, alpha=0.0)
        np.testing.assert_array_equal(a, b)

    def test_stage_error_names_failing_stage(self, small_setup):
        config, scene = small_setup
        wrong = build_weights(small_config(channels=5, refined_channels=5))
        with pytest.raises(PipelineStageError, match="temporal_fuse") as err:
            run_pipeline(config, scene, alpha=0.0, weights=wrong)
        assert err.value.stage == "temporal_fuse"

    def test_rejects_mismatched_scene(self, small_setup):
        config, _ = small_setup
        wide = GridSpec((-19.2, -19.2, -1.0), (19.2, 19.2, 1.0), (32, 32, 4))
        # other voxel counts, and a start 1e-4 m off on x, which numpy's
        # default relative tolerance would take for the same grid at 19.2 m
        for config_grid, scene_grid in (
            (config.scene.grid, GridSpec((-8.0, -8.0, -1.0), (8.0, 8.0, 1.0), (16, 16, 4))),
            (wide, dataclasses.replace(wide, start=(-19.2001, -19.2, -1.0))),
        ):
            scene = gen_scene(small_config(dict(grid=scene_grid)).scene)
            with pytest.raises(ValueError, match="grid"):
                run_pipeline(small_config(dict(grid=config_grid)), scene, alpha=0.0)

    def test_rejects_weights_for_other_window(self, monkeypatch, small_setup):
        """Weights built for another ``queue_len`` fail before any stage."""
        config, scene = small_setup
        weights = build_weights(small_config(queue_len=config.queue_len + 1))

        def no_stage(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(occkit.pipeline, "frame_features", no_stage)
        with pytest.raises(ValueError, match="fusion weights span 4 frames, config queue 2"):
            run_pipeline(config, scene, alpha=0.0, weights=weights)

    def test_rejects_bad_alpha_and_mode(self, small_setup):
        config, scene = small_setup
        with pytest.raises(ValueError, match="alpha"):
            run_pipeline(config, scene, alpha=1.5)
        with pytest.raises(ValueError, match="reparam_mode"):
            run_pipeline(config, scene, alpha=0.0, reparam_mode="fused")

    def test_full_resolution_grid(self):
        # full-scale output contract on a single frame
        config = small_config(
            dict(
                grid=GridSpec((-20.0, -20.0, -2.0), (20.0, 20.0, 1.2), (200, 200, 16)),
                n_frames=1,
            ),
            queue_len=1,
        )
        scene = gen_scene(config.scene)
        logits, records = run_pipeline(config, scene, alpha=0.0)
        assert logits.shape == (18, 200, 200, 16)
        lift = {r.name: r for r in records}["lift"]
        assert lift.calls == 2  # the plan, then the one frame
        assert lift.shape == (config.channels, 100, 100, 8)
        assert lift.dtype == np.float32


class TestStageRecords:
    # the function each stage's last array output comes from
    OUTPUTS = {
        "frame_features": "features",
        "mix_depth": "depth",
        "lift_splat": "lift",
        "collapse_height": "height_collapse",
        "temporal_fuse": "temporal_fuse",
        "bev_to_voxel_lift": "bvl",
        "forward_deploy": "large_kernel_conv",
        "forward_train": "large_kernel_conv",
        "semantic_encoder_2d": "semantic_encoder",
        "fuse_and_upsample": "fuse_upsample",
        "conv": "classifier",
    }

    @pytest.mark.parametrize("reparam_mode", ["deploy", "train"])
    @pytest.mark.parametrize("depth_provider", ["gt", "stub"])
    @pytest.mark.parametrize("n_frames", [2, 5])
    def test_records_match_stage_outputs(
        self, monkeypatch, n_frames, depth_provider, reparam_mode
    ):
        """One record per stage in first-run order, whose calls count its
        staged calls and whose shape and dtype are its last output's."""
        last = {}

        def kept(name, fn):
            def wrapper(*args):
                last[self.OUTPUTS[name]] = out = fn(*args)
                return out

            return wrapper

        for name in self.OUTPUTS:
            monkeypatch.setattr(
                occkit.pipeline, name, kept(name, getattr(occkit.pipeline, name))
            )
        config = small_config(
            dict(n_frames=n_frames, n_cameras=2, grid=GridSpec(
                (-8.0, -8.0, -1.0), (8.0, 8.0, 1.0), (32, 32, 24)
            )),
            depth_provider=depth_provider,
            refined_channels=32,
        )
        logits, records = run_pipeline(config, gen_scene(config.scene), 0.5, reparam_mode)
        assert tuple(r.name for r in records) == STAGES
        for r in records:
            assert (r.shape, r.dtype) == (last[r.name].shape, last[r.name].dtype), r.name
        frames = min(n_frames, config.queue_len + 1)
        hx, hy, hz = config.scene.grid.downsample(2).counts
        rows = slab_rows(hx, hy * hz, config.refined_channels**2)
        slabs = len(range(0, hx, rows))
        assert slabs > 1
        calls = {r.name: r.calls for r in records}
        assert calls == {
            "lift": frames + 1,
            "features": frames,
            "depth": (3 if depth_provider == "stub" else 2) * frames,
            "height_collapse": frames,
            "temporal_fuse": 1,
            "bvl": 2,
            "large_kernel_conv": 1,
            "semantic_encoder": 1,
            "fuse_upsample": slabs,
            "classifier": slabs,
        }
        shapes = {r.name: r.shape for r in records}
        a = (slabs - 1) * rows
        assert shapes["classifier"] == logits[:, 2 * a :].shape
        assert shapes["large_kernel_conv"] == (config.refined_channels, hx, hy, hz)


class TestFiniteGuard:
    @pytest.mark.parametrize(
        "layer, stage",
        [(lambda w: w.fusion.mix1.weight, "temporal_fuse"),
         (lambda w: w.merged.weight, "large_kernel_conv")],
        ids=["fusion", "merged"],
    )
    def test_poisoned_weight_names_stage(self, small_setup, layer, stage):
        config, scene = small_setup
        weights = build_weights(config)
        layer(weights).flat[0] = np.nan
        with pytest.raises(
            PipelineStageError,
            match=rf"^stage '{stage}' failed: \d+ non-finite values in its \(4, 16, 16(, 2)?\) "
            "float32 output$",
        ) as err:
            run_pipeline(config, scene, 0.5, "deploy", weights)
        assert err.value.stage == stage

    def test_overflowing_sum_of_finite_values_passes(self):
        x = np.full((4, 3), 3e38, dtype=np.float32)
        with np.errstate(over="ignore"):
            assert np.isinf(x.sum())
        check_finite(x)
        x[1, 2] = np.nan
        x[3, 0] = -np.inf
        with pytest.raises(
            FloatingPointError, match=r"^2 non-finite values in its \(4, 3\) float32 output$"
        ):
            check_finite(x)


class TestFusionWindow:
    @pytest.mark.parametrize("reparam_mode", ["deploy", "train"])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(queue_len=2, scene=dict(n_frames=2)),
            dict(queue_len=1, scene=dict(n_frames=4)),
            dict(queue_len=2, scene=dict(n_frames=4), depth_provider="stub"),
        ],
        ids=["window-covers-scene", "window-shorter", "window-shorter-stub"],
    )
    def test_matches_fusing_every_frame(self, overrides, reparam_mode):
        config = small_config(**overrides)
        scene = gen_scene(config.scene)
        weights = build_weights(config)
        logits, _ = run_pipeline(config, scene, 0.5, reparam_mode, weights)
        expected = fuse_every_frame(config, scene, 0.5, reparam_mode, weights)
        assert logits.dtype == expected.dtype
        assert logits.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "queue_len, n_frames", [(2, 2), (3, 2), (1, 4), (2, 5)]
    )
    def test_one_fusion_and_only_window_frames_lifted(
        self, monkeypatch, queue_len, n_frames
    ):
        calls = {"temporal_fuse": 0, "lift_splat": 0}

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            return wrapper

        for name in calls:
            monkeypatch.setattr(
                occkit.pipeline, name, counted(name, getattr(occkit.pipeline, name))
            )
        config = small_config(dict(n_frames=n_frames), queue_len=queue_len)
        run_pipeline(config, gen_scene(config.scene), alpha=0.0)
        assert calls["temporal_fuse"] == 1
        assert calls["lift_splat"] == min(n_frames, queue_len + 1)

    @pytest.mark.parametrize("depth_provider", ["gt", "stub"])
    @pytest.mark.parametrize("n_cameras", [1, 2, 3])
    def test_one_depth_pass_per_frame(self, monkeypatch, n_cameras, depth_provider):
        """Each encoded frame bins and blends its whole camera rig in one
        call each, whatever the camera count."""
        shapes = {"gt_depth_from_points": [], "mix_depth": []}

        def counted(name, fn):
            def wrapper(*args, **kw):
                shapes[name].append(args[0].shape)
                return fn(*args, **kw)

            return wrapper

        for name in shapes:
            monkeypatch.setattr(
                occkit.pipeline, name, counted(name, getattr(occkit.pipeline, name))
            )
        config = small_config(
            dict(n_cameras=n_cameras, n_frames=4), depth_provider=depth_provider
        )
        run_pipeline(config, gen_scene(config.scene), alpha=0.5)
        frames = config.queue_len + 1
        h, w = config.scene.feature_size
        assert shapes["gt_depth_from_points"] == [(n_cameras, h, w)] * frames
        assert shapes["mix_depth"] == [(n_cameras, config.depth_bins, h, w)] * frames

    @pytest.mark.parametrize("desk", [False, True], ids=["small", "desk"])
    def test_unprojects_each_camera_once_per_call(self, monkeypatch, desk):
        """One lift plan per run_pipeline call: a desk call unprojects its
        2 cameras once, not once per encoded frame (16 frames, 32 calls),
        and a second call builds its own plan."""
        config = default_config() if desk else small_config(dict(n_cameras=2, n_frames=3))
        scene = gen_scene(config.scene)
        weights = build_weights(config)
        calls = []
        original = occkit.view.frustum_points

        def counted(cam, centers):
            calls.append(cam)
            return original(cam, centers)

        monkeypatch.setattr(occkit.view, "frustum_points", counted)
        first, _ = run_pipeline(config, scene, 0.5, "deploy", weights)
        assert len(calls) == config.scene.n_cameras == 2
        second, _ = run_pipeline(config, scene, 0.5, "deploy", weights)
        assert len(calls) == 2 * config.scene.n_cameras
        assert first.tobytes() == second.tobytes()


class TestSlabbedTail:
    """run_pipeline upsamples and classifies the summed volume one half-res
    x-slab at a time; ``fuse_every_frame`` runs that tail on the whole
    volume, ``conv(fuse_and_upsample(v_g, v_s), head)``.

    At 452 refined channels the tail upsample's GEMM depth is past OpenBLAS's
    K block, where an upsample of slabs cut at arbitrary rows can differ from
    the whole one; ``slab_rows`` cuts 4-row slabs of 240 columns there. That
    case runs in float64, as ``test_float32_logits_match_float64_oracle``
    does. Each case's slabs are the rows ``slab_rows`` gives its half grid."""

    @pytest.mark.parametrize("reparam_mode", ["deploy", "train"])
    @pytest.mark.parametrize(
        "counts, channels, dtype, rows",
        [
            ((32, 32, 4), 4, np.float32, [16]),
            ((32, 32, 24), 32, np.float32, [5, 5, 5, 1]),
            ((32, 40, 6), 452, np.float64, [4, 4, 4, 4]),
        ],
        ids=["one-slab", "short-last-slab", "past-k-block-float64"],
    )
    def test_matches_unslabbed_tail(
        self, monkeypatch, counts, channels, dtype, rows, reparam_mode
    ):
        slabs = []

        def counted(v_g, v_s, weights):
            slabs.append(v_g.shape[1])
            return fuse_and_upsample(v_g, v_s, weights)

        features = frame_features
        for module in (occkit.pipeline, sys.modules[__name__]):
            monkeypatch.setattr(
                module, "frame_features", lambda c, t: features(c, t).astype(dtype)
            )
        monkeypatch.setattr(occkit.pipeline, "fuse_and_upsample", counted)
        config = small_config(
            dict(grid=GridSpec((-8.0, -8.0, -1.0), (8.0, 8.0, 1.0), counts)),
            refined_channels=channels,
        )
        scene = gen_scene(config.scene)
        weights = cast(build_weights(config), dtype)
        logits, records = run_pipeline(config, scene, 0.5, reparam_mode, weights)
        expected = fuse_every_frame(config, scene, 0.5, reparam_mode, weights)
        assert logits.dtype == expected.dtype == dtype
        assert logits.tobytes() == expected.tobytes()
        assert slabs == rows
        calls = {r.name: r.calls for r in records}
        assert calls["fuse_upsample"] == calls["classifier"] == len(rows)


def _wide_config(_):
    """perfbench's ``wide_train`` config at scene seed 7: an 80 m grid whose
    half grid is 32x100x100x8, stub depth, queue 3, 8 frames, 24 boxes."""
    return with_scene(
        dataclasses.replace(default_config(), queue_len=3, depth_provider="stub"),
        grid=GridSpec((-40.0, -40.0, -1.0), (40.0, 40.0, 2.2), (200, 200, 16)),
        n_frames=8,
        n_boxes=24,
    )


def _check9_config(tmp_dir):
    path = tmp_dir / "gate.cfg"
    path.write_text(GATE_CONFIG)
    return parse_config(str(path))


REFERENCE_CONFIGS = {
    "desk": lambda _: default_config(),
    "wide": _wide_config,
    "check9": _check9_config,
}

# sha256 of the float32 logits bytes, scene seed 7, alpha 0.5. Every speed
# change must keep these; a change that moves them on purpose says so.
REFERENCE_LOGITS = [
    ("desk", "deploy", "653246e4ea556bea5fdd4f59f35d040adbae3f9a862a12bf997e50d0724dd3de"),
    ("wide", "train", "62eca2fdc44d78b72d61a617bded8f1408d265d62c1bff62c7e7885eeb184720"),
    ("wide", "deploy", "0b92813efe18558daf36761c64db0f8478508b2a7f999f2f71db6a21ab78470d"),
    ("check9", "deploy", "b2dd1613911d5cf468986e7755dc211593cde16dc1d6ab4ec1ce5e1ce8a60d85"),
    ("check9", "train", "b537c01d62612d670e6f3b2465fed8f193651d079804b2f757fadb09ee45d754"),
]


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """(config, scene, weights) per reference config, each built once."""
    built = {}

    def get(name):
        if name not in built:
            config = REFERENCE_CONFIGS[name](tmp_path_factory.mktemp(name))
            built[name] = config, gen_scene(config.scene), build_weights(config)
        return built[name]

    return get


@pytest.mark.parametrize(
    "name, mode, sha256", REFERENCE_LOGITS, ids=[f"{n}-{m}" for n, m, _ in REFERENCE_LOGITS]
)
def test_reference_logits_hashes(reference_run, name, mode, sha256):
    """The pins hold on one conv worker and on two, on which every conv of
    several slabs then runs. The worker counts are looped over, not
    parametrized, so that each pin keeps one test id."""
    config, scene, weights = reference_run(name)
    for workers in (1, 2):
        with conv_workers(workers):
            logits, _ = run_pipeline(config, scene, 0.5, mode, weights)
        assert logits.dtype == np.float32
        assert hashlib.sha256(logits.tobytes()).hexdigest() == sha256, workers


def test_no_conv_thread_outlives_a_run(reference_run, monkeypatch):
    """A desk run on two conv workers runs GEMMs on threads its convs
    started, and none of those threads is alive once it returns."""
    config, scene, weights = reference_run("desk")
    gemm, names = occkit.tensor._gemm, set()

    def named(w, x, out):
        names.add(threading.current_thread().name)
        gemm(w, x, out)

    monkeypatch.setattr(occkit.tensor, "_gemm", named)
    with conv_workers(2):
        run_pipeline(config, scene, 0.5, "deploy", weights)
    assert any(name.startswith("occkit-conv") for name in names)
    assert conv_threads() == []


# The desk and check-9 deploy logits' sha256 in a fresh interpreter, which
# first restricts itself to one CPU if asked to: conv then reads one worker
# from the affinity mask when it is imported.
_PIN_CHILD = """
import hashlib
import os
import sys
import tempfile
from pathlib import Path
if sys.argv[2] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
import occkit.tensor
from occkit.pipeline import run_pipeline
from occkit.scene import gen_scene
from test_pipeline import REFERENCE_CONFIGS
print("workers", occkit.tensor.WORKERS)
with tempfile.TemporaryDirectory() as tmp:
    for name in ("desk", "check9"):
        config = REFERENCE_CONFIGS[name](Path(tmp))
        logits, _ = run_pipeline(config, gen_scene(config.scene), 0.5, "deploy")
        print(name, hashlib.sha256(logits.tobytes()).hexdigest())
"""


@pytest.mark.parametrize(
    "cpus, blas_threads",
    [("all-cpus", "2"), ("one-cpu", "1")],
    ids=["two-blas-threads", "one-worker"],
)
def test_deploy_pins_in_a_fresh_process(cpus, blas_threads):
    """The desk and check-9 deploy pins hold in a fresh interpreter with two
    OpenBLAS threads and as many conv workers as CPUs, and in one that runs
    on one CPU, where conv has one worker."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, "-c", _PIN_CHILD, str(Path(__file__).resolve().parent), cpus],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    pins = {n: sha for n, mode, sha in REFERENCE_LOGITS if mode == "deploy"}
    assert lines[1:] == [f"desk {pins['desk']}", f"check9 {pins['check9']}"]
    if cpus == "one-cpu":
        assert lines[0] == "workers 1"


def _call_peak(config, scene, weights, mode):
    """(logits, traced peak) of one call: the pipeline and then the label
    decode, as ``occ run --out`` makes them."""

    def call():
        logits, _ = run_pipeline(config, scene, 0.5, mode, weights)
        return logits, argmax_decode(logits)

    (logits, _), peak = traced_peak(call)
    return logits, peak


def test_wide_train_call_memory(reference_run):
    """One wide train call holds at its traced peak at most the logits and
    2.5 half-grid volumes. It holds that little only if each volume and BEV
    map is freed after its last read, the semantic path runs after the
    large-kernel conv, and the decode makes no copy of the logits."""
    config, scene, weights = reference_run("wide")
    logits, peak = _call_peak(config, scene, weights, "train")
    half = config.scene.grid.downsample(2)
    volume = config.refined_channels * prod(half.counts) * logits.itemsize
    bound = logits.nbytes + 2.5 * volume
    assert peak <= bound, f"traced peak {peak / 1e6:.1f} MB > {bound / 1e6:.1f} MB"


def test_desk_deploy_call_memory(reference_run):
    """One desk deploy call peaks inside the temporal fusion, and holds
    there at most four times the fusion's stacked input: the stack, its
    padded copy and the history maps, but no third copy of the stack."""
    config, scene, weights = reference_run("desk")
    logits, peak = _call_peak(config, scene, weights, "deploy")
    nx, ny, _ = config.scene.grid.downsample(2).counts
    stack = (config.queue_len + 1) * config.channels * nx * ny * logits.itemsize
    bound = 4 * stack
    assert peak <= bound, f"traced peak {peak / 1e6:.1f} MB > {bound / 1e6:.1f} MB"


# Largest |float32 - float64| logit allowed by the oracle below. Measured at
# scene seed 7, alpha 0.5: 0.98e-7 to 1.13e-7 at the tiny config (both modes,
# gt or stub depth, one or two cameras), 3.1e-7 / 3.8e-7 on desk deploy /
# train and 3.5e-7 / 3.9e-7 on wide, against logits of magnitude up to 0.87.
FLOAT64_BOUND = 1e-6


@pytest.mark.parametrize("depth_provider", ["gt", "stub"])
@pytest.mark.parametrize("mode", ["deploy", "train"])
def test_float32_logits_match_float64_oracle(monkeypatch, mode, depth_provider):
    """The float32 forward pass against the same network, scene and weights
    run in float64: the logits agree within ``FLOAT64_BOUND`` and their
    argmax labels agree on every voxel.

    The pinned hashes catch any change but cannot judge one. A change that
    moves them on purpose (a new scene renderer, a reordered sum, another
    off-map fill) must pass this check, which says the new float32 logits
    are still this network's."""
    config = small_config(dict(n_cameras=2, n_frames=4), depth_provider=depth_provider)
    scene = gen_scene(config.scene)
    weights = build_weights(config)
    features = occkit.pipeline.frame_features
    logits = {}
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(
            occkit.pipeline, "frame_features",
            lambda c, t, dtype=dtype: features(c, t).astype(dtype),
        )
        logits[dtype], _ = run_pipeline(config, scene, 0.5, mode, cast(weights, dtype))
        assert logits[dtype].dtype == dtype
    single, double = logits[np.float32], logits[np.float64]
    assert np.abs(single - double).max() <= FLOAT64_BOUND
    np.testing.assert_array_equal(single.argmax(axis=0), double.argmax(axis=0))


class TestStubDepth:
    @pytest.mark.parametrize(
        "shape, n_bins",
        [((1, 4, 4, 8), 4), ((3, 5, 7, 9), 3), ((2, 32, 16, 44), 16)],
        ids=["tiny", "odd", "wide"],
    )
    def test_matches_per_camera_convs(self, shape, n_bins):
        """One conv pair over the whole rig gives each camera the bytes of
        its own 2D conv pair and softmax."""
        stub = StubDepthWeights.seeded(7, shape[1], n_bins)
        features = np.random.default_rng(1).standard_normal(shape).astype(np.float32)
        expected = np.stack([
            softmax(
                conv(np.maximum(conv(f, *stub.conv1), 0), *stub.conv2),
                axis=0,
            )
            for f in features
        ])
        got = _stub_depth(features, stub)
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()


class TestFrameFeatures:
    def test_shape(self):
        config = small_config()
        f = frame_features(config, 0)
        assert f.shape == (1, 4, 4, 8)
        assert f.dtype == np.float32

    def test_deterministic_per_frame(self):
        config = small_config()
        np.testing.assert_array_equal(frame_features(config, 1), frame_features(config, 1))
        assert np.abs(frame_features(config, 0) - frame_features(config, 1)).max() > 0

    def test_cameras_decorrelated(self):
        config = small_config(dict(n_cameras=2))
        f = frame_features(config, 0)
        assert np.abs(f[0] - f[1]).max() > 0


class TestBuildWeights:
    def test_merged_kernel_matches_config(self):
        config = small_config()
        weights = build_weights(config)
        assert weights.merged.weight.shape[2:] == config.kernel
        assert len(weights.branches) == len(config.branch_extents())

    def test_channel_widths(self):
        config = small_config(channels=4, refined_channels=6)
        weights = build_weights(config)
        assert weights.fusion.n_channels == 4
        assert weights.encoder.up2.weight.shape[1] == 6
        assert weights.bvl_geometric.context.weight.shape[:2] == (6, 4)
        assert weights.bvl_semantic.context.weight.shape[:2] == (6, 6)
        assert weights.head.weight.shape == (18, 6, 1, 1, 1)

    def test_seed_changes_weights(self):
        a = build_weights(small_config(seed=0))
        b = build_weights(small_config(seed=1))
        assert np.abs(a.head.weight - b.head.weight).max() > 0

    def test_weight_bytes_are_pinned(self):
        """Every array's name, shape, dtype and bytes, at a refined width
        that differs from the base width, so the encoder draws its skip
        projection. A reordered or resized draw moves this hash."""
        weights = build_weights(
            small_config(channels=4, refined_channels=6, depth_provider="stub")
        )
        digest = hashlib.sha256()
        for name, array in _arrays(weights, "weights"):
            digest.update(f"{name} {array.shape} {array.dtype}\n".encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == WEIGHT_BYTES_SHA256


# sha256 of ``test_weight_bytes_are_pinned``'s weights.
WEIGHT_BYTES_SHA256 = "9b9379cdd2c1931f28b6004d8e0765025ea88d1217bcc685b73b39e4b5b53c98"


def _arrays(obj, name):
    """(name, array) for each array in a weights dataclass, in field order,
    recursing into nested dataclasses and tuples."""
    if isinstance(obj, np.ndarray):
        yield name, obj
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from _arrays(item, f"{name}[{i}]")
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name), f"{name}.{field.name}")
