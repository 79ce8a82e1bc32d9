"""Shipping gate: the nine checks the library must pass before release.

Each test prints one verdict line of the form

    [acceptance N/9] <label>: PASS (<measurements>)

so a plain ``pytest tests/test_acceptance.py -v -s`` doubles as the release
report. The latency comparison (check 2) times the full 100x100x8 volume at
32 channels over 20 runs per form and takes about 15 s at one BLAS thread;
all other checks finish in seconds.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from occkit import gsdt
from occkit.bev import EgoPose, warp_bev
from occkit.bvl import BVLWeights, bev_to_voxel_lift
from occkit.cli import main
from occkit.config import default_config
from occkit.evaluate import EMPTY_CLASS, miou, per_class_iou
from occkit.pipeline import frame_features
from occkit.reparam import (
    default_branch_extents,
    forward_deploy,
    forward_train,
    merge_branches,
    random_branch_set,
)
from occkit.scene import camera_ring, gen_scene
from occkit.schedule import MixupSchedule, gt_depth_from_points, mix_depth, mixup_alpha
from occkit.tensor import conv, rng_named, softmax
from occkit.view import (
    DepthDistribution,
    GridSpec,
    LiftPlan,
    bin_centers,
    lift_splat,
)
from support import cast, identity_pose


def _verdict(idx, label, ok, detail):
    print(f"[acceptance {idx}/9] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# 1. merged kernel reproduces the branch set


def test_01_merge_equivalence_many_pairs():
    targets = [(11, 11, 1), (7, 7, 3), (5, 5, 5), (9, 9, 1), (3, 3, 3), (5, 5, 1)]
    budget_s = 60.0
    t0 = time.perf_counter()
    pairs = 0
    worst = {np.float32: 0.0, np.float64: 0.0}
    for dtype, base in ((np.float32, 0), (np.float64, 1000)):
        for seed in range(26):
            # seed 0 exercises the full three-branch 11x11x1 set in each dtype
            target = targets[seed % len(targets)]
            shapes = np.random.default_rng(base + seed)
            c = int(shapes.integers(2, 6))
            extents = None
            if seed % 3 == 2:
                extents = [(target, (1, 1, 1)), ((1, 1, 1), (1, 1, 1))]
            branches = random_branch_set(
                base + seed, c, c, target, extents=extents, dtype=dtype
            )
            merged = merge_branches(branches, target)
            shape = (
                c,
                int(shapes.integers(8, 17)),
                int(shapes.integers(8, 17)),
                int(shapes.integers(3, 7)),
            )
            x = rng_named(base + seed, "acc_equiv_input").uniform(-1, 1, shape)
            x = x.astype(dtype)
            diff = np.abs(forward_train(x, branches) - forward_deploy(x, merged)).max()
            worst[dtype] = max(worst[dtype], float(diff))
            pairs += 1
    elapsed = time.perf_counter() - t0
    ok = (
        pairs >= 50
        and worst[np.float32] <= 1e-4
        and worst[np.float64] <= 1e-10
        and elapsed < budget_s
    )
    detail = (
        f"{pairs} pairs, f32 max {worst[np.float32]:.2e} <= 1e-4, "
        f"f64 max {worst[np.float64]:.2e} <= 1e-10, {elapsed:.1f}s < {budget_s:.0f}s"
    )
    assert _verdict(1, "merged kernel equals branch set", ok, detail), detail


# ---------------------------------------------------------------------------
# 2. merged form is faster than running the branches


def test_02_merged_form_is_faster():
    runs = 20
    branches = random_branch_set(0, 32, 32, (11, 11, 1))
    merged = merge_branches(branches, (11, 11, 1))
    x = rng_named(0, "acc_bench_input").uniform(-1, 1, (32, 100, 100, 8))
    x = x.astype(np.float32)
    forward_train(x, branches)
    forward_deploy(x, merged)
    train_times, deploy_times = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        forward_train(x, branches)
        train_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        forward_deploy(x, merged)
        deploy_times.append(time.perf_counter() - t0)
    train_med = float(np.median(train_times))
    deploy_med = float(np.median(deploy_times))
    ok = deploy_med < train_med
    detail = (
        f"{runs} runs each, median branch-set {train_med:.3f}s, "
        f"median merged {deploy_med:.3f}s, speedup {train_med / deploy_med:.3f}x"
    )
    assert _verdict(2, "merged kernel latency wins", ok, detail), detail


# ---------------------------------------------------------------------------
# 3. scatter lift matches per-point enumeration and conserves mass


def _yaw_matrix(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


_LIFT_CENTERS = bin_centers(1.0, 25.0, 16)


def _lift_instance(trial):
    rng = np.random.default_rng(100 + trial)
    cams = []
    for cam in camera_ring(2, (256, 704), (16, 44), float(rng.uniform(280, 420))):
        cams.append(
            dataclasses.replace(
                cam,
                rotation=_yaw_matrix(float(rng.uniform(-0.3, 0.3))) @ cam.rotation,
                translation=cam.translation + rng.uniform(-0.5, 0.5, 3),
            )
        )
    feats = rng.standard_normal((2, 8, 16, 44)).astype(np.float32)
    logits = rng.standard_normal((2, 16, 16, 44))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return feats, DepthDistribution(probs.astype(np.float32)), cams


def _lift_enumerated(feats, depth, cams, grid):
    """Scatter every (camera, bin, v, u) pseudo-point one at a time."""
    n_cams, c, h, w = feats.shape
    want = np.zeros((c,) + grid.counts, np.float64)
    mass = np.zeros(c, np.float64)
    centers = _LIFT_CENTERS
    sx, sy, sz = grid.start
    vx, vy, vz = grid.voxel_size
    nx, ny, nz = grid.counts
    for ci, cam in enumerate(cams):
        k_inv = np.linalg.inv(cam.intrinsics)
        rot, t = cam.rotation, cam.translation
        su = cam.image_size[1] / cam.feature_size[1]
        sv = cam.image_size[0] / cam.feature_size[0]
        fcast = feats[ci].astype(np.float64)
        for b in range(len(centers)):
            d = centers[b]
            for v in range(h):
                vi = (v + 0.5) * sv - 0.5
                for u in range(w):
                    ui = (u + 0.5) * su - 0.5
                    p = rot @ (k_inv @ np.array([ui * d, vi * d, d])) + t
                    ix = int(np.floor((p[0] - sx) / vx))
                    iy = int(np.floor((p[1] - sy) / vy))
                    iz = int(np.floor((p[2] - sz) / vz))
                    if 0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz:
                        wgt = float(depth.probs[ci, b, v, u])
                        want[:, ix, iy, iz] += wgt * fcast[:, v, u]
                        mass += wgt * fcast[:, v, u]
    return want, mass


def test_03_lift_matches_enumeration_oracle():
    grid = default_config().scene.grid.downsample(2)
    worst_rel = 0.0
    worst_mass = 0.0
    for trial in range(10):
        feats, depth, cams = _lift_instance(trial)
        got = lift_splat(feats, depth, LiftPlan.build(cams, _LIFT_CENTERS, grid))
        want, mass = _lift_enumerated(feats, depth, cams, grid)
        scale = max(float(np.abs(want).max()), 1e-12)
        worst_rel = max(worst_rel, float(np.abs(got - want).max()) / scale)
        got_mass = got.astype(np.float64).sum(axis=(1, 2, 3))
        mass_scale = float(np.abs(want).sum(axis=(1, 2, 3)).max()) + 1.0
        worst_mass = max(worst_mass, float(np.abs(got_mass - mass).max()) / mass_scale)
    ok = worst_rel <= 1e-4 and worst_mass <= 1e-5
    detail = (
        f"10 instances of 2x16x16x44 points, worst rel diff {worst_rel:.2e} <= 1e-4, "
        f"worst mass error {worst_mass:.2e} <= 1e-5"
    )
    assert _verdict(3, "scatter lift equals enumeration", ok, detail), detail


# ---------------------------------------------------------------------------
# 4. height lift is a partition of unity


def test_04_height_lift_partition_of_unity():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(200 + trial)
        b = rng.standard_normal((32, 24, 24)).astype(np.float32)
        weights = BVLWeights.seeded(trial, "acc_bvl", 32, 32, 8)
        vol = bev_to_voxel_lift(b, weights)
        w = cast(weights, b.dtype)
        ctx = conv(b, *w.context)
        scale = max(float(np.abs(ctx).max()), 1e-12)
        worst = max(worst, float(np.abs(vol.sum(axis=3) - ctx).max()) / scale)
    ok = worst <= 1e-5
    detail = f"10 instances, worst height-sum vs context rel diff {worst:.2e} <= 1e-5"
    assert _verdict(4, "height lift sums to context", ok, detail), detail


# ---------------------------------------------------------------------------
# 5. blend schedule shape and mixed-distribution normalization


def test_05_blend_schedule_properties():
    total = 10_000
    rng = np.random.default_rng(5)
    pred = softmax(rng.standard_normal((16, 8, 22)), axis=0)
    gt = np.zeros_like(pred)
    picks = rng.integers(0, 16, (8, 22))
    for i in range(8):
        for j in range(22):
            gt[picks[i, j], i, j] = 1.0
    worst_mid = 0.0
    worst_norm = 0.0
    monotone = True
    for r in (1, 2, 5, 10, 20):
        sched = MixupSchedule(steepness=r, total_iters=total)
        alphas = np.array([mixup_alpha(i, sched) for i in range(total + 1)])
        monotone = monotone and bool((np.diff(alphas) >= 0).all())
        worst_mid = max(worst_mid, abs(mixup_alpha(total // 2, sched) - 0.5))
        for it in (0, total // 4, total // 2, 3 * total // 4, total):
            mixed = mix_depth(pred, gt, alphas[it])
            worst_norm = max(worst_norm, float(np.abs(mixed.sum(axis=0) - 1.0).max()))
    ok = monotone and worst_mid <= 1e-12 and worst_norm <= 1e-5
    detail = (
        f"5 steepness values x {total + 1} iterations, non-decreasing={monotone}, "
        f"midpoint err {worst_mid:.1e} <= 1e-12, norm err {worst_norm:.1e} <= 1e-5"
    )
    assert _verdict(5, "blend schedule well formed", ok, detail), detail


# ---------------------------------------------------------------------------
# 6. BEV warp is exact on poses the grid can represent


def test_06_warp_exact_cases():
    grid = GridSpec((-16.0, -16.0, 0.0), (16.0, 16.0, 1.0), (32, 32, 1))
    rng = np.random.default_rng(6)
    b = rng.standard_normal((3, 32, 32)).astype(np.float32)

    pose = EgoPose.from_yaw(0.9, (5.0, -2.0, 0.0))
    identity_ok = np.array_equal(warp_bev(b, pose, pose, grid), b)

    shifted = warp_bev(
        b, identity_pose(), EgoPose.from_yaw(0.0, (1.0, 0.0, 0.0)), grid
    )
    want_shift = np.zeros_like(b)
    want_shift[:, :-1, :] = b[:, 1:, :]
    shift_ok = np.array_equal(shifted, want_shift)

    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    turned = warp_bev(b, identity_pose(), EgoPose(quarter, np.zeros(3)), grid)
    turn_ok = np.array_equal(turned, b[:, ::-1, :].transpose(0, 2, 1))

    ok = identity_ok and shift_ok and turn_ok
    detail = (
        f"identity exact={identity_ok}, one-cell shift exact={shift_ok}, "
        f"quarter turn exact={turn_ok}"
    )
    assert _verdict(6, "warp exact on aligned poses", ok, detail), detail


# ---------------------------------------------------------------------------
# 7. scoring sanity: perfect, disjoint, and a hand-counted grid


def test_07_scoring_reference_values():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 17, (4, 4, 2), dtype=np.uint8)
    perfect = miou(per_class_iou(labels, labels))

    disjoint = miou(
        per_class_iou(np.full((4, 4, 1), 2, np.uint8), np.full((4, 4, 1), 1, np.uint8))
    )

    # class 1: gt {0,1,2,3} vs pred {1,2,3,4,5} -> 3/6; class 2: gt {6,7,8}
    # vs pred {6,7,9,10} -> 2/5; everything else empty -> mean 0.45
    gt = np.full(16, EMPTY_CLASS, dtype=np.uint8)
    pred = np.full(16, EMPTY_CLASS, dtype=np.uint8)
    gt[[0, 1, 2, 3]] = 1
    pred[[1, 2, 3, 4, 5]] = 1
    gt[[6, 7, 8]] = 2
    pred[[6, 7, 9, 10]] = 2
    counted = miou(per_class_iou(pred.reshape(4, 4, 1), gt.reshape(4, 4, 1)))

    ok = perfect == 1.0 and disjoint == 0.0 and counted == 0.45
    detail = f"perfect={perfect}, disjoint={disjoint}, hand-counted={counted}"
    assert _verdict(7, "score reference values", ok, detail), detail


# ---------------------------------------------------------------------------
# 8. the default scene's lifted volume is mostly empty


def sparsity_ratio(v: np.ndarray) -> float:
    """Fraction of exactly-zero entries."""
    return float(v.size - np.count_nonzero(v)) / v.size


def test_08_default_scene_lift_sparsity():
    cfg = default_config()
    spec = cfg.scene
    scene = gen_scene(spec)
    frame = spec.n_frames - 1
    feats = frame_features(cfg, frame)
    one_hot, _ = gt_depth_from_points(scene.depth[frame], cfg.d_min, spec.d_max, cfg.depth_bins)
    depth = DepthDistribution(one_hot)
    centers = bin_centers(cfg.d_min, spec.d_max, cfg.depth_bins)
    half = spec.grid.downsample(2)
    lifted = lift_splat(feats, depth, LiftPlan.build(scene.cameras(), centers, half))
    ratio = sparsity_ratio(lifted)
    ok = ratio > 0.35
    detail = f"zero fraction {ratio:.3f} > 0.35"
    assert _verdict(8, "lifted volume sparsity", ok, detail), detail


# ---------------------------------------------------------------------------
# 9. end-to-end determinism and train/deploy agreement


GATE_CONFIG = """
[grid]
start = -9.6, -9.6, -1.0
end = 9.6, 9.6, 1.0
counts = 48, 48, 4

[depth]
bins = 8
min = 1.0
max = 25.0

[temporal]
queue = 3

[channels]
base = 8
refined = 8

[reparam]
kernel = 11x11x1
branches = default

[scene]
frames = 4
boxes = 4
cameras = 2
image = 64, 176
features = 8, 22
focal = 88.0
speed = 0.5
"""


def test_09_run_determinism_and_mode_agreement(tmp_path):
    cfg = tmp_path / "gate.cfg"
    cfg.write_text(GATE_CONFIG)
    scene = tmp_path / "scene"
    assert main(["gen-scene", "--config", str(cfg), "--out", str(scene)]) == 0

    outs = [tmp_path / name for name in ("run_a", "run_b", "run_train")]
    for out, mode in zip(outs, ("deploy", "deploy", "train")):
        args = [
            "run", "--config", str(cfg), "--scene", str(scene),
            "--alpha", "0.5", "--mode", mode, "--out", str(out),
        ]
        assert main(args) == 0

    bytes_a = (outs[0] / "logits.gsdt").read_bytes()
    bytes_b = (outs[1] / "logits.gsdt").read_bytes()
    identical = bytes_a == bytes_b

    deploy = gsdt.read(str(outs[0] / "logits.gsdt"))
    train = gsdt.read(str(outs[2] / "logits.gsdt"))
    mode_diff = float(np.abs(deploy - train).max())

    ok = identical and mode_diff <= 1e-4
    detail = (
        f"repeat runs byte-identical={identical}, "
        f"merged vs branch-set max diff {mode_diff:.2e} <= 1e-4"
    )
    assert _verdict(9, "deterministic end-to-end run", ok, detail), detail


# Check 9's commands in a fresh interpreter: OpenBLAS reads its thread count
# once, when it loads.
_GATE_CHILD = """
import sys
from occkit.cli import main
cfg, work = sys.argv[1:]
rc = main(["gen-scene", "--config", cfg, "--out", work + "/scene"])
for mode in ("deploy", "train"):
    rc = rc or main([
        "run", "--config", cfg, "--scene", work + "/scene", "--alpha", "0.5",
        "--mode", mode, "--out", work + "/" + mode,
    ])
sys.exit(rc)
"""


def test_gate_run_independent_of_blas_threads(tmp_path):
    """Check 9's runs give byte-identical logits with one and two BLAS threads."""
    cfg = tmp_path / "gate.cfg"
    cfg.write_text(GATE_CONFIG)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        child = subprocess.run(
            [sys.executable, "-c", _GATE_CHILD, str(cfg), str(tmp_path / threads)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
    for mode in ("deploy", "train"):
        one = (tmp_path / "1" / mode / "logits.gsdt").read_bytes()
        two = (tmp_path / "2" / mode / "logits.gsdt").read_bytes()
        assert one == two, f"{mode} logits differ between 1 and 2 BLAS threads"
