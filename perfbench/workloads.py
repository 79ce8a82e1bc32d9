"""The benchmark's workloads: inputs, the timed call, and output checks.

Every workload writes its config as an INI file and reads it back with
``parse_config``, as ``occ`` does; the workload seed becomes the scene seed,
so the program receives only the scene generated from it. The pipeline
weights keep the config's default seed: they play the trained model, the
scene plays the input. Scene generation is part of every set-up, and the
first set-up's scene is checked against an exact geometry oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import occkit.config
import occkit.evaluate
import occkit.pipeline
import occkit.scene

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# Desk defaults: 96x96x8 grid, 2 cameras, 16 bins, queue 15, 16 frames, gt depth.
DESK_CONFIG = """\
[scene]
seed = {seed}
"""

# 80 m x 80 m: the half grid is 32x100x100x8, acceptance check 2's conv shape.
WIDE_CONFIG = """\
[grid]
start = -40, -40, -1
end = 40, 40, 2.2
counts = 200, 200, 16

[temporal]
queue = 3

[pipeline]
depth_provider = stub

[scene]
seed = {seed}
frames = 8
boxes = 24
"""

ALPHA = 0.5
TRAIN_DEPLOY_TOL = 1e-4
REF_SAMPLES = 64


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    mode: str  # reparam mode of the timed call

    def config_for(self, seed: int) -> str:
        return self.config_text.format(seed=seed)

    def prepare(self, seed: int, workdir: str):
        """Set-up that ``occ`` repeats per run: config, scene, weights.

        ``generated`` is the scene before its round trip through disk, kept
        for ``check_scene``. ``first`` will hold the first call's output
        digest, which every later call must repeat.
        """
        path = os.path.join(workdir, "config.ini")
        with open(path, "w") as f:
            f.write(self.config_for(seed))
        config = occkit.config.parse_config(path)
        scene_dir = os.path.join(workdir, "scene")
        bundle = occkit.scene.gen_scene(config.scene_spec())
        occkit.scene.save_scene(bundle, scene_dir)
        scene = occkit.scene.load_scene(scene_dir)
        weights = occkit.pipeline.build_weights(config)
        return {"config": config, "scene": scene, "weights": weights,
                "generated": bundle, "first": {}}

    def call(self, state, span=None):
        """One timed call: what ``occ run`` + ``occ eval`` do."""
        return self.run(state, self.mode, span)

    def run(self, state, mode, span=None):
        scene = state["scene"]
        logits, _ = occkit.pipeline.run_pipeline(
            state["config"], scene, ALPHA, mode, state["weights"])
        with (span or nullcontext)("evaluate.score"):
            pred = occkit.evaluate.argmax_decode(logits)
            ious = occkit.evaluate.per_class_iou(
                pred, scene.occupancy[-1], scene.visible[-1])
            score = occkit.evaluate.miou(ious)
        return logits, score

    def check(self, state, out, reference: dict | None) -> list[str]:
        """Problems with one call's output; the first call is the baseline
        that later calls must repeat byte for byte."""
        logits, score = out
        config = state["config"]
        shape = (occkit.evaluate.N_CLASSES,) + config.grid.counts
        if logits.shape != shape or logits.dtype != np.float32:
            return [f"logits are {logits.dtype}{logits.shape}, expected float32{shape}"]
        if not np.isfinite(logits).all():
            return ["logits hold non-finite values"]
        sha = digest(logits)
        first = state["first"]
        if first:
            problems = []
            if sha != first["sha"]:
                problems.append("logits differ from the first call's")
            if repr(score) != repr(first["miou"]):
                problems.append(f"mIoU {score!r} != first call's {first['miou']!r}")
            return problems
        first.update(sha=sha, miou=score)
        if reference is None:
            return []
        problems = []
        if "logits_sha256" in reference and sha != reference["logits_sha256"]:
            problems.append(f"logits sha256 {sha[:16]} != reference "
                            f"{reference['logits_sha256'][:16]}")
        if "logits_sample" in reference:
            got = sample_logits(logits)
            want = np.array(reference["logits_sample"], dtype=np.float64)
            err = float(np.max(np.abs(got - want)))
            if err > TRAIN_DEPLOY_TOL:
                problems.append(f"logits sample off reference by {err:.3e}")
        if "miou" in reference and repr(score) != repr(reference["miou"]):
            problems.append(f"mIoU {score!r} != reference {reference['miou']!r}")
        return problems

    def final_check(self, state, out) -> list[str]:
        """Train-form logits against the merged deploy form, once."""
        if self.mode != "train":
            return []
        deploy, _ = self.run(state, "deploy")
        err = float(np.max(np.abs(out[0] - deploy)))
        if not err <= TRAIN_DEPLOY_TOL:
            return [f"train vs deploy max abs diff {err:.3e} > {TRAIN_DEPLOY_TOL:g}"]
        return []

    def check_scene(self, state, reference: dict | None) -> tuple[list[str], int]:
        """Problems with the set-up's scene, and how many rays skipped their
        first surface. The scene must survive the round trip through disk
        and match the geometry oracle."""
        bundle = state.pop("generated")
        back = state["scene"]
        problems = []
        if (digest(back.occupancy, back.visible, back.depth, back.poses)
                != digest(bundle.occupancy, bundle.visible, bundle.depth, bundle.poses)):
            problems.append("scene read back from disk differs from the generated one")
        geometry, skipped = check_scene_geometry(state["config"].scene_spec(), back)
        problems.extend(geometry)
        occ_sha = digest(back.occupancy)
        if reference and occ_sha != reference["occupancy_sha256"]:
            problems.append(f"occupancy sha256 {occ_sha[:16]} != reference "
                            f"{reference['occupancy_sha256'][:16]}")
        return problems, skipped


WORKLOADS = {
    "desk_deploy": Workload("desk_deploy", DESK_CONFIG, "deploy"),
    "wide_train": Workload("wide_train", WIDE_CONFIG, "train"),
}


def sample_logits(logits: np.ndarray) -> np.ndarray:
    """A fixed, shape-seeded sample of logits for tolerance comparisons."""
    rng = np.random.default_rng(logits.size)
    flat = logits.reshape(-1)
    return flat[rng.integers(0, flat.size, REF_SAMPLES)].astype(np.float64)


# ---------------------------------------------------------------- scene oracle


def _camera_rays(cams):
    """One ray per feature pixel, parametrized by optical-axis depth."""
    origins, dirs = [], []
    for cam in cams:
        h_f, w_f = cam.feature_size
        v, u = np.meshgrid(np.arange(h_f, dtype=np.float64),
                           np.arange(w_f, dtype=np.float64), indexing="ij")
        u_img, v_img = cam.feature_to_image(u, v)
        pix = np.stack([u_img, v_img, np.ones_like(u_img)], axis=-1).reshape(-1, 3)
        ray = pix @ np.linalg.inv(cam.intrinsics).T
        dirs.append(ray @ cam.rotation.T)
        origins.append(np.broadcast_to(cam.translation, ray.shape))
    return np.concatenate(origins), np.concatenate(dirs)


def _slab(o, d, lo, hi):
    """Ray/box entry and exit depths, (boxes, rays), by the slab method."""
    o, d = o[None], d[None]
    lo, hi = lo[:, None], hi[:, None]
    inside = (o >= lo) & (o <= hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - o) / d
        t2 = (hi - o) / d
    near = np.where(d == 0, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
    far = np.where(d == 0, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
    return near.max(axis=-1), far.min(axis=-1)


def _first_run(near, far, eps):
    """Depth of each ray's first occupied crossing and the length of the
    occupied run that starts there; -1 and 0 where the ray hits nothing."""
    hit = (near <= far) & (far >= 0)
    near = np.where(hit, np.maximum(near, 0.0), np.inf)
    far = np.where(hit, far, -np.inf)
    order = np.argsort(near, axis=0)
    near = np.take_along_axis(near, order, axis=0)
    far = np.take_along_axis(far, order, axis=0)
    end = far[0].copy()
    open_run = np.isfinite(near[0])
    for k in range(1, near.shape[0]):
        open_run &= near[k] <= end + eps
        end = np.where(open_run, np.maximum(end, far[k]), end)
    first = near[0]
    has = np.isfinite(first)
    return np.where(has, first, -1.0), np.where(has, end - first, 0.0)


def check_scene_geometry(spec, bundle) -> tuple[list[str], int]:
    """Check a generated scene against an exact, independent reference.

    Occupancy must equal a separable rasterization of the boxes (voxel
    centers inside a box). Depth is compared with exact ray/box crossings of
    the occupied voxels. ``_march_frame`` documents a one-step bound, with
    the caveat that a grazing ray can skip a sliver thinner than a step:
    where both hit, depth must lie within one step of the exact crossing,
    except on rays whose first occupied run is shorter than a step; there it
    must simply not lie before the crossing.

    Returns the problems found and the number of rays whose first surface
    the renderer skipped, which the bound allows but a run reports.
    """
    if spec.yaw_rate != 0.0:
        raise ValueError("the scene oracle assumes yaw-free ego motion")
    grid = spec.grid
    boxes = spec.resolve_boxes()
    origins, dirs = _camera_rays(spec.cameras())
    start = np.array(grid.start)
    vsize = np.array(grid.voxel_size)
    step = spec.march_step
    eps = 1e-6
    problems = []
    skipped = 0
    for t in range(spec.n_frames):
        shift = (spec.speed * t, 0.0, 0.0)
        occ = np.full(grid.counts, occkit.evaluate.EMPTY_CLASS, dtype=np.uint8)
        lo, hi = [], []
        for b in boxes:
            masks = [(grid.centers(a) + shift[a] >= b.lo[a])
                     & (grid.centers(a) + shift[a] < b.hi[a]) for a in range(3)]
            occ[np.ix_(*masks)] = b.cls
            if all(m.any() for m in masks):
                first = np.array([np.argmax(m) for m in masks])
                last = np.array([m.size - np.argmax(m[::-1]) for m in masks])
                lo.append(start + first * vsize)
                hi.append(start + last * vsize)
        if not np.array_equal(occ, bundle.occupancy[t]):
            problems.append(f"frame {t}: occupancy differs from the box rasterization")
            continue
        depth = bundle.depth[t].reshape(-1).astype(np.float64)
        if not lo:
            if (depth > 0).any():
                problems.append(f"frame {t}: depth hits in an empty scene")
            continue
        near, far = _slab(origins, dirs, np.array(lo), np.array(hi))
        exact, run = _first_run(near, far, eps)
        got = depth > 0
        if (got & (exact < 0)).any():
            problems.append(f"frame {t}: depth hits where no voxel is occupied")
        both = got & (exact >= 0)
        early = both & (depth < exact - 1e-4)
        late = both & (run > step + eps) & (depth > exact + step + 1e-4)
        if early.any() or late.any():
            problems.append(
                f"frame {t}: {int(early.sum() + late.sum())} depths outside the "
                f"one-step bound of the exact crossing")
        reachable = (exact >= 0) & (exact < spec.d_max - step)
        skipped += int((reachable & ~(got & (depth <= exact + step + 1e-4))).sum())
    return problems, skipped
