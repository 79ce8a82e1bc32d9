"""Synthetic scene generation.

A scene is a handful of axis-aligned box obstacles in a static world, an ego
vehicle driving through it, and a ring of pinhole cameras on the ego. Per
frame we rasterize the boxes into an ego-centric class grid, ray-march every
camera ray to its first occupied voxel for depth, and record which voxels
any ray passed through as the visibility mask.

A scene's spec is the ``SCENE_KEYS`` rows ([grid], [depth] max, [scene]) of
a saved scene's manifest or of a config; ``build_spec`` builds it from either,
and ``GridSpec`` and ``SceneSpec`` check each value once, naming its key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import gsdt, keyfile
from .bev import EgoPose
from .evaluate import EMPTY_CLASS, N_CLASSES
from .keyfile import ConfigError, integer, number, vector
from .tensor import rng_named
from .view import CameraParams, GridSpec

# Centre draws in the ego's 3 m bubble after which a box has no room.
CENTRE_TRIES = 1000


@dataclass(frozen=True)
class BoxObstacle:
    """Axis-aligned box in world coordinates, tagged with a class id."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    cls: int

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "size", tuple(float(v) for v in self.size))
        if any(s <= 0 for s in self.size):
            raise ValueError(f"box size must be positive, got {self.size}")
        if not 0 <= self.cls < N_CLASSES or self.cls == EMPTY_CLASS:
            raise ValueError(f"box class must be a non-empty class id, got {self.cls}")

    @property
    def lo(self) -> np.ndarray:
        return np.array(self.center) - 0.5 * np.array(self.size)

    @property
    def hi(self) -> np.ndarray:
        return np.array(self.center) + 0.5 * np.array(self.size)


def camera_ring(
    n_cameras: int,
    image_size: tuple[int, int],
    feature_size: tuple[int, int],
    focal: float,
) -> list[CameraParams]:
    """Evenly spaced horizontal cameras: camera i yaws 2*pi*i/n from ego +x
    and sits 0.3 m out from the ego origin along its axis, 1.5 m up.

    Camera frames are optical (x right, y down, z forward); camera 0 looks
    straight ahead.
    """
    h_i, w_i = image_size
    k = np.array(
        [
            [focal, 0.0, w_i / 2 - 0.5],
            [0.0, focal, h_i / 2 - 0.5],
            [0.0, 0.0, 1.0],
        ]
    )
    # optical axes -> ego axes for a forward-looking camera
    base = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    cams = []
    for i in range(n_cameras):
        rz = EgoPose.from_yaw(2.0 * np.pi * i / n_cameras).rotation
        rot = rz @ base
        t = np.array([0.3 * rz[0, 0], 0.3 * rz[1, 0], 1.5])
        cams.append(
            CameraParams(k, rot, t, image_size=image_size, feature_size=feature_size)
        )
    return cams


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to generate a scene deterministically. A value out
    of range is a ConfigError naming its config and manifest key."""

    seed: int
    grid: GridSpec
    n_frames: int
    n_boxes: int = 8
    n_cameras: int = 2
    image_size: tuple[int, int] = (256, 704)
    feature_size: tuple[int, int] = (16, 44)
    focal: float = 352.0
    d_max: float = 25.0
    march_step: float = 0.1
    speed: float = 0.4
    yaw_rate: float = 0.0

    def __post_init__(self):
        for key, value, low in (
            ("[scene] seed", self.seed, 0),
            ("[scene] frames", self.n_frames, 1),
            ("[scene] boxes", self.n_boxes, 0),
            ("[scene] cameras", self.n_cameras, 1),
            ("[scene] image entries", min(self.image_size), 1),
            ("[scene] features entries", min(self.feature_size), 1),
        ):
            if value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        for key, value in (
            ("[scene] focal", self.focal),
            ("[scene] march_step", self.march_step),
            ("[depth] max", self.d_max),
        ):
            if not value > 0:
                raise ConfigError(f"{key} must be > 0, got {value}")

    def cameras(self) -> list[CameraParams]:
        return camera_ring(
            self.n_cameras, self.image_size, self.feature_size, self.focal
        )

    def poses(self) -> list[EgoPose]:
        """Ego-to-world pose per frame: constant speed along heading with an
        optional constant yaw rate; frame 0 is the identity."""
        out = []
        for t in range(self.n_frames):
            out.append(
                EgoPose.from_yaw(self.yaw_rate * t, (self.speed * t, 0.0, 0.0))
            )
        return out

    def resolve_boxes(self) -> tuple[BoxObstacle, ...]:
        """Seeded random boxes inside the frame-0 grid: each centre is drawn
        from the grid shrunk by half the box, up to ``CENTRE_TRIES`` times
        while it lies in the ego's bubble. A grid too small for a drawn box
        is an error naming both, raised before the draw it would fail."""
        rng = rng_named(self.seed, "scene/boxes")
        lo = np.array(self.grid.start)
        hi = np.array(self.grid.end)
        span = hi - lo
        grid = f"grid {self.grid.start}..{self.grid.end}"
        boxes = []
        for _ in range(self.n_boxes):
            size_xy = rng.uniform(0.8, 3.2, size=2)
            box = f"{size_xy[0]:.2f} x {size_xy[1]:.2f} m box"
            if span[2] < 0.8:
                raise ValueError(f"{grid} is {span[2]:.2f} m tall, too low for a {box}")
            size_z = rng.uniform(0.8, min(2.4, span[2]))
            margin = np.array([size_xy[0], size_xy[1], size_z]) * 0.5
            if (lo[:2] + margin[:2] > hi[:2] - margin[:2]).any():
                raise ValueError(
                    f"{grid} is {span[0]:.2f} x {span[1]:.2f} m, too small for a {box}"
                )
            # keep a clear bubble around the ego so cameras never start
            # inside an obstacle
            for _ in range(CENTRE_TRIES):
                cx = rng.uniform(lo[0] + margin[0], hi[0] - margin[0])
                cy = rng.uniform(lo[1] + margin[1], hi[1] - margin[1])
                if np.hypot(cx, cy) > 3.0:
                    break
            else:
                raise ValueError(
                    f"{grid} has no room for a {box} outside the 3 m "
                    f"bubble around the ego"
                )
            cz = lo[2] + size_z / 2
            cls = int(rng.integers(1, EMPTY_CLASS))
            boxes.append(
                BoxObstacle((cx, cy, cz), (size_xy[0], size_xy[1], size_z), cls)
            )
        return tuple(boxes)


@dataclass
class SceneBundle:
    """Generated scene: per-frame class grids, visibility masks, depth maps,
    and ego poses, plus the spec that made them, whose grid they are on."""

    occupancy: np.ndarray  # (T, X, Y, Z) uint8 class ids
    visible: np.ndarray  # (T, X, Y, Z) uint8 0/1
    depth: np.ndarray  # (T, N_c, H_F, W_F) float32, -1 where no hit
    poses: np.ndarray  # (T, 4, 4) float64 ego-to-world
    spec: SceneSpec

    @property
    def n_frames(self) -> int:
        return self.occupancy.shape[0]

    def pose(self, t: int) -> EgoPose:
        return EgoPose.from_matrix(self.poses[t])

    def cameras(self) -> list[CameraParams]:
        return self.spec.cameras()


def _rasterize(
    boxes, grid: GridSpec, pose: EgoPose
) -> np.ndarray:
    """Class grid in the ego frame; later boxes overwrite earlier ones.

    A voxel is a box's when its centre, in world coordinates, lies in the
    box. Each box tests only the voxels of its ego-frame bounding box,
    widened by one voxel per side so that rounding cannot drop a centre.

    Only the full-height centre columns over the box's x/y range go
    through the pose, and the box's z range is sliced from them after the
    transform. Each column is then the same (Z, 3) @ (3, 3) product that a
    transform of the whole grid's centre array makes, which keeps every
    world coordinate's bytes; clipping z first would transform shorter
    columns, whose products BLAS may round differently at nonzero yaw.
    """
    cx, cy, cz = (grid.centers(a) for a in range(3))
    out = np.full(grid.counts, EMPTY_CLASS, dtype=np.uint8)
    to_ego = pose.inverse()
    counts = np.array(grid.counts)
    for b in boxes:
        corners = np.array(list(product(*zip(b.lo, b.hi))))
        ego = corners @ to_ego.rotation.T + to_ego.translation
        # axis_index is monotone, so the corners' extreme indices bound the box
        idx = np.stack([grid.axis_index(ego[:, a], a) for a in range(3)], axis=1)
        lo = np.clip(idx.min(axis=0) - 1, 0, counts)
        hi = np.clip(idx.max(axis=0) + 2, 0, counts)
        cols = np.stack(
            np.meshgrid(cx[lo[0]:hi[0]], cy[lo[1]:hi[1]], cz, indexing="ij"), axis=-1
        )
        world = (cols @ pose.rotation.T + pose.translation)[:, :, lo[2]:hi[2]]
        inside = ((world >= b.lo) & (world < b.hi)).all(axis=-1)
        out[tuple(slice(l, h) for l, h in zip(lo, hi))][inside] = b.cls
    return out


@dataclass(frozen=True)
class MarchPlan:
    """The frame-invariant half of a march: every camera ray and the voxel
    of each of its kept samples. The rig and the ego grid do not move
    between frames, so one plan serves every frame of a scene.

    Rays are numbered camera by camera in pixel order. ``origins`` and
    ``dirs`` are each ray's (R, 3) origin and direction, with optical-axis
    depth 1. The kept samples of all rays are listed in (ray, k) order:
    ``ray_of``, ``d``, ``flat`` and ``inside`` give each one's ray, depth,
    flat voxel index and in-grid mask (``flat`` is meaningful only where
    ``inside``), and ``last`` gives each ray's last sample in that list.
    """

    grid: GridSpec
    step: float
    depth_shape: tuple[int, int, int]  # (N_c, H_F, W_F)
    origins: np.ndarray
    dirs: np.ndarray
    ray_of: np.ndarray
    d: np.ndarray
    flat: np.ndarray
    inside: np.ndarray
    last: np.ndarray

    @classmethod
    def build(
        cls, grid: GridSpec, cams: list[CameraParams], d_max: float, step: float
    ) -> "MarchPlan":
        """Each ray's samples sit at d = (k + 0.5) * step, up to d_max: the
        samples of a march that steps every ray to d_max. A slab test clips
        each ray to the grid box widened by one step of travel on every
        side, and the ray keeps only its samples inside that. A dropped
        sample lies over a step outside the grid, far beyond the rounding of
        its coordinates, so it could neither mark a voxel visible nor hit
        one; this holds as well along direction components of 0 or within
        rounding of 0."""
        # the march's samples: k < ceil(d_max / step) and d <= d_max
        ks = np.arange(int(np.ceil(d_max / step)))
        n_steps = int(np.count_nonzero((ks + 0.5) * step <= d_max))
        # z components are exactly 1 before the rotation
        rays = [cam.pixels().reshape(-1, 3) @ np.linalg.inv(cam.intrinsics).T for cam in cams]
        dirs = np.concatenate([ray @ cam.rotation.T for ray, cam in zip(rays, cams)])
        origins = np.concatenate(
            [np.broadcast_to(cam.translation, ray.shape) for ray, cam in zip(rays, cams)]
        )

        start, end = np.array(grid.start), np.array(grid.end)
        pad = step * np.linalg.norm(dirs, axis=1, keepdims=True)  # one step of travel
        with np.errstate(all="ignore"):  # 0 components give inf, or nan fmin/fmax skip
            t1, t2 = (start - pad - origins) / dirs, (end + pad - origins) / dirs
            near, far = np.fmin(t1, t2).max(axis=1), np.fmax(t1, t2).min(axis=1)
            k_lo = np.clip(np.ceil(near / step - 0.5), 0, n_steps).astype(np.int64)
            k_hi = np.clip(np.floor(far / step - 0.5) + 1, 0, n_steps).astype(np.int64)
        n = np.maximum(k_hi - k_lo, 0)

        # every kept sample, in (ray, k) order
        first = np.cumsum(n) - n
        ray_of = np.repeat(np.arange(len(n)), n)
        k = np.arange(n.sum()) + np.repeat(k_lo - first, n)
        d = (k + 0.5) * step
        flat, inside = grid.flat_index(
            *(origins[ray_of, a] + d * dirs[ray_of, a] for a in range(3))
        )
        h_f, w_f = cams[0].feature_size
        return cls(
            grid, step, (len(cams), h_f, w_f),
            origins, dirs, ray_of, d, flat, inside, first + n - 1,
        )


def _march_frame(occ: np.ndarray, plan: MarchPlan):
    """Depth and visibility for one frame.

    Every feature pixel casts one ray, and ``plan`` (``MarchPlan.build``)
    holds the ray's samples, clipped to the grid, and each one's voxel. A
    frame only looks its samples up in ``occ``, all in one pass.

    A ray's first sample inside an occupied voxel brackets the surface;
    bisection then narrows the crossing to ~1e-7 * step. Depth error against
    the true first crossing is bounded by one step (a grazing ray can skip a
    sliver thinner than the step). Visibility marks every voxel a sample
    lands in up to and including the hit voxel.
    """
    grid, ray_of = plan.grid, plan.ray_of
    occupied = occ.reshape(-1) != EMPTY_CLASS
    hit = plan.inside & occupied.take(plan.flat, mode="clip")

    hits = np.flatnonzero(hit)
    hits = hits[np.diff(ray_of[hits], prepend=-1) != 0]  # each ray's first
    last = plan.last.copy()
    last[ray_of[hits]] = hits
    seen = plan.inside & (np.arange(ray_of.size) <= last[ray_of])
    visible = np.zeros(occ.size, dtype=bool)
    visible[plan.flat[seen]] = True
    hit_d = np.full(len(last), -1.0)
    hit_d[ray_of[hits]] = plan.d[hits]

    # bisect [d_hit - step, d_hit] down to the free/occupied crossing
    hit_ids = np.nonzero(hit_d > 0)[0]
    if hit_ids.size:
        step = plan.step
        lo = np.maximum(hit_d[hit_ids] - step, 1e-9)
        hi = hit_d[hit_ids].copy()
        o = plan.origins[hit_ids]
        r = plan.dirs[hit_ids]
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            flat, inside = grid.flat_index(*(o + mid[:, None] * r).T)
            occ_mid = inside & occupied.take(flat, mode="clip")
            hi = np.where(occ_mid, mid, hi)
            lo = np.where(occ_mid, lo, mid)
        hit_d[hit_ids] = 0.5 * (lo + hi)

    depth = hit_d.reshape(plan.depth_shape).astype(np.float32)
    return depth, visible.reshape(grid.counts)


def gen_scene(spec: SceneSpec) -> SceneBundle:
    """Generate the full bundle; bit-identical for equal specs."""
    boxes = spec.resolve_boxes()
    poses = spec.poses()
    plan = MarchPlan.build(spec.grid, spec.cameras(), spec.d_max, spec.march_step)
    nx, ny, nz = spec.grid.counts
    t_total = spec.n_frames
    h_f, w_f = spec.feature_size

    occupancy = np.empty((t_total, nx, ny, nz), dtype=np.uint8)
    visible = np.empty((t_total, nx, ny, nz), dtype=np.uint8)
    depth = np.empty((t_total, spec.n_cameras, h_f, w_f), dtype=np.float32)
    pose_mats = np.empty((t_total, 4, 4), dtype=np.float64)

    for t in range(t_total):
        occ = _rasterize(boxes, spec.grid, poses[t])
        d, vis = _march_frame(occ, plan)
        occupancy[t] = occ
        visible[t] = vis.astype(np.uint8)
        depth[t] = d
        pose_mats[t] = poses[t].matrix()

    return SceneBundle(occupancy, visible, depth, pose_mats, spec)


# Each manifest key once, as a ``keyfile`` table: [grid] fields are
# GridSpec's, all others SceneSpec's.
SCENE_KEYS = {
    "grid": {
        "start": ("start", vector(float, 3, "non-numeric")),
        "end": ("end", vector(float, 3, "non-numeric")),
        "counts": ("counts", vector(int, 3, "non-integer")),
    },
    "depth": {"max": ("d_max", number)},
    "scene": {
        "seed": ("seed", integer),
        "frames": ("n_frames", integer),
        "boxes": ("n_boxes", integer),
        "cameras": ("n_cameras", integer),
        "image": ("image_size", vector(int, 2, "non-integer")),
        "features": ("feature_size", vector(int, 2, "non-integer")),
        "focal": ("focal", number),
        "march_step": ("march_step", number),
        "speed": ("speed", number),
        "yaw_rate": ("yaw_rate", number),
    },
}


def build_spec(values: dict, base: SceneSpec | None = None) -> SceneSpec:
    """The spec of the ``SCENE_KEYS`` fields that ``values``, a
    ``keyfile.read`` result, gives up: a manifest's sets every field, a
    config's keeps ``base``'s where it lacks a key. A grid that ``GridSpec``
    rejects is a ConfigError naming [grid]."""
    grid, fields = values.pop("grid"), values.pop("scene")
    for field, _ in SCENE_KEYS["depth"].values():  # a config's [depth] has other keys
        if field in values["depth"]:
            fields[field] = values["depth"].pop(field)
    try:
        grid = replace(base.grid, **grid) if base else GridSpec(**grid)
    except ValueError as e:
        raise ConfigError(f"invalid [grid]: {e}") from None
    return replace(base, grid=grid, **fields) if base else SceneSpec(grid=grid, **fields)


def save_scene(bundle: SceneBundle, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    gsdt.write(os.path.join(out_dir, "occupancy.gsdt"), bundle.occupancy)
    gsdt.write(os.path.join(out_dir, "visible.gsdt"), bundle.visible)
    gsdt.write(os.path.join(out_dir, "depth.gsdt"), bundle.depth)
    gsdt.write(os.path.join(out_dir, "poses.gsdt"), bundle.poses)
    s = bundle.spec
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        keyfile.write(f, SCENE_KEYS, {"grid": s.grid, "depth": s, "scene": s})


# Each scene tensor's file stem, dtype, a test that its values are out of
# domain, and the domain (poses are checked frame by frame in
# ``load_scene``). The grids are tested by their maximum, which makes no
# temporary array.
_TENSORS = (
    ("occupancy", np.uint8, lambda a: a.max(initial=0) > EMPTY_CLASS,
     f"class labels at most {EMPTY_CLASS}"),
    ("visible", np.uint8, lambda a: a.max(initial=0) > 1, "only 0 and 1"),
    ("depth", np.float32,
     lambda a: not ((a == -1) | ((a > 0) & (a < np.inf))).all(),
     "depths that are -1 or finite and positive"),
    ("poses", np.float64, lambda a: False, ""),
)


def _read_tensor(scene_dir: str, stem: str, dtype, bad, domain: str) -> np.ndarray:
    path = os.path.join(scene_dir, f"{stem}.gsdt")
    arr = gsdt.read(path)
    if arr.dtype != dtype:
        raise ValueError(
            f"scene {stem} {path} must be {np.dtype(dtype).name}, got {arr.dtype}"
        )
    if bad(arr):
        raise ValueError(f"scene {stem} {path} must hold {domain}")
    return arr


def load_scene(scene_dir: str) -> SceneBundle:
    path = os.path.join(scene_dir, "manifest.txt")
    values = keyfile.read(path, "scene manifest", SCENE_KEYS, required=True)
    try:
        spec = build_spec(values)
    except ValueError as e:
        raise ValueError(f"scene manifest {path}: {e}") from None
    occupancy, visible, depth, poses = (_read_tensor(scene_dir, *t) for t in _TENSORS)
    poses_path = os.path.join(scene_dir, "poses.gsdt")
    expected = (spec.n_frames,) + spec.grid.counts
    if occupancy.shape != expected or visible.shape != expected:
        raise ValueError(
            f"scene grids have shape {occupancy.shape}, manifest says {expected}"
        )
    if depth.shape != (spec.n_frames, spec.n_cameras) + spec.feature_size:
        raise ValueError(f"scene depth shape {depth.shape} does not match manifest")
    if poses.shape != (spec.n_frames, 4, 4):
        raise ValueError(f"scene poses shape {poses.shape} does not match manifest")
    for t, m in enumerate(poses):
        where = f"scene poses {poses_path}: frame {t}"
        if not np.isfinite(m).all():
            raise ValueError(f"{where} must be finite")
        try:
            EgoPose.from_matrix(m)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
    return SceneBundle(occupancy, visible, depth, poses, spec)
