"""Explicit 2D-to-3D view transformation.

Per-pixel image features are weighted by a categorical depth distribution
(outer product) over the lift plan's bins, unprojected through the camera
frustum into ego space, and scatter-added into a voxel grid. A distribution
checks its probabilities when it is built. Pooling runs at 2x-downsampled
grid resolution, so the caller passes the already-halved grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Regular voxel partition of the box [start, end) in meters.

    ``counts`` are the voxel counts per axis; voxel size per axis is
    (end - start) / count.
    """

    start: tuple[float, float, float]
    end: tuple[float, float, float]
    counts: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "start", tuple(float(v) for v in self.start))
        object.__setattr__(self, "end", tuple(float(v) for v in self.end))
        object.__setattr__(self, "counts", tuple(int(v) for v in self.counts))
        if len(self.start) != 3 or len(self.end) != 3 or len(self.counts) != 3:
            raise ValueError("grid start/end/counts must each have 3 entries")
        if any(e <= s for s, e in zip(self.start, self.end)):
            raise ValueError(f"grid end must exceed start, got {self.start}..{self.end}")
        if any(c < 1 for c in self.counts):
            raise ValueError(f"voxel counts must be >= 1, got {self.counts}")

    @property
    def voxel_size(self) -> tuple[float, float, float]:
        return tuple(
            (e - s) / c for s, e, c in zip(self.start, self.end, self.counts)
        )

    def downsample(self, factor: int) -> "GridSpec":
        """Same metric range with voxel counts divided by ``factor``."""
        if any(c % factor for c in self.counts):
            raise ValueError(
                f"counts {self.counts} not divisible by downsample factor {factor}"
            )
        return GridSpec(self.start, self.end, tuple(c // factor for c in self.counts))

    def centers(self, axis: int) -> np.ndarray:
        """Metric coordinates of voxel centers along one axis (float64)."""
        size = self.voxel_size[axis]
        idx = np.arange(self.counts[axis], dtype=np.float64)
        return self.start[axis] + (idx + 0.5) * size

    def _axis_index(self, coords: np.ndarray, axis: int) -> np.ndarray:
        """Unclipped int64 voxel index of metric coordinates along one axis.
        Cells are half-open [lo, hi), so a coordinate on a shared face
        belongs to the higher-index voxel."""
        coords = np.asarray(coords, dtype=np.float64)
        size = self.voxel_size[axis]
        return np.floor((coords - self.start[axis]) / size).astype(np.int64)

    def voxel_index(self, points: np.ndarray):
        """Voxel of each metric point (..., 3): ``(idx, inside)``, the int64
        (..., 3) index and whether it lies in the grid; ``idx`` is unclipped
        outside the grid."""
        idx = np.stack([self._axis_index(points[..., a], a) for a in range(3)], axis=-1)
        return idx, ((idx >= 0) & (idx < np.array(self.counts))).all(axis=-1)

    def flat_index(self, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        """C-order flat voxel index of each point given per axis:
        ``(flat, inside)``, by the same rule as ``voxel_index``. ``flat`` is
        meaningful only where ``inside``."""
        flat, inside = 0, True
        for a, (coords, n) in enumerate(zip((x, y, z), self.counts)):
            i = self._axis_index(coords, a)
            inside = inside & (i >= 0) & (i < n)
            flat = flat * n + i
        return flat, inside


@dataclass(frozen=True)
class CameraParams:
    """Pinhole camera: intrinsics, camera-to-ego extrinsics, and the image /
    feature-map extents (rows, cols)."""

    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    image_size: tuple[int, int]
    feature_size: tuple[int, int]

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=np.float64)
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if k.shape != (3, 3) or r.shape != (3, 3):
            raise ValueError("intrinsics and rotation must be 3x3")
        if not all(np.isfinite(a).all() for a in (k, r, t)):
            raise ValueError("camera intrinsics, rotation and translation must be finite")
        if abs(np.linalg.det(k)) < 1e-12:
            raise ValueError("intrinsics matrix is singular")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-6:
            raise ValueError("rotation is not orthonormal")
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "image_size", tuple(int(v) for v in self.image_size))
        object.__setattr__(
            self, "feature_size", tuple(int(v) for v in self.feature_size)
        )

    def feature_to_image(self, u: np.ndarray, v: np.ndarray):
        """Map feature-map pixel indices to image-plane pixel coordinates
        (integer pixel centers), honoring the downsample ratio."""
        h_i, w_i = self.image_size
        h_f, w_f = self.feature_size
        su, sv = w_i / w_f, h_i / h_f
        return (u + 0.5) * su - 0.5, (v + 0.5) * sv - 0.5

    def pixels(self) -> np.ndarray:
        """(H_F, W_F, 3) float64 homogeneous image coordinates [u, v, 1] of
        every feature pixel; K^-1 maps them onto rays of unit optical depth."""
        h_f, w_f = self.feature_size
        v_idx, u_idx = np.meshgrid(
            np.arange(h_f, dtype=np.float64),
            np.arange(w_f, dtype=np.float64),
            indexing="ij",
        )
        u_img, v_img = self.feature_to_image(u_idx, v_idx)
        return np.stack([u_img, v_img, np.ones_like(u_img)], axis=-1)


@dataclass(frozen=True)
class DepthDistribution:
    """Per-camera categorical depth: probs (N_c, D_bin, H_F, W_F), one
    probability per bin of the ``LiftPlan`` it is lifted through. Built only
    from nonnegative probabilities that sum to 1 per pixel, to within 1e-4
    (float32 sums over the bins)."""

    probs: np.ndarray

    def __post_init__(self):
        if self.probs.ndim != 4:
            raise ValueError(f"probs must be 4D (cam, bin, v, u), got {self.probs.ndim}D")
        if (self.probs < 0).any():
            raise ValueError("depth probabilities must be nonnegative")
        if not np.max(np.abs(self.probs.sum(axis=1) - 1.0)) <= 1e-4:
            raise ValueError("depth probabilities must sum to 1 per pixel")


def bin_centers(d_min: float, d_max: float, n_bins: int) -> np.ndarray:
    """Metric centers of ``n_bins`` uniform depth bins over [d_min, d_max)."""
    if not (d_max > d_min > 0 and n_bins >= 1):
        raise ValueError(f"need 0 < d_min < d_max and n_bins >= 1, got {d_min}, {d_max}, {n_bins}")
    idx = np.arange(n_bins, dtype=np.float64)
    return d_min + (idx + 0.5) * ((d_max - d_min) / n_bins)


def frustum_points(cam: CameraParams, depth_bins: np.ndarray) -> np.ndarray:
    """Unproject every (depth bin, feature pixel) into 3D.

    Returns (D, H_F, W_F, 3) float64 points in the ego frame. Depth is
    measured along the optical axis, so a pixel at depth d unprojects to
    K^-1 [u*d, v*d, d].
    """
    d = np.asarray(depth_bins, dtype=np.float64).reshape(-1)
    # rays in homogeneous pixel coords, scaled by depth
    rays = cam.pixels()[None, :, :, :] * d[:, None, None, None]  # (D, H, W, 3)
    k_inv = np.linalg.inv(cam.intrinsics)
    pts_cam = rays @ k_inv.T
    return pts_cam @ cam.rotation.T + cam.translation


@dataclass(frozen=True)
class LiftPlan:
    """The frame-invariant half of a lift: which pseudo points land in the
    grid, and where. The rig and the depth bins do not move between frames,
    so one plan serves every frame of a run.

    Per camera, ``inside`` is the (D, H_F, W_F) in-grid mask of its frustum
    points, and ``pixel`` and ``voxel`` hold each kept point's flat feature
    pixel and flat voxel index, in C order of (bin, row, col). ``centers``,
    ``feature_size`` and ``grid`` are what the plan was built for.
    """

    grid: GridSpec
    centers: np.ndarray
    feature_size: tuple[int, int]
    inside: tuple[np.ndarray, ...]
    pixel: tuple[np.ndarray, ...]
    voxel: tuple[np.ndarray, ...]

    @property
    def n_cameras(self) -> int:
        return len(self.inside)

    @classmethod
    def build(
        cls, cams: list[CameraParams], centers: np.ndarray, grid: GridSpec
    ) -> "LiftPlan":
        sizes = {cam.feature_size for cam in cams}
        if len(sizes) != 1:
            raise ValueError(f"cameras must share one feature extent, got {sizes}")
        (feature_size,) = sizes
        centers = np.array(centers, dtype=np.float64).reshape(-1)
        inside, pixel, voxel = [], [], []
        for cam in cams:
            pts = frustum_points(cam, centers)
            flat, ok = grid.flat_index(pts[..., 0], pts[..., 1], pts[..., 2])
            inside.append(ok)
            pixel.append(np.flatnonzero(ok) % (feature_size[0] * feature_size[1]))
            voxel.append(flat[ok])
        return cls(grid, centers, feature_size, tuple(inside), tuple(pixel), tuple(voxel))


def lift_splat(
    features: np.ndarray, depth: DepthDistribution, plan: LiftPlan
) -> np.ndarray:
    """Lift image features into a voxel grid.

    features: (N_c, C, H_F, W_F). Every pseudo point carries its pixel's
    feature scaled by the bin probability and is scatter-added into the voxel
    containing it; points outside the grid are dropped. Both come from
    ``plan`` (``LiftPlan.build``), whose grid is the pooled (already
    downsampled) one; ``depth`` has a probability per planned bin and pixel.
    Each voxel sums its points from +0.0, camera by camera and in C order
    within a camera, so results are deterministic.
    """
    if features.ndim != 4:
        raise ValueError(f"features must be 4D (cam, C, v, u), got {features.ndim}D")
    if plan.n_cameras != features.shape[0] or plan.n_cameras != depth.probs.shape[0]:
        raise ValueError(
            f"camera count mismatch: {plan.n_cameras} planned, {features.shape[0]} "
            f"feature maps, {depth.probs.shape[0]} depth maps"
        )
    planned = (plan.centers.size,) + plan.feature_size
    if features.shape[2:] != plan.feature_size or depth.probs.shape[1:] != planned:
        raise ValueError(
            f"feature extents {features.shape[2:]} and depth (bins, extents) "
            f"{depth.probs.shape[1:]} must equal the planned bin centers and extents {planned}"
        )
    n_ch = features.shape[1]
    n_vox = int(np.prod(plan.grid.counts))
    # per camera, every kept point's C per-channel weights: feature * prob
    weights = [
        features[i].reshape(n_ch, -1).astype(np.float64).take(pixel, axis=1)
        * depth.probs[i][inside].astype(np.float64)
        for i, (inside, pixel) in enumerate(zip(plan.inside, plan.pixel))
    ]
    # one channel at a time, so the float64 sum stays one small row
    out = np.empty((n_ch, n_vox), dtype=features.dtype)
    for c in range(n_ch):
        acc = np.zeros(n_vox)
        for voxel, w in zip(plan.voxel, weights):
            acc += np.bincount(voxel, weights=w[c], minlength=n_vox)
        out[c] = acc
    return out.reshape((n_ch,) + plan.grid.counts)


def sparsity_ratio(v: np.ndarray) -> float:
    """Fraction of exactly-zero entries."""
    if v.size == 0:
        raise ValueError("empty tensor has no sparsity ratio")
    return float(v.size - np.count_nonzero(v)) / v.size
