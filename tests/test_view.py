import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import occkit.view
from occkit.config import default_config
from occkit.pipeline import StubDepthWeights, _stub_depth, frame_features
from occkit.schedule import gt_depth_from_points
from occkit.view import (
    CameraParams,
    DepthDistribution,
    GridSpec,
    LiftPlan,
    bin_centers,
    frustum_points,
    lift_splat,
)
from support import voxel_index, with_scene


def image_to_feature(cam, u_img, v_img):
    """Inverse of :meth:`CameraParams.feature_to_image`."""
    h_i, w_i = cam.image_size
    h_f, w_f = cam.feature_size
    su, sv = w_i / w_f, h_i / h_f
    return (u_img + 0.5) / su - 0.5, (v_img + 0.5) / sv - 0.5


def project_points(cam, points):
    """Inverse of :func:`frustum_points` for ego-frame points: returns
    feature-map (u, v) coordinates and optical-axis depth."""
    pts_cam = (points - cam.translation) @ cam.rotation
    pix = pts_cam @ cam.intrinsics.T
    depth = pix[..., 2]
    u_img = pix[..., 0] / depth
    v_img = pix[..., 1] / depth
    u_f, v_f = image_to_feature(cam, u_img, v_img)
    return u_f, v_f, depth


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_camera(rng, image_size=(8, 16), feature_size=(4, 8)):
    h_i, w_i = image_size
    k = np.array(
        [
            [rng.uniform(4, 10), 0, w_i / 2 - 0.5],
            [0, rng.uniform(4, 10), h_i / 2 - 0.5],
            [0, 0, 1],
        ]
    )
    return CameraParams(
        k,
        random_rotation(rng),
        rng.uniform(-1, 1, 3),
        image_size=image_size,
        feature_size=feature_size,
    )


def lift_loops(features, depth, centers, cams, grid):
    """Brute-force scatter: visit every (camera, bin, v, u) point one by one."""
    n_c, n_ch, h_f, w_f = features.shape
    out = np.zeros((n_ch,) + grid.counts, dtype=np.float64)
    start = np.array(grid.start)
    vsize = np.array(grid.voxel_size)
    for i, cam in enumerate(cams):
        k_inv = np.linalg.inv(cam.intrinsics)
        for b in range(centers.size):
            d = centers[b]
            for v in range(h_f):
                for u in range(w_f):
                    u_img, v_img = cam.feature_to_image(
                        np.float64(u), np.float64(v)
                    )
                    p_cam = k_inv @ np.array([u_img * d, v_img * d, d])
                    p = cam.rotation @ p_cam + cam.translation
                    idx = np.floor((p - start) / vsize).astype(int)
                    if (idx >= 0).all() and (idx < np.array(grid.counts)).all():
                        out[:, idx[0], idx[1], idx[2]] += (
                            depth.probs[i, b, v, u] * features[i, :, v, u]
                        )
    return out


def lift(features, depth, centers, cams, grid):
    """One lift through a plan built for it alone."""
    return lift_splat(features, depth, LiftPlan.build(cams, centers, grid))


def lift_masked(features, depth, centers, cams, grid):
    """The lift before plans: per camera, unproject and look up every point,
    then for each channel gather through the in-grid mask and bincount."""
    n_c, n_ch = features.shape[:2]
    counts = grid.counts
    n_vox = counts[0] * counts[1] * counts[2]
    out = np.zeros((n_ch, n_vox), dtype=np.float64)
    for i in range(n_c):
        pts = frustum_points(cams[i], centers)
        idx, ok = voxel_index(grid, pts)
        flat = (
            idx[..., 0] * (counts[1] * counts[2])
            + idx[..., 1] * counts[2]
            + idx[..., 2]
        )[ok]
        prob = depth.probs[i].astype(np.float64)[ok]
        feat = features[i].astype(np.float64)
        for c in range(n_ch):
            weights = prob * np.broadcast_to(feat[c], ok.shape)[ok]
            out[c] += np.bincount(flat, weights=weights, minlength=n_vox)
    return out.reshape((n_ch,) + counts).astype(features.dtype, copy=False)


class TestGridSpec:
    def test_voxel_size(self):
        g = GridSpec((-40, -40, -1), (40, 40, 5.4), (200, 200, 16))
        np.testing.assert_allclose(g.voxel_size, (0.4, 0.4, 0.4))

    def test_downsample(self):
        g = GridSpec((0, 0, 0), (8, 8, 4), (8, 8, 4)).downsample(2)
        assert g.counts == (4, 4, 2)
        np.testing.assert_allclose(g.voxel_size, (2, 2, 2))

    def test_downsample_rejects_indivisible(self):
        with pytest.raises(ValueError, match="divisible"):
            GridSpec((0, 0, 0), (1, 1, 1), (5, 4, 4)).downsample(2)

    def test_centers(self):
        g = GridSpec((0, 0, 0), (4, 4, 2), (4, 4, 2))
        np.testing.assert_allclose(g.centers(0), [0.5, 1.5, 2.5, 3.5])

    def test_rejects_inverted_range(self):
        for end in ((1, -1, 1), (1, np.nan, 1)):
            with pytest.raises(ValueError, match="exceed"):
                GridSpec((0, 0, 0), end, (2, 2, 2))
        with pytest.raises(ValueError, match="exceed"):
            GridSpec((0, np.nan, 0), (1, 1, 1), (2, 2, 2))

    @pytest.mark.parametrize(
        "start, end",
        [((-8, -8, -1), (8, np.inf, 1)), ((-np.inf, -8, -1), (8, 8, 1))],
        ids=["end", "start"],
    )
    def test_rejects_infinite_range(self, start, end):
        """An infinite start or end is an error naming the grid, not an
        infinite voxel size that fails later in the scene's box draw."""
        with pytest.raises(ValueError, match=r"^grid start and end must be finite, got "):
            GridSpec(start, end, (8, 8, 2))

    @settings(max_examples=30, deadline=None)
    @given(
        start=st.tuples(*[st.floats(-50, 50)] * 3),
        size=st.tuples(*[st.floats(0.05, 4.0)] * 3),
        counts=st.tuples(*[st.integers(1, 12)] * 3),
        faces=st.lists(st.tuples(*[st.integers(-3, 15)] * 3), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_axis_index_matches_inline_oracle(self, start, size, counts, faces, seed):
        """Points on voxel faces, outside the grid and at negative
        coordinates index exactly as the inline expression that the
        per-axis lookup replaced at each call site, and ``flat_index``
        finds them inside exactly where that expression does."""
        end = tuple(s + c * v for s, c, v in zip(start, counts, size))
        grid = GridSpec(start, end, counts)
        vsize = np.array(grid.voxel_size)
        on_faces = np.array(grid.start) + np.array(faces, dtype=np.float64) * vsize
        rng = np.random.default_rng(seed)
        scattered = rng.uniform(
            np.array(grid.start) - 2 * vsize - 60, np.array(grid.end) + 2 * vsize, (2, 5, 3)
        )
        for pts in (on_faces, scattered):
            idx = np.floor((pts - np.array(grid.start)) / vsize).astype(np.int64)
            inside = ((idx >= 0) & (idx < np.array(grid.counts))).all(axis=-1)
            got_idx = np.stack([grid.axis_index(pts[..., a], a) for a in range(3)], axis=-1)
            _, got_inside = grid.flat_index(*np.moveaxis(pts, -1, 0))
            assert got_idx.dtype == np.int64 and got_idx.shape == pts.shape
            np.testing.assert_array_equal(got_idx, idx)
            np.testing.assert_array_equal(got_inside, inside)

    @settings(max_examples=30, deadline=None)
    @given(
        start=st.tuples(*[st.floats(-50, 50)] * 3),
        size=st.tuples(*[st.floats(0.05, 4.0)] * 3),
        counts=st.tuples(*[st.integers(1, 12)] * 3),
        faces=st.lists(st.tuples(*[st.integers(-3, 15)] * 3), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_flat_index_is_raveled_axis_index(self, start, size, counts, faces, seed):
        """On voxel faces, on the grid's end face and outside the grid, the
        flat lookup is inside where every axis index is in range and,
        there, the C-order raveled axis indices."""
        end = tuple(s + c * v for s, c, v in zip(start, counts, size))
        grid = GridSpec(start, end, counts)
        vsize = np.array(grid.voxel_size)
        on_faces = np.array(grid.start) + np.array(faces, dtype=np.float64) * vsize
        rng = np.random.default_rng(seed)
        on_end = np.where(rng.random(on_faces.shape) < 0.5, np.array(grid.end), on_faces)
        scattered = rng.uniform(
            np.array(grid.start) - 2 * vsize - 60, np.array(grid.end) + 2 * vsize, (2, 5, 3)
        )
        for pts in (on_faces, on_end, scattered):
            flat, inside = grid.flat_index(*np.moveaxis(pts, -1, 0))
            idx = np.stack([grid.axis_index(pts[..., a], a) for a in range(3)], axis=-1)
            want = ((idx >= 0) & (idx < np.array(grid.counts))).all(axis=-1)
            assert inside.tobytes() == want.tobytes()
            assert flat.dtype == np.int64 and flat.shape == pts.shape[:-1]
            np.testing.assert_array_equal(
                flat[inside], np.ravel_multi_index(tuple(idx[inside].T), grid.counts)
            )

    def test_axis_index_faces_go_to_higher_index(self):
        g = GridSpec((-2.0, -2.0, -1.0), (2.0, 2.0, 1.0), (8, 8, 4))  # 0.5 m voxels
        i = np.array([[-1, 0, 0], [0, 0, 0], [3, 7, 3], [8, 4, 2], [4, 4, 4]])
        pts = np.array(g.start) + 0.5 * i
        idx = np.stack([g.axis_index(pts[:, a], a) for a in range(3)], axis=-1)
        _, inside = g.flat_index(*pts.T)
        np.testing.assert_array_equal(idx, i)
        np.testing.assert_array_equal(inside, [False, True, True, False, False])


class TestCameraParams:
    def test_rejects_singular_intrinsics(self):
        k = np.zeros((3, 3))
        with pytest.raises(ValueError, match="singular"):
            CameraParams(k, np.eye(3), np.zeros(3), (4, 4), (2, 2))

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CameraParams(np.eye(3), 2 * np.eye(3), np.zeros(3), (4, 4), (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("part", ["intrinsics", "rotation", "translation"])
    def test_rejects_non_finite(self, part, bad):
        arrays = {"intrinsics": np.eye(3), "rotation": np.eye(3), "translation": np.zeros(3)}
        arrays[part] = arrays[part].copy()
        arrays[part].flat[0 if part == "translation" else 2] = bad
        with pytest.raises(ValueError, match="finite"):
            CameraParams(**arrays, image_size=(4, 4), feature_size=(2, 2))

    def test_pixels_are_homogeneous_feature_to_image(self):
        cam = random_camera(np.random.default_rng(1))
        pix = cam.pixels()
        assert pix.shape == (4, 8, 3) and pix.dtype == np.float64
        v, u = np.meshgrid(np.arange(4.0), np.arange(8.0), indexing="ij")
        u_img, v_img = cam.feature_to_image(u, v)
        np.testing.assert_array_equal(pix[..., 0], u_img)
        np.testing.assert_array_equal(pix[..., 1], v_img)
        np.testing.assert_array_equal(pix[..., 2], 1.0)

    def test_feature_image_round_trip(self):
        cam = random_camera(np.random.default_rng(0))
        u = np.array([0.0, 1.0, 3.0])
        v = np.array([0.0, 2.0, 3.0])
        ui, vi = cam.feature_to_image(u, v)
        ub, vb = image_to_feature(cam, ui, vi)
        np.testing.assert_allclose(ub, u, atol=1e-12)
        np.testing.assert_allclose(vb, v, atol=1e-12)

    def test_matching_extents_map_identically(self):
        cam = CameraParams(np.eye(3), np.eye(3), np.zeros(3), (4, 4), (4, 4))
        ui, vi = cam.feature_to_image(np.float64(2), np.float64(3))
        assert (ui, vi) == (2.0, 3.0)


class TestFrustumPoints:
    def test_principal_ray(self):
        # focal 1, principal point at pixel (3, 2), feature grid == image grid
        k = np.array([[1.0, 0, 3.0], [0, 1.0, 2.0], [0, 0, 1]])
        cam = CameraParams(k, np.eye(3), np.zeros(3), (8, 8), (8, 8))
        pts = frustum_points(cam, np.array([2.0, 7.0]))
        np.testing.assert_allclose(pts[0, 2, 3], [0, 0, 2.0], atol=1e-12)
        np.testing.assert_allclose(pts[1, 2, 3], [0, 0, 7.0], atol=1e-12)

    def test_shape(self):
        cam = random_camera(np.random.default_rng(1))
        pts = frustum_points(cam, np.linspace(1, 10, 5))
        assert pts.shape == (5, 4, 8, 3)

    def test_project_round_trip(self):
        rng = np.random.default_rng(2)
        cam = random_camera(rng)
        depths = np.array([1.5, 4.0, 9.0])
        pts = frustum_points(cam, depths)
        u, v, d = project_points(cam, pts)
        for b, depth in enumerate(depths):
            np.testing.assert_allclose(d[b], depth, atol=1e-5)
            np.testing.assert_allclose(u[b], np.broadcast_to(np.arange(8.0), (4, 8)), atol=1e-5)
            np.testing.assert_allclose(
                v[b], np.broadcast_to(np.arange(4.0)[:, None], (4, 8)), atol=1e-5
            )

    def test_matches_linear_solve_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            cam = random_camera(rng)
            d = rng.uniform(1, 10)
            pts = frustum_points(cam, np.array([d]))
            for v in range(4):
                for u in range(8):
                    u_img, v_img = cam.feature_to_image(np.float64(u), np.float64(v))
                    p_cam = np.linalg.solve(
                        cam.intrinsics, np.array([u_img * d, v_img * d, d])
                    )
                    want = cam.rotation @ p_cam + cam.translation
                    np.testing.assert_allclose(pts[0, v, u], want, atol=1e-9)


class TestDepthDistribution:
    def test_holds_only_probabilities(self):
        assert [f.name for f in dataclasses.fields(DepthDistribution)] == ["probs"]
        DepthDistribution(np.full((1, 4, 1, 1), 0.25))

    def test_bin_centers(self):
        np.testing.assert_allclose(bin_centers(1.0, 5.0, 4), [1.5, 2.5, 3.5, 4.5])

    @pytest.mark.parametrize(
        "probs, match",
        [
            (np.full((4, 1, 1), 0.25), "4D"),
            (np.array([-0.5, 1.5]).reshape(1, 2, 1, 1), "nonnegative"),
            (np.full((1, 4, 1, 1), 0.3), "sum to 1"),
            (np.array([0.5, 0.5, 0.5, 0.5, 0.0, 1.0]).reshape(1, 3, 1, 2), "sum to 1"),
            (np.array([np.nan, 1.0]).reshape(1, 2, 1, 1), "sum to 1"),
        ],
        ids=["rank-3", "negative", "unnormalized", "one-pixel-unnormalized", "nan"],
    )
    def test_construction_rejects(self, probs, match):
        with pytest.raises(ValueError, match=match):
            DepthDistribution(probs)

    @pytest.mark.parametrize(
        "d_min, d_max, n_bins, match",
        [(5.0, 1.0, 4, "d_min"), (0.0, 5.0, 4, "d_min"), (1.0, 1.0, 4, "d_min"),
         (1.0, 5.0, 0, "n_bins")],
        ids=["inverted", "zero-min", "empty-range", "no-bins"],
    )
    def test_bin_centers_rejects(self, d_min, d_max, n_bins, match):
        with pytest.raises(ValueError, match=match):
            bin_centers(d_min, d_max, n_bins)


class TestLiftSplat:
    def one_point_setup(self):
        # forward-looking camera at the origin: one feature pixel on the +x axis
        rot = np.array([[0.0, 0, 1], [-1, 0, 0], [0, -1, 0]])
        cam = CameraParams(np.eye(3), rot, np.zeros(3), (1, 1), (1, 1))
        grid = GridSpec((0, -4, -4), (8, 4, 4), (4, 4, 4))
        return cam, grid

    def test_single_point_lands_in_one_voxel(self):
        cam, grid = self.one_point_setup()
        probs = np.zeros((1, 4, 1, 1))
        probs[0, 2, 0, 0] = 1.0  # bin center 3.5
        features = np.full((1, 3, 1, 1), 2.5, dtype=np.float32)
        out = lift(features, DepthDistribution(probs), bin_centers(1.0, 5.0, 4), [cam], grid)
        assert out.shape == (3, 4, 4, 4)
        np.testing.assert_allclose(out[:, 1, 2, 2], 2.5)
        out[:, 1, 2, 2] = 0
        assert not out.any()

    def test_point_on_voxel_face_goes_to_higher_index(self):
        cam, _ = self.one_point_setup()
        grid = GridSpec((0, -0.5, -0.5), (4, 0.5, 0.5), (4, 1, 1))  # 1 m voxels
        centers = bin_centers(1.5, 2.5, 1)
        assert frustum_points(cam, centers)[0, 0, 0, 0] == 2.0
        out = lift(np.ones((1, 1, 1, 1)), DepthDistribution(np.ones((1, 1, 1, 1))), centers,
                   [cam], grid)
        np.testing.assert_array_equal(out[0, :, 0, 0], [0.0, 0.0, 1.0, 0.0])

    def test_out_of_range_points_dropped(self):
        cam, _ = self.one_point_setup()
        grid = GridSpec((100, 100, 100), (108, 108, 108), (4, 4, 4))
        depth = DepthDistribution(np.full((1, 4, 1, 1), 0.25))
        centers = bin_centers(1.0, 5.0, 4)
        out = lift(np.ones((1, 2, 1, 1), dtype=np.float32), depth, centers, [cam], grid)
        assert not out.any()

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        grid = GridSpec((-6, -6, -3), (6, 6, 3), (6, 6, 3))
        for _ in range(4):
            cams = [random_camera(rng), random_camera(rng)]
            features = rng.standard_normal((2, 3, 4, 8)).astype(np.float32)
            logits = rng.standard_normal((2, 8, 4, 8))
            probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            depth, centers = DepthDistribution(probs), bin_centers(0.5, 8.5, 8)
            got = lift(features, depth, centers, cams, grid)
            want = lift_loops(features, depth, centers, cams, grid)
            scale = max(np.abs(want).max(), 1e-9)
            assert np.abs(got - want).max() <= 1e-4 * scale

    def test_mass_conservation(self):
        rng = np.random.default_rng(6)
        grid = GridSpec((-6, -6, -3), (6, 6, 3), (6, 6, 3))
        cams = [random_camera(rng)]
        features = rng.uniform(0.5, 2.0, (1, 2, 4, 8)).astype(np.float64)
        probs = np.full((1, 8, 4, 8), 0.125)
        centers = bin_centers(0.5, 8.5, 8)
        out = lift(features, DepthDistribution(probs), centers, cams, grid)

        pts = frustum_points(cams[0], centers)
        idx = np.floor((pts - np.array(grid.start)) / np.array(grid.voxel_size))
        in_range = ((idx >= 0) & (idx < np.array(grid.counts))).all(axis=-1)
        for c in range(2):
            per_point = probs[0] * features[0, c][None, :, :]
            want = per_point[in_range].sum()
            assert out[c].sum() == pytest.approx(want, rel=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        yaws=st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=3),
        shift=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
        focal=st.floats(2.0, 20.0),
        feature_size=st.tuples(st.integers(1, 4), st.integers(1, 6)),
        n_bins=st.integers(1, 6),
        counts=st.tuples(*[st.integers(1, 10)] * 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mass_conserved_when_grid_holds_every_point(
        self, yaws, shift, focal, feature_size, n_bins, counts, dtype, seed
    ):
        """Each bin's probabilities sum to 1, so when the grid holds every
        frustum point a channel's lifted mass is its feature sum over all
        camera pixels."""
        rng = np.random.default_rng(seed)
        h, w = feature_size
        image_size = (2 * h, 2 * w)
        k = np.array([[focal, 0.0, w - 0.5], [0.0, focal, h - 0.5], [0.0, 0.0, 1.0]])
        base = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        cams = []
        for yaw in yaws:
            c, s = np.cos(yaw), np.sin(yaw)
            rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            t = np.array(shift) + rng.uniform(-1.0, 1.0, 3)
            cams.append(CameraParams(k, rz @ base, t, image_size, feature_size))
        d_min = rng.uniform(0.2, 2.0)
        d_max = d_min + rng.uniform(1.0, 12.0)
        pts = np.concatenate([
            frustum_points(cam, bin_centers(d_min, d_max, n_bins)).reshape(-1, 3)
            for cam in cams
        ])
        grid = GridSpec(pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0, counts)
        n_c = len(cams)
        features = rng.uniform(0.1, 1.0, (n_c, 3, h, w)).astype(dtype)
        probs = rng.dirichlet(np.ones(n_bins), (n_c, h, w)).transpose(0, 3, 1, 2)
        depth = DepthDistribution(probs.astype(dtype))
        plan = LiftPlan.build(cams, bin_centers(d_min, d_max, n_bins), grid)
        assert all(inside.all() for inside in plan.inside)
        got = lift_splat(features, depth, plan).astype(np.float64).sum(axis=(1, 2, 3))
        want = features.astype(np.float64).sum(axis=(0, 2, 3))
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=0)

    def test_adding_camera_never_reduces_mass(self):
        rng = np.random.default_rng(7)
        grid = GridSpec((-6, -6, -3), (6, 6, 3), (6, 6, 3))
        cam_a, cam_b = random_camera(rng), random_camera(rng)
        features = rng.uniform(0.1, 1.0, (2, 2, 4, 8)).astype(np.float64)
        probs = np.full((2, 8, 4, 8), 0.125)
        centers = bin_centers(0.5, 8.5, 8)
        one = lift(features[:1], DepthDistribution(probs[:1]), centers, [cam_a], grid)
        both = lift(features, DepthDistribution(probs), centers, [cam_a, cam_b], grid)
        assert both.sum() >= one.sum() - 1e-12

    def test_linear_in_features(self):
        rng = np.random.default_rng(8)
        grid = GridSpec((-6, -6, -3), (6, 6, 3), (6, 6, 3))
        cams = [random_camera(rng)]
        f1 = rng.standard_normal((1, 2, 4, 8))
        f2 = rng.standard_normal((1, 2, 4, 8))
        depth = DepthDistribution(np.full((1, 8, 4, 8), 0.125))
        centers = bin_centers(0.5, 8.5, 8)
        lhs = lift(2.0 * f1 + 3.0 * f2, depth, centers, cams, grid)
        rhs = 2.0 * lift(f1, depth, centers, cams, grid) + 3.0 * lift(
            f2, depth, centers, cams, grid
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_rejects_camera_count_mismatch(self):
        cam, grid = self.one_point_setup()
        depth = DepthDistribution(np.full((2, 4, 1, 1), 0.25))
        with pytest.raises(ValueError, match="camera count"):
            lift(np.ones((2, 2, 1, 1), dtype=np.float32), depth, bin_centers(1.0, 5.0, 4),
                 [cam], grid)


# The lift inputs of a desk run (default config), a wide run (perfbench's
# 200x200x16 grid) and acceptance check 9's run.
RUN_CONFIGS = {
    "desk": ({}, {}),
    "wide": ({}, dict(grid=GridSpec((-40, -40, -1), (40, 40, 2.2), (200, 200, 16)))),
    "check9": (
        dict(depth_bins=8, channels=8, refined_channels=8),
        dict(
            grid=GridSpec((-9.6, -9.6, -1), (9.6, 9.6, 1), (48, 48, 4)),
            image_size=(64, 176),
            feature_size=(8, 22),
            focal=88.0,
        ),
    ),
}


def run_lift_inputs(name, depth_provider):
    """(features, depth, bin centres, cams, half grid) of one frame of a run's lift:
    one-hot depth from random hits (30% missing), or the stub depth head."""
    fields, scene = RUN_CONFIGS[name]
    config = with_scene(dataclasses.replace(default_config(), **fields), **scene)
    spec = config.scene
    cams = spec.cameras()
    features = frame_features(config, spec.n_frames - 1)
    if depth_provider == "stub":
        stub = StubDepthWeights.seeded(config.seed, config.channels, config.depth_bins)
        probs = _stub_depth(features, stub)
    else:
        rng = np.random.default_rng(0)
        hits = rng.uniform(0.0, spec.d_max + 5.0, (len(cams),) + spec.feature_size)
        hits[rng.random(hits.shape) < 0.3] = -1.0
        probs = gt_depth_from_points(hits, config.d_min, spec.d_max, config.depth_bins)[0]
    centers = bin_centers(config.d_min, spec.d_max, config.depth_bins)
    return features, DepthDistribution(probs), centers, cams, spec.grid.downsample(2)


@st.composite
def lift_cases(draw):
    """Random rigs, grids and inputs. With ``on_faces`` every frustum point
    has integer (or half-integer) coordinates on a grid of 0.5, 1 or 2 m
    voxels at an integer start, so many points lie on voxel faces: unit
    intrinsics, one image pixel per feature pixel, whole-metre bin centres,
    signed-permutation rotations and integer translations. Otherwise the
    cameras are random. Either way the grid covers only part of the
    frustums, so some points fall outside it. About 30% of the bins hold
    zero probability; each pixel keeps at least one nonzero bin and sums to
    1 over its bins."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cams, n_ch = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    n_bins = draw(st.integers(1, 6))
    if draw(st.booleans()):
        cams = [
            CameraParams(
                np.eye(3),
                np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], (3, 1)),
                rng.integers(-3, 4, 3).astype(np.float64),
                (h, w),
                (h, w),
            )
            for _ in range(n_cams)
        ]
        d_min, d_max = 0.5, 0.5 + n_bins
        size = draw(st.sampled_from([0.5, 1.0, 2.0]))
        start = rng.integers(-8, 1, 3).astype(np.float64)
        counts = rng.integers(1, 12, 3)
        grid = GridSpec(start, start + counts * size, counts)
    else:
        cams = [random_camera(rng, (2 * h, 2 * w), (h, w)) for _ in range(n_cams)]
        d_min = rng.uniform(0.2, 2.0)
        d_max = d_min + rng.uniform(1.0, 12.0)
        lo = rng.uniform(-8.0, 0.0, 3)
        grid = GridSpec(lo, lo + rng.uniform(0.5, 12.0, 3), rng.integers(1, 9, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    probs = rng.dirichlet(np.ones(n_bins), (n_cams, h, w)).transpose(0, 3, 1, 2)
    zero = rng.random(probs.shape) < 0.3
    zero[:, 0] &= ~zero[:, 1:].all(axis=1)  # bin 0 stays where every other bin is zeroed
    probs[zero] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    frames = [
        (
            rng.standard_normal((n_cams, n_ch, h, w)).astype(dtype),
            DepthDistribution(rng.permutation(probs, axis=1)),
        )
        for _ in range(2)
    ]
    return frames, bin_centers(d_min, d_max, n_bins), cams, grid


class TestLiftPlan:
    @pytest.mark.parametrize("depth_provider", ["gt", "stub"])
    @pytest.mark.parametrize("name", list(RUN_CONFIGS))
    def test_matches_masked_lift_at_run_shapes(self, name, depth_provider):
        features, depth, centers, cams, grid = run_lift_inputs(name, depth_provider)
        got = lift(features, depth, centers, cams, grid)
        want = lift_masked(features, depth, centers, cams, grid)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=lift_cases())
    def test_one_plan_matches_masked_lift_every_frame(self, case):
        frames, centers, cams, grid = case
        plan = LiftPlan.build(cams, centers, grid)
        for features, depth in frames:
            got = lift_splat(features, depth, plan)
            want = lift_masked(features, depth, centers, cams, grid)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_cameras_sum_one_after_another(self):
        """Two coinciding cameras put many points into each voxel of a coarse
        grid, so the order of the sum shows in the low bits: each camera's
        points are summed alone and the camera sums added in turn."""
        rng = np.random.default_rng(14)
        cam = random_camera(rng)
        grid = GridSpec((-10, -10, -10), (10, 10, 10), (2, 2, 2))
        features = rng.standard_normal((2, 3, 4, 8))
        depth = DepthDistribution(rng.dirichlet(np.ones(8), (2, 4, 8)).transpose(0, 3, 1, 2))
        centers = bin_centers(0.5, 8.5, 8)
        got = lift(features, depth, centers, [cam, cam], grid)
        assert got.tobytes() == lift_masked(features, depth, centers, [cam, cam], grid).tobytes()

    def test_records_what_it_was_built_for(self):
        rng = np.random.default_rng(9)
        cams = [random_camera(rng), random_camera(rng)]
        grid = GridSpec((-6, -6, -3), (6, 6, 3), (6, 6, 3))
        centers = bin_centers(0.5, 8.5, 8)
        plan = LiftPlan.build(cams, centers, grid)
        assert plan.n_cameras == 2 and plan.feature_size == (4, 8)
        assert plan.grid == grid
        assert plan.centers.tobytes() == centers.tobytes()
        for cam, inside, pixel, voxel in zip(cams, plan.inside, plan.pixel, plan.voxel):
            idx, ok = voxel_index(grid, frustum_points(cam, centers))
            assert inside.tobytes() == ok.tobytes()
            assert pixel.shape == voxel.shape == (ok.sum(),)
            np.testing.assert_array_equal(np.unravel_index(voxel, grid.counts), idx[ok].T)

    @pytest.mark.parametrize(
        "features_shape, probs_shape, match",
        [
            ((2, 3, 4, 8), (1, 8, 4, 8), "camera count"),
            ((1, 3, 4, 8), (2, 8, 4, 8), "camera count"),
            ((1, 3, 4, 7), (1, 8, 4, 8), "extents"),
            ((1, 3, 4, 8), (1, 8, 3, 8), "extents"),
            ((1, 3, 4, 8), (1, 4, 4, 8), "bin centers"),
            ((3, 4, 8), (1, 8, 4, 8), "4D"),
        ],
        ids=["features-cams", "depth-cams", "features-extents", "depth-extents",
             "bin-count", "features-rank"],
    )
    def test_rejects_inputs_it_was_not_built_for(self, features_shape, probs_shape, match):
        cam = random_camera(np.random.default_rng(10))
        grid = GridSpec((-6, -6, -3), (6, 6, 3), (6, 6, 3))
        plan = LiftPlan.build([cam], bin_centers(0.5, 8.5, 8), grid)
        probs = np.full(probs_shape, 1.0 / probs_shape[1])
        with pytest.raises(ValueError, match=match):
            lift_splat(np.ones(features_shape), DepthDistribution(probs), plan)

    def test_rejects_mixed_feature_extents(self):
        rng = np.random.default_rng(11)
        cams = [random_camera(rng), random_camera(rng, feature_size=(2, 4))]
        grid = GridSpec((-6, -6, -3), (6, 6, 3), (6, 6, 3))
        with pytest.raises(ValueError, match="feature extent"):
            LiftPlan.build(cams, bin_centers(0.5, 8.5, 8), grid)

    def test_unprojects_each_camera_once(self, monkeypatch):
        calls = []
        original = occkit.view.frustum_points

        def counted(cam, centers):
            calls.append(cam)
            return original(cam, centers)

        monkeypatch.setattr(occkit.view, "frustum_points", counted)
        rng = np.random.default_rng(12)
        cams = [random_camera(rng), random_camera(rng)]
        grid = GridSpec((-6, -6, -3), (6, 6, 3), (6, 6, 3))
        plan = LiftPlan.build(cams, bin_centers(0.5, 8.5, 8), grid)
        depth = DepthDistribution(np.full((2, 8, 4, 8), 0.125))
        for _ in range(3):
            lift_splat(np.ones((2, 3, 4, 8)), depth, plan)
        assert calls == cams
