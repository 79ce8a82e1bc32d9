import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occkit import scene
from occkit.bev import EgoPose
from occkit.config import default_config, parse_config
from occkit.evaluate import EMPTY_CLASS
from occkit.scene import (
    BoxObstacle,
    MarchPlan,
    SceneBundle,
    SceneSpec,
    _march_frame,
    _rasterize,
    camera_ring,
    gen_scene,
    load_scene,
    save_scene,
)
from occkit.view import CameraParams, GridSpec
from support import PlacedSceneSpec, voxel_index

# exact binary grid: 0.5 m voxels, so aligned box faces voxelize losslessly
ALIGNED_GRID = GridSpec((-16.0, -16.0, -1.0), (16.0, 16.0, 3.0), (64, 64, 8))
FULL_HEIGHT_BOX = BoxObstacle(center=(6.0, 0.0, 1.0), size=(4.0, 4.0, 4.0), cls=3)


def one_box_spec(n_frames=1, speed=0.0, **kw):
    return PlacedSceneSpec(
        seed=0,
        grid=ALIGNED_GRID,
        n_frames=n_frames,
        n_cameras=1,
        image_size=(15, 15),
        feature_size=(15, 15),
        focal=15.0,
        d_max=25.0,
        march_step=0.1,
        speed=speed,
        boxes=(FULL_HEIGHT_BOX,),
        **kw,
    )


def slab_chord(origin, direction, lo, hi):
    """Entry/exit ray parameters against an axis-aligned box, or None."""
    with np.errstate(divide="ignore"):
        t0 = (lo - origin) / direction
        t1 = (hi - origin) / direction
    t_in = np.minimum(t0, t1).max()
    t_out = np.maximum(t0, t1).min()
    if t_in <= t_out and t_out > 0:
        return max(t_in, 0.0), t_out
    return None


class TestBoxObstacle:
    def test_bounds(self):
        b = BoxObstacle((1.0, 2.0, 3.0), (2.0, 4.0, 6.0), cls=5)
        np.testing.assert_allclose(b.lo, [0, 0, 0])
        np.testing.assert_allclose(b.hi, [2, 4, 6])

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="size"):
            BoxObstacle((0, 0, 0), (1.0, 0.0, 1.0), cls=1)

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError, match="class"):
            BoxObstacle((0, 0, 0), (1, 1, 1), cls=EMPTY_CLASS)


class TestCameraRing:
    def test_forward_camera_geometry(self):
        cams = camera_ring(2, (16, 16), (8, 8), focal=16.0)
        assert len(cams) == 2
        # camera 0 looks along ego +x from just ahead of the origin
        np.testing.assert_allclose(cams[0].rotation @ [0, 0, 1], [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(cams[0].translation, [0.3, 0.0, 1.5])
        # camera 1 looks backward
        np.testing.assert_allclose(cams[1].rotation @ [0, 0, 1], [-1, 0, 0], atol=1e-12)

    def test_image_y_is_world_down(self):
        cam = camera_ring(1, (16, 16), (8, 8), focal=16.0)[0]
        np.testing.assert_allclose(cam.rotation @ [0, 1, 0], [0, 0, -1], atol=1e-12)

    def test_rejects_no_cameras(self):
        """A ring of no cameras is rejected where its spec is built."""
        with pytest.raises(ValueError, match=r"^\[scene\] cameras must be >= 1, got 0$"):
            SceneSpec(seed=0, grid=ALIGNED_GRID, n_frames=1, n_cameras=0)


@st.composite
def box_grids(draw):
    """Grids from too small for any box to roomy: one horizontal axis and
    the height span freely from 0.3 m, the other horizontal axis at least
    8 m to each side of the ego, so that most boxes that fit the grid also
    have room outside the 3 m bubble."""
    free = draw(st.integers(0, 1))
    start, end = [0.0] * 3, [0.0] * 3
    start[free] = draw(st.floats(-20, 5))
    end[free] = start[free] + draw(st.floats(0.3, 25))
    start[1 - free], end[1 - free] = -draw(st.floats(8, 20)), draw(st.floats(8, 20))
    start[2] = draw(st.floats(-2, 1))
    end[2] = start[2] + draw(st.floats(0.3, 4))
    return GridSpec(start, end, (4, 4, 2))


class TestSceneSpec:
    def test_poses_advance_linearly(self):
        spec = one_box_spec(n_frames=4, speed=0.5)
        poses = spec.poses()
        np.testing.assert_allclose(poses[0].matrix(), np.eye(4))
        np.testing.assert_allclose(poses[3].translation, [1.5, 0, 0])

    def test_random_boxes_fit_grid_and_avoid_ego(self):
        spec = SceneSpec(seed=3, grid=ALIGNED_GRID, n_frames=1, n_boxes=8)
        boxes = spec.resolve_boxes()
        assert len(boxes) == 8
        for b in boxes:
            assert (b.lo >= np.array(ALIGNED_GRID.start) - 1e-9).all()
            assert (b.hi <= np.array(ALIGNED_GRID.end) + 1e-9).all()
            assert np.hypot(b.center[0], b.center[1]) > 3.0
            assert 1 <= b.cls < EMPTY_CLASS

    def test_no_room_outside_the_ego_bubble_rejected(self):
        # every box centre lies within 2.64 m of the ego
        grid = GridSpec((-2.5, -2.0, -1.0), (2.5, 2.0, 1.0), (10, 8, 4))
        with pytest.raises(ValueError, match="no room"):
            SceneSpec(seed=0, grid=grid, n_frames=1, n_boxes=1).resolve_boxes()

    def test_sliver_outside_the_ego_bubble_ends_in_no_room(self):
        """Here a box's centre range clears the bubble only in its corners,
        and the draw gives up after CENTRE_TRIES centres in the bubble."""
        grid = GridSpec((-2.9, -2.9, -1.0), (2.9, 2.9, 1.0), (29, 29, 10))
        spec = SceneSpec(seed=252, grid=grid, n_frames=1, n_boxes=8)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="no room"):
            spec.resolve_boxes()
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=100, deadline=None)
    @given(grid=box_grids(), seed=st.integers(0, 2**16), n_boxes=st.integers(1, 8))
    def test_seeded_boxes_lie_in_the_grid(self, grid, seed, n_boxes):
        """Whenever seeded boxes are returned they lie in the grid within
        1e-9, and a grid too small for one is an error that names the grid,
        not numpy's."""
        spec = SceneSpec(seed=seed, grid=grid, n_frames=1, n_boxes=n_boxes)
        try:
            boxes = spec.resolve_boxes()
        except ValueError as e:
            assert str(e).startswith(f"grid {grid.start}..{grid.end} ")
            return
        assert len(boxes) == n_boxes
        for b in boxes:
            assert (b.lo >= np.array(grid.start) - 1e-9).all()
            assert (b.hi <= np.array(grid.end) + 1e-9).all()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match=r"^\[scene\] frames must be >= 1, got 0$"):
            SceneSpec(seed=0, grid=ALIGNED_GRID, n_frames=0)
        for bad, key in (
            (dict(march_step=0.0), r"\[scene\] march_step"),
            (dict(march_step=np.nan), r"\[scene\] march_step"),
            (dict(d_max=np.nan), r"\[depth\] max"),
        ):
            with pytest.raises(ValueError, match=f"^{key} must be > 0, got "):
                SceneSpec(seed=0, grid=ALIGNED_GRID, n_frames=1, **bad)


class TestEmptyScene:
    def test_no_boxes_means_no_hits(self):
        spec = SceneSpec(
            seed=1,
            grid=ALIGNED_GRID,
            n_frames=2,
            n_boxes=0,
            n_cameras=2,
            image_size=(8, 8),
            feature_size=(8, 8),
            focal=8.0,
            d_max=10.0,
        )
        bundle = gen_scene(spec)
        assert (bundle.occupancy == EMPTY_CLASS).all()
        assert (bundle.depth == -1.0).all()
        # rays still sweep out a visibility trail
        assert bundle.visible.any()
        ahead = ALIGNED_GRID  # voxel holding (2.0, 0, 1.5), dead ahead of cam 0
        ix = int((2.0 - ahead.start[0]) / 0.5)
        iy = int((0.0 - ahead.start[1]) / 0.5)
        iz = int((1.5 - ahead.start[2]) / 0.5)
        assert bundle.visible[0, ix, iy, iz] == 1


class TestSingleBoxScene:
    def test_central_ray_depth(self):
        bundle = gen_scene(one_box_spec())
        # camera at x=0.3 looking +x, box front face at x=4
        assert bundle.depth[0, 0, 7, 7] == pytest.approx(3.7, abs=1e-4)

    def test_depth_matches_slab_oracle(self):
        spec = one_box_spec()
        bundle = gen_scene(spec)
        cam = spec.cameras()[0]
        k_inv = np.linalg.inv(cam.intrinsics)
        lo, hi = FULL_HEIGHT_BOX.lo, FULL_HEIGHT_BOX.hi
        step = spec.march_step

        for v in range(15):
            for u in range(15):
                u_img, v_img = cam.feature_to_image(np.float64(u), np.float64(v))
                direction = cam.rotation @ (k_inv @ [u_img, v_img, 1.0])
                chord = slab_chord(cam.translation, direction, lo, hi)
                got = bundle.depth[0, 0, v, u]
                if chord is None:
                    assert got == -1.0
                    continue
                t_in, t_out = chord
                first_sample = (np.floor(t_in / step - 0.5) + 1 + 0.5) * step
                if first_sample < min(t_out, spec.d_max) - 1e-9:
                    # sampled inside the box: bisection recovers the entry face
                    assert got == pytest.approx(t_in, abs=1e-4)
                else:
                    # grazing chord thinner than one step: a hit is allowed
                    # only if it still resolves to the entry face
                    assert t_out - t_in < step
                    assert got == -1.0 or got == pytest.approx(t_in, abs=1e-4)

    def test_visibility_shadowing(self):
        bundle = gen_scene(one_box_spec())
        g = ALIGNED_GRID

        def vox(x, y, z):
            return (
                int((x - g.start[0]) / 0.5),
                int((y - g.start[1]) / 0.5),
                int((z - g.start[2]) / 0.5),
            )

        ix, iy, iz = vox(2.0, 0.0, 1.5)  # free space before the box
        assert bundle.visible[0, ix, iy, iz] == 1
        ix, iy, iz = vox(4.2, 0.0, 1.5)  # first occupied slab
        assert bundle.visible[0, ix, iy, iz] == 1
        assert bundle.occupancy[0, ix, iy, iz] == FULL_HEIGHT_BOX.cls
        ix, iy, iz = vox(10.0, 0.0, 1.5)  # hidden behind the box
        assert bundle.visible[0, ix, iy, iz] == 0

    def test_moving_ego_shifts_rasterization_one_voxel(self):
        # speed 0.5 == one voxel per frame, so frame 1 is an exact shift
        bundle = gen_scene(one_box_spec(n_frames=2, speed=0.5))
        occ0, occ1 = bundle.occupancy[0], bundle.occupancy[1]
        np.testing.assert_array_equal(occ1[:-1], occ0[1:])
        assert (occ1[-1] == EMPTY_CLASS).all()

    def test_moving_ego_shrinks_depth(self):
        bundle = gen_scene(one_box_spec(n_frames=3, speed=0.5))
        for t in range(3):
            assert bundle.depth[t, 0, 7, 7] == pytest.approx(3.7 - 0.5 * t, abs=1e-4)

    def test_rasterization_labels(self):
        bundle = gen_scene(one_box_spec())
        occ = bundle.occupancy[0]
        # [4,8) x [-2,2) x full height, in 0.5 m voxels
        sub = occ[40:48, 28:36, :]
        assert (sub == FULL_HEIGHT_BOX.cls).all()
        total_box = (occ == FULL_HEIGHT_BOX.cls).sum()
        assert total_box == sub.size


def rasterize_full_grid(boxes, grid, pose):
    """The rasterizer before box clipping: every box against every voxel
    centre of the grid."""
    pts = np.stack(
        np.meshgrid(grid.centers(0), grid.centers(1), grid.centers(2), indexing="ij"),
        axis=-1,
    )
    world = pts @ pose.rotation.T + pose.translation
    out = np.full(grid.counts, EMPTY_CLASS, dtype=np.uint8)
    for b in boxes:
        out[((world >= b.lo) & (world < b.hi)).all(axis=-1)] = b.cls
    return out


# 0.5 m voxels, centres at odd multiples of 0.25 m
SMALL_GRID = GridSpec((-4.0, -3.0, -1.0), (4.0, 3.0, 1.0), (16, 12, 4))

# centres reach past the grid, so boxes straddle it or miss it entirely
boxes_strategy = st.lists(
    st.builds(
        BoxObstacle,
        center=st.tuples(st.floats(-7, 7), st.floats(-6, 6), st.floats(-2.5, 2.5)),
        size=st.tuples(st.floats(0.05, 5), st.floats(0.05, 5), st.floats(0.05, 3)),
        cls=st.integers(1, EMPTY_CLASS - 1),
    ),
    min_size=1,
    max_size=6,
)


class TestRasterizeClipping:
    @settings(max_examples=40, deadline=None)
    @given(
        boxes=boxes_strategy,
        yaw=st.floats(-np.pi, np.pi),
        shift=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-0.5, 0.5)),
    )
    def test_matches_full_grid(self, boxes, yaw, shift):
        pose = EgoPose.from_yaw(yaw, shift)
        np.testing.assert_array_equal(
            _rasterize(boxes, SMALL_GRID, pose),
            rasterize_full_grid(boxes, SMALL_GRID, pose),
        )

    @pytest.mark.parametrize("yaw", [0.0, np.pi / 2, np.pi, 0.3])
    @pytest.mark.parametrize(
        "box",
        [
            BoxObstacle((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 3),  # faces on voxel centres
            BoxObstacle((3.75, -2.75, 0.75), (0.5, 0.5, 0.5), 4),  # one corner voxel
            BoxObstacle((4.5, 0.0, 0.0), (2.0, 2.0, 1.0), 5),  # straddles +x face
            BoxObstacle((0.0, 8.0, 0.0), (1.0, 1.0, 1.0), 6),  # off the grid
        ],
        ids=["faces-on-centres", "corner", "straddles", "outside"],
    )
    def test_edge_boxes_match_full_grid(self, box, yaw):
        for shift in [(0.0, 0.0, 0.0), (0.25, -0.25, 0.0), (1.0, 0.5, 0.25)]:
            pose = EgoPose.from_yaw(yaw, shift)
            np.testing.assert_array_equal(
                _rasterize([box], SMALL_GRID, pose),
                rasterize_full_grid([box], SMALL_GRID, pose),
            )

    def test_transforms_full_height_columns(self):
        """``_rasterize`` gives the verdict of the full-height column
        transform, sliced in z after it, where a transform of only the
        region's z slice would round a centre differently.

        With OpenBLAS 0.3.31 only a one-voxel z slice rounds differently:
        numpy computes its (1, 3) @ (3, 3) products on the vector path. A box's
        region is one voxel tall only when its ego z range lies past the
        grid, and it then holds a centre only when rounding at the pose's
        z translation is coarser than half a voxel. At 2^52 m up it is 1 m,
        so a box whose ego bottom is the grid's top face (ego z 1.0) holds
        the top layer, whose centres (ego z 0.75) land on its bottom face.
        """
        tz = 2.0**52
        for yaw in (0.05, 0.3, -0.7):
            pose = EgoPose.from_yaw(yaw, (0.3, -0.2, tz))
            start = BoxObstacle((0.0, 0.0, tz + 33.0), (4.0, 4.0, 64.0), 5)
            lo, hi = _box_region(start, SMALL_GRID, pose)
            centres = _region_world(SMALL_GRID, pose, lo, hi, z_first=False)
            for (i, j), axis in product(np.ndindex(*centres.shape[:2]), (0, 1)):
                # the box's low face on this axis is exactly the full-height value
                v = centres[i, j, 0, axis]
                center, size = list(start.center), list(start.size)
                center[axis], size[axis] = v + 1.0, 2.0
                box = BoxObstacle(tuple(center), tuple(size), 5)
                if box.lo[axis] != v:
                    continue
                voxel = (lo[0] + i, lo[1] + j, lo[2])
                got = self._verdicts_if_forms_disagree(box, pose, voxel)
                if got is None:
                    continue
                region, want = got
                out = _rasterize([box], SMALL_GRID, pose)
                assert out[voxel] == box.cls
                np.testing.assert_array_equal(out[region] == box.cls, want)
                np.testing.assert_array_equal(
                    out, rasterize_full_grid([box], SMALL_GRID, pose)
                )
                return
        pytest.skip("this BLAS rounds full-height and z-clipped transforms alike")

    @staticmethod
    def _verdicts_if_forms_disagree(box, pose, voxel):
        """``box``'s region slices and the full-height form's inside
        verdicts over it, when the region holds ``voxel`` and the
        full-height form puts it inside the box while the z-clipped one
        does not; otherwise None."""
        lo, hi = _box_region(box, SMALL_GRID, pose)
        if not all(l <= v < h for l, v, h in zip(lo, voxel, hi)):
            return None
        full, clipped = (
            ((w >= box.lo) & (w < box.hi)).all(axis=-1)
            for w in (_region_world(SMALL_GRID, pose, lo, hi, z_first)
                      for z_first in (False, True))
        )
        at = tuple(v - l for v, l in zip(voxel, lo))
        if not full[at] or clipped[at]:
            return None
        return tuple(slice(l, h) for l, h in zip(lo, hi)), full


def _box_region(box, grid, pose):
    """The voxel range ``_rasterize`` tests for ``box``: its ego-frame
    bounding box, widened by one voxel per side and clipped to the grid."""
    to_ego = pose.inverse()
    corners = np.array(list(product(*zip(box.lo, box.hi))))
    ego = corners @ to_ego.rotation.T + to_ego.translation
    (lo, hi), _ = voxel_index(grid, np.stack([ego.min(axis=0), ego.max(axis=0)]))
    counts = np.array(grid.counts)
    return np.clip(lo - 1, 0, counts), np.clip(hi + 2, 0, counts)


def _region_world(grid, pose, lo, hi, z_first):
    """World centres of the voxels in [lo, hi): full-height centre columns
    transformed and then sliced in z, or (``z_first``) sliced and then
    transformed."""
    cx, cy, cz = (grid.centers(a) for a in range(3))
    z = cz[lo[2]:hi[2]] if z_first else cz
    cols = np.stack(
        np.meshgrid(cx[lo[0]:hi[0]], cy[lo[1]:hi[1]], z, indexing="ij"), axis=-1
    )
    world = cols @ pose.rotation.T + pose.translation
    return world if z_first else world[:, :, lo[2]:hi[2]]


class TestDeterminism:
    def test_same_spec_bit_identical(self):
        spec = SceneSpec(
            seed=11,
            grid=GridSpec((-8, -8, -1), (8, 8, 1), (32, 32, 4)),
            n_frames=2,
            n_boxes=4,
            n_cameras=2,
            image_size=(8, 8),
            feature_size=(8, 8),
            focal=8.0,
            d_max=12.0,
        )
        a = gen_scene(spec)
        b = gen_scene(spec)
        np.testing.assert_array_equal(a.occupancy, b.occupancy)
        np.testing.assert_array_equal(a.visible, b.visible)
        np.testing.assert_array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(a.poses, b.poses)

    def test_seed_changes_boxes(self):
        base = dict(
            grid=GridSpec((-8, -8, -1), (8, 8, 1), (32, 32, 4)),
            n_frames=1,
            n_boxes=4,
        )
        a = SceneSpec(seed=1, **base).resolve_boxes()
        b = SceneSpec(seed=2, **base).resolve_boxes()
        assert any(x.center != y.center for x, y in zip(a, b))


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        spec = SceneSpec(
            seed=5,
            grid=GridSpec((-8, -8, -1), (8, 8, 1), (32, 32, 4)),
            n_frames=2,
            n_boxes=3,
            n_cameras=2,
            image_size=(8, 8),
            feature_size=(4, 4),
            focal=8.0,
            d_max=12.0,
            speed=0.25,
        )
        bundle = gen_scene(spec)
        save_scene(bundle, str(tmp_path / "scene"))
        loaded = load_scene(str(tmp_path / "scene"))
        np.testing.assert_array_equal(loaded.occupancy, bundle.occupancy)
        np.testing.assert_array_equal(loaded.visible, bundle.visible)
        np.testing.assert_array_equal(loaded.depth, bundle.depth)
        np.testing.assert_array_equal(loaded.poses, bundle.poses)
        assert loaded.spec.seed == 5
        assert loaded.spec.feature_size == (4, 4)
        assert loaded.spec.grid.counts == (32, 32, 4)
        np.testing.assert_allclose(loaded.spec.grid.start, spec.grid.start)
        assert loaded.spec.speed == 0.25

    def test_load_rejects_tampered_shapes(self, tmp_path):
        spec = SceneSpec(
            seed=5,
            grid=GridSpec((-8, -8, -1), (8, 8, 1), (32, 32, 4)),
            n_frames=1,
            n_boxes=1,
            n_cameras=1,
            image_size=(8, 8),
            feature_size=(4, 4),
            focal=8.0,
            d_max=12.0,
        )
        bundle = gen_scene(spec)
        out = tmp_path / "scene"
        save_scene(bundle, str(out))
        manifest = (out / "manifest.txt").read_text()
        (out / "manifest.txt").write_text(manifest.replace("frames = 1", "frames = 3"))
        with pytest.raises(ValueError, match="manifest"):
            load_scene(str(out))


DESK = default_config().scene
MANIFEST_SPECS = {
    "desk": DESK,
    # perfbench's wide workload
    "wide": replace(
        DESK, grid=GridSpec((-40, -40, -1), (40, 40, 2.2), (200, 200, 16)),
        n_frames=8, n_boxes=24,
    ),
    # acceptance check 9's gate config
    "check9": replace(
        DESK, grid=GridSpec((-9.6, -9.6, -1.0), (9.6, 9.6, 1.0), (48, 48, 4)),
        n_frames=4, n_boxes=4, image_size=(64, 176), feature_size=(8, 22),
        focal=88.0, speed=0.5,
    ),
    "odd-floats": replace(
        DESK, focal=352.0000001, speed=0.1 + 0.2, yaw_rate=-0.05, march_step=1e-3,
    ),
}


@pytest.mark.parametrize("spec", MANIFEST_SPECS.values(), ids=MANIFEST_SPECS)
def test_manifest_round_trips_and_is_a_config(tmp_path, spec):
    """``load_scene`` gives back the saved spec exactly, and the manifest
    read as a config gives the same spec."""
    t, (nx, ny, nz), (h_f, w_f) = spec.n_frames, spec.grid.counts, spec.feature_size
    grids = np.zeros((t, nx, ny, nz), dtype=np.uint8)
    depth = np.full((t, spec.n_cameras, h_f, w_f), -1.0, dtype=np.float32)
    save_scene(SceneBundle(grids, grids, depth, np.tile(np.eye(4), (t, 1, 1)), spec),
               str(tmp_path))
    assert load_scene(str(tmp_path)).spec == spec
    assert parse_config(str(tmp_path / "manifest.txt")).scene == spec


def march_stepwise(occ, grid, cams, d_max, step):
    """The renderer before ray clipping, kept as the oracle for
    ``_march_frame``: every ray that has not hit yet advances one step at a
    time until the last one reaches d_max."""
    origins = []
    dirs = []
    for cam in cams:
        pix = cam.pixels().reshape(-1, 3)
        ray = pix @ np.linalg.inv(cam.intrinsics).T
        dirs.append(ray @ cam.rotation.T)
        origins.append(np.broadcast_to(cam.translation, ray.shape))
    origins = np.concatenate(origins)
    dirs = np.concatenate(dirs)

    def lookup(points):
        idx, inside = voxel_index(grid, points)
        ijk = tuple(idx[inside].T)
        hit = np.zeros(len(points), dtype=bool)
        hit[inside] = occ[ijk] != EMPTY_CLASS
        return ijk, hit

    n_rays = origins.shape[0]
    hit_d = np.full(n_rays, -1.0)
    active = np.ones(n_rays, dtype=bool)
    visible = np.zeros(grid.counts, dtype=bool)
    for k in range(int(np.ceil(d_max / step))):
        if not active.any():
            break
        d = (k + 0.5) * step
        if d > d_max:
            break
        ijk, occ_hit = lookup(origins[active] + d * dirs[active])
        visible[ijk] = True
        if occ_hit.any():
            ray_ids = np.nonzero(active)[0][occ_hit]
            hit_d[ray_ids] = d
            active[ray_ids] = False

    hit_ids = np.nonzero(hit_d > 0)[0]
    if hit_ids.size:
        lo = np.maximum(hit_d[hit_ids] - step, 1e-9)
        hi = hit_d[hit_ids].copy()
        o = origins[hit_ids]
        r = dirs[hit_ids]
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            occ_mid = lookup(o + mid[:, None] * r)[1]
            hi = np.where(occ_mid, mid, hi)
            lo = np.where(occ_mid, lo, mid)
        hit_d[hit_ids] = 0.5 * (lo + hi)
    h_f, w_f = cams[0].feature_size
    return hit_d.reshape(len(cams), h_f, w_f).astype(np.float32), visible


def assert_march_matches_stepwise(occ, grid, cams, d_max, step):
    depth, visible = _march_frame(occ, MarchPlan.build(grid, cams, d_max, step))
    want_depth, want_visible = march_stepwise(occ, grid, cams, d_max, step)
    assert depth.tobytes() == want_depth.tobytes()
    assert visible.dtype == bool and visible.shape == grid.counts
    assert visible.tobytes() == want_visible.tobytes()


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("name", ["desk", "wide", "check9"])
def test_march_matches_stepwise_on_workload_scenes(name, seed):
    """The clipped march renders the desk, wide and check-9 scenes' first and
    last frames byte for byte as the step loop does."""
    spec = replace(MANIFEST_SPECS[name], seed=seed)
    boxes = spec.resolve_boxes()
    poses = spec.poses()
    for t in (0, spec.n_frames - 1):
        occ = _rasterize(boxes, spec.grid, poses[t])
        assert_march_matches_stepwise(
            occ, spec.grid, spec.cameras(), spec.d_max, spec.march_step
        )


# camera-to-ego rotations whose entries are exactly 0 and 1, so a ray through
# a centre pixel has direction components of exactly 0
EXACT_ROTATIONS = {
    "forward": np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
    "left": np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]),
    "down": np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
}


def tilted(yaw, pitch):
    cy, sy, cp, sp = np.cos(yaw), np.sin(yaw), np.cos(pitch), np.sin(pitch)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    return rz @ ry @ EXACT_ROTATIONS["forward"]


def rig_camera(rotation, origin, extent):
    """A pinhole camera whose image is its feature map; with an odd extent
    and a power-of-two focal length its centre pixel's ray is exact."""
    k = np.array([[4.0, 0.0, extent / 2 - 0.5], [0.0, 4.0, extent / 2 - 0.5], [0, 0, 1]])
    return CameraParams(k, rotation, origin, (extent, extent), (extent, extent))


def face_boxes(grid, spans, cls=3):
    """Occupancy of boxes given as voxel index spans, so a span that starts at
    0 or ends at the count puts the box's face on the grid's."""
    occ = np.full(grid.counts, EMPTY_CLASS, dtype=np.uint8)
    for span in spans:
        occ[tuple(slice(lo, hi) for lo, hi in span)] = cls
    return occ


def spans_strategy(counts):
    def span(n):
        return st.integers(0, n - 1).flatmap(
            lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, n))
        )

    return st.lists(st.tuples(*[span(n) for n in counts]), min_size=1, max_size=4)


@st.composite
def march_cases(draw):
    vsize = draw(st.tuples(*[st.sampled_from([0.25, 0.4, 0.5, 0.7])] * 3))
    counts = draw(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4)))
    start = draw(st.tuples(st.floats(-3, 0), st.floats(-3, 0), st.floats(-1.5, 0)))
    grid = GridSpec(start, [s + v * c for s, v, c in zip(start, vsize, counts)], counts)
    occ = face_boxes(grid, draw(spans_strategy(counts)))
    extent = draw(st.sampled_from([3, 4, 5]))
    cams = []
    for _ in range(draw(st.integers(1, 2))):
        # reaches well past the grid, so origins sit outside it too
        origin = draw(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-2, 3)))
        # tilted cameras look roughly at the grid's middle, so that most hit
        to_mid = (np.array(grid.start) + np.array(grid.end)) / 2 - origin
        yaw = np.arctan2(to_mid[1], to_mid[0]) + draw(st.floats(-0.5, 0.5))
        rotation = draw(
            st.one_of(
                st.sampled_from(list(EXACT_ROTATIONS.values())),
                st.floats(-0.8, 0.8).map(lambda pitch, yaw=yaw: tilted(yaw, pitch)),
            )
        )
        cams.append(rig_camera(rotation, origin, extent))
    # steps longer than the widest voxel, and d_max off the step grid
    step = draw(st.floats(0.05, 1.5))
    d_max = draw(st.floats(0.3, 12.0))
    return occ, grid, cams, d_max, step


# one rig with every edge case at once: exact zero direction components, an
# origin outside the grid, rays that miss it, d_max = 7.3 off the 0.7 step
# grid, a step longer than the 0.5 m voxels, and boxes on the grid's faces
EDGE_GRID = GridSpec((0.0, -1.0, 0.0), (3.0, 1.0, 1.0), (6, 4, 2))
EDGE_CASE = (
    face_boxes(EDGE_GRID, [((5, 6), (0, 4), (0, 2)), ((2, 3), (0, 1), (1, 2))]),
    EDGE_GRID,
    [
        rig_camera(EXACT_ROTATIONS["forward"], (-1.0, 0.0, 0.5), 5),
        rig_camera(EXACT_ROTATIONS["down"], (1.5, 0.0, 2.0), 5),
    ],
    7.3,
    0.7,
)


class TestClippedMarch:
    def test_edge_rig_matches_stepwise(self):
        occ, grid, cams, d_max, step = EDGE_CASE
        dirs = np.concatenate(
            [cam.pixels().reshape(-1, 3) @ np.linalg.inv(cam.intrinsics).T @ cam.rotation.T
             for cam in cams]
        )
        assert (dirs == 0).any() and step > max(grid.voxel_size)
        _, inside = voxel_index(grid, np.array([cam.translation for cam in cams]))
        assert not inside.any()
        depth, visible = _march_frame(occ, MarchPlan.build(grid, cams, d_max, step))
        assert (depth == -1).any() and (depth > 0).any() and visible.any()
        assert_march_matches_stepwise(occ, grid, cams, d_max, step)

    @settings(max_examples=60, deadline=None)
    @given(case=march_cases())
    def test_matches_stepwise(self, case):
        assert_march_matches_stepwise(*case)

    @settings(max_examples=40, deadline=None)
    @given(
        step=st.floats(0.05, 1.5),
        k=st.integers(0, 20),
        o=st.floats(-3, 0),
        n=st.integers(1, 5),
        vsize=st.floats(0.1, 0.7),
        entry=st.booleans(),
        wall=st.booleans(),
    )
    @example(step=0.6, k=0, o=-1.0, n=4, vsize=0.3, entry=True, wall=True)
    def test_sample_on_a_grid_face(self, step, k, o, n, vsize, entry, wall):
        """The centre ray runs along +x and puts sample k exactly on the
        grid's entry or exit face. The slab depth and the sample's voxel
        index round independently there (at the example, the entry depth is
        0.5000000000000001 steps and sample 0 lies in voxel 0), and the step
        of margin keeps such a sample."""
        face = o + (k + 0.5) * step
        lo, hi = (face, face + n * vsize) if entry else (face - n * vsize, face)
        grid = GridSpec((lo, -1.0, -1.0), (hi, 1.0, 1.0), (n, 1, 1))
        occ = np.full(grid.counts, EMPTY_CLASS, dtype=np.uint8)
        if wall:
            occ[-1] = 3
        cam = rig_camera(EXACT_ROTATIONS["forward"], (o, 0.0, 0.0), 3)
        assert_march_matches_stepwise(occ, grid, [cam], 12.0, step)

    def test_direction_component_within_rounding_of_0(self):
        """A camera pitched by 1.4e-45 rad, with its origin on the grid's
        floor face: its rays' z components are that small, so no step moves
        a sample's z coordinate off the face. The slab depths on z are
        +-inf, and only a box widened by a step's travel keeps the samples
        that the step loop finds in the grid."""
        grid = GridSpec((0.0, -1.0, -1.0), (0.75, -0.75, -0.75), (3, 1, 1))
        occ = face_boxes(grid, [((0, 1), (0, 1), (0, 1))])
        origin = np.array([0.0, 0.0, -1.0])
        rotation = tilted(np.arctan2(-0.875, 0.375), 1.401298464324817e-45)
        assert_march_matches_stepwise(
            occ, grid, [rig_camera(rotation, origin, 3)], 2.0, 0.75
        )

    def test_marks_nothing_past_a_hit(self):
        """A full-height wall hides every voxel behind it."""
        bundle = gen_scene(one_box_spec())
        assert not bundle.visible[0, 48:].any()


scene_specs = st.builds(
    SceneSpec,
    seed=st.integers(0, 2**16),
    grid=st.sampled_from(
        [ALIGNED_GRID, GridSpec((-8, -8, -1), (8, 8, 1), (32, 32, 4)),
         GridSpec((-6.4, -4.8, -1.0), (6.4, 4.8, 2.2), (32, 24, 8))]
    ),
    n_frames=st.integers(1, 3),
    n_boxes=st.integers(0, 4),
    n_cameras=st.integers(1, 3),
    image_size=st.just((8, 12)),
    feature_size=st.sampled_from([(2, 3), (4, 6), (8, 12)]),
    focal=st.just(8.0),
    d_max=st.floats(0.5, 12.0),
    speed=st.floats(0.0, 0.5),
)


@settings(max_examples=15, deadline=None)
@given(spec=scene_specs)
def test_gen_scene_byte_deterministic(spec):
    """Equal specs give byte-equal bundles."""
    a, b = gen_scene(spec), gen_scene(spec)
    for name in ("occupancy", "visible", "depth", "poses"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@st.composite
def yawed_specs(draw):
    """Small scenes whose ego turns and moves every frame, on grids down to
    one voxel along any axis, with boxes placed anywhere in the grid."""
    vsize = draw(st.tuples(*[st.sampled_from([0.25, 0.4, 0.5, 0.7])] * 3))
    counts = draw(st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4)))
    # the grid's z span holds the rig's 1.5 m camera height, so most rays
    # cross it
    z_start = 1.5 - draw(st.floats(0.0, 1.0)) * vsize[2] * counts[2]
    start = draw(st.tuples(st.floats(-3, 0), st.floats(-3, 0), st.just(z_start)))
    end = [s + v * c for s, v, c in zip(start, vsize, counts)]
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        size = [draw(st.floats(0.05, 1.0)) * (e - s) for s, e in zip(start, end)]
        lo = [s + draw(st.floats(0.0, 1.0)) * (e - s - w) for s, e, w in zip(start, end, size)]
        center = [l + w / 2 for l, w in zip(lo, size)]
        boxes.append(BoxObstacle(center, size, draw(st.integers(1, EMPTY_CLASS - 1))))
    return PlacedSceneSpec(
        seed=0,
        grid=GridSpec(start, end, counts),
        n_frames=draw(st.integers(2, 4)),
        n_cameras=draw(st.integers(1, 3)),
        image_size=(8, 12),
        feature_size=draw(st.sampled_from([(2, 3), (4, 6)])),
        focal=8.0,
        d_max=draw(st.floats(0.5, 12.0)),
        march_step=draw(st.floats(0.05, 1.0)),
        speed=draw(st.floats(0.05, 0.8)),
        yaw_rate=draw(st.floats(0.01, 0.6)) * draw(st.sampled_from([-1, 1])),
        boxes=tuple(boxes),
    )


@settings(max_examples=30, deadline=None, database=None)
@given(spec=yawed_specs())
def check_yawed_scene(spec):
    """``gen_scene`` renders a yawed, moving scene byte for byte as a loop of
    the full-grid rasterizer and the step loop does, frame by frame."""
    bundle = gen_scene(spec)
    boxes, cams = spec.resolve_boxes(), spec.cameras()
    for t, pose in enumerate(spec.poses()):
        occ = rasterize_full_grid(boxes, spec.grid, pose)
        depth, visible = march_stepwise(occ, spec.grid, cams, spec.d_max, spec.march_step)
        assert bundle.occupancy[t].tobytes() == occ.tobytes()
        assert bundle.visible[t].tobytes() == visible.astype(np.uint8).tobytes()
        assert bundle.depth[t].tobytes() == depth.tobytes()


_YAWED_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import test_scene
test_scene.check_yawed_scene()
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_yawed_scenes_match_oracle(threads):
    """``check_yawed_scene`` holds with one and with two BLAS threads, each
    set before numpy loads."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(
        p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, "-c", _YAWED_CHILD, str(here)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr


class TestWorkDoneOnce:
    def test_rasterize_allocates_only_the_box_columns(self):
        """One small box on a 1000x1000x8 grid: the rasterizer allocates its
        uint8 output and the box's columns, far below the 192 MB that a
        float64 transform of the whole grid's centres would take."""
        grid = GridSpec((-250.0, -250.0, -1.0), (250.0, 250.0, 3.0), (1000, 1000, 8))
        box = BoxObstacle((10.0, -5.0, 0.5), (2.0, 1.5, 1.0), 3)
        pose = EgoPose.from_yaw(0.3, (1.0, 2.0, 0.0))
        whole_grid = np.prod(grid.counts) * 3 * 8
        tracemalloc.start()
        try:
            occ = _rasterize([box], grid, pose)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (occ == box.cls).any()
        assert peak < occ.nbytes + whole_grid // 100

    def test_one_plan_per_scene(self, monkeypatch):
        """``gen_scene`` builds one march plan and hands it to each of its
        ``n_frames`` march calls, none of which writes into it."""
        plans, marched = [], []
        build, march = MarchPlan.build, scene._march_frame

        def spy_build(cls, *args):
            plans.append(build(*args))
            return plans[-1]

        def spy_march(occ, plan):
            marched.append(plan)
            return march(occ, plan)

        monkeypatch.setattr(MarchPlan, "build", classmethod(spy_build))
        monkeypatch.setattr(scene, "_march_frame", spy_march)
        spec = replace(one_box_spec(n_frames=3, speed=0.5), yaw_rate=0.1)
        bundle = gen_scene(spec)
        assert len(plans) == 1
        assert len(marched) == spec.n_frames
        assert all(p is plans[0] for p in marched)
        assert (bundle.depth > 0).any()
        fresh = MarchPlan.build(spec.grid, spec.cameras(), spec.d_max, spec.march_step)
        for name in ("origins", "dirs", "ray_of", "d", "flat", "inside", "last"):
            assert getattr(plans[0], name).tobytes() == getattr(fresh, name).tobytes()
