from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occkit.bev import EgoPose
from occkit.config import default_config
from occkit.evaluate import EMPTY_CLASS
from occkit.scene import (
    BoxObstacle,
    SceneBundle,
    SceneSpec,
    _rasterize,
    camera_ring,
    gen_scene,
    load_scene,
    save_scene,
)
from occkit.view import GridSpec

# exact binary grid: 0.5 m voxels, so aligned box faces voxelize losslessly
ALIGNED_GRID = GridSpec((-16.0, -16.0, -1.0), (16.0, 16.0, 3.0), (64, 64, 8))
FULL_HEIGHT_BOX = BoxObstacle(center=(6.0, 0.0, 1.0), size=(4.0, 4.0, 4.0), cls=3)


def one_box_spec(n_frames=1, speed=0.0, **kw):
    return SceneSpec(
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
        with pytest.raises(ValueError, match="camera"):
            camera_ring(0, (16, 16), (8, 8), focal=16.0)


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

    def test_explicit_box_outside_grid_rejected(self):
        bad = BoxObstacle((30.0, 0.0, 0.0), (2.0, 2.0, 1.0), cls=1)
        spec = SceneSpec(seed=0, grid=ALIGNED_GRID, n_frames=1, boxes=(bad,))
        with pytest.raises(ValueError, match="outside grid"):
            gen_scene(spec)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n_frames"):
            SceneSpec(seed=0, grid=ALIGNED_GRID, n_frames=0)
        with pytest.raises(ValueError, match="positive"):
            SceneSpec(seed=0, grid=ALIGNED_GRID, n_frames=1, march_step=0.0)


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
        assert loaded.grid.counts == (32, 32, 4)
        np.testing.assert_allclose(loaded.grid.start, spec.grid.start)
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
        (out / "manifest.txt").write_text(manifest.replace("n_frames = 1", "n_frames = 3"))
        with pytest.raises(ValueError, match="manifest"):
            load_scene(str(out))


def manifest_fstrings(s: SceneSpec) -> str:
    """The manifest writer before the key table, kept as the oracle."""
    lines = [
        f"seed = {s.seed}",
        f"grid_start = {s.grid.start[0]!r},{s.grid.start[1]!r},{s.grid.start[2]!r}",
        f"grid_end = {s.grid.end[0]!r},{s.grid.end[1]!r},{s.grid.end[2]!r}",
        f"grid_counts = {s.grid.counts[0]},{s.grid.counts[1]},{s.grid.counts[2]}",
        f"n_frames = {s.n_frames}",
        f"n_boxes = {s.n_boxes}",
        f"n_cameras = {s.n_cameras}",
        f"image_size = {s.image_size[0]},{s.image_size[1]}",
        f"feature_size = {s.feature_size[0]},{s.feature_size[1]}",
        f"focal = {s.focal!r}",
        f"d_max = {s.d_max!r}",
        f"march_step = {s.march_step!r}",
        f"speed = {s.speed!r}",
        f"yaw_rate = {s.yaw_rate!r}",
    ]
    return "\n".join(lines) + "\n"


DESK = default_config()
MANIFEST_SPECS = {
    "desk": DESK.scene_spec(),
    # perfbench's wide workload
    "wide": replace(
        DESK, grid=GridSpec((-40, -40, -1), (40, 40, 2.2), (200, 200, 16)),
        queue_len=3, depth_provider="stub", scene_frames=8, scene_boxes=24,
    ).scene_spec(),
    # acceptance check 9's gate config
    "check9": replace(
        DESK, grid=GridSpec((-9.6, -9.6, -1.0), (9.6, 9.6, 1.0), (48, 48, 4)),
        depth_bins=8, queue_len=3, channels=8, refined_channels=8, scene_frames=4,
        scene_boxes=4, scene_image=(64, 176), scene_features=(8, 22),
        scene_focal=88.0, scene_speed=0.5,
    ).scene_spec(),
    "odd-floats": replace(
        DESK.scene_spec(), focal=352.0000001, speed=0.1 + 0.2, yaw_rate=-0.05,
        march_step=1e-3,
    ),
}


@pytest.mark.parametrize("spec", MANIFEST_SPECS.values(), ids=MANIFEST_SPECS)
def test_manifest_matches_fstring_writer(tmp_path, spec):
    """The key-table writer's manifest is byte-equal to the f-string one."""
    empty = np.zeros((1, 1, 1, 1), dtype=np.uint8)
    bundle = SceneBundle(
        spec.grid, empty, empty, np.zeros((1, 1, 1, 1), np.float32), np.eye(4)[None], spec
    )
    save_scene(bundle, str(tmp_path))
    assert (tmp_path / "manifest.txt").read_bytes() == manifest_fstrings(spec).encode()
