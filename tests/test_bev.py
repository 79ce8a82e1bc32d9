import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from occkit.bev import (
    EgoPose,
    FusionWeights,
    SemanticEncoderWeights,
    _planar_relative,
    collapse_height,
    semantic_encoder_2d,
    temporal_fuse,
    warp_bev,
)
from occkit.config import default_config
from occkit.tensor import Conv, conv
from occkit.view import GridSpec
from support import cast, identity_pose

EXACT_90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def bev_grid(n=32, half=16.0):
    return GridSpec((-half, -half, 0.0), (half, half, 1.0), (n, n, 1))


def quarter_turn(k):
    """Exact rotation by k * 90 degrees about z."""
    c, s = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[k % 4]
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def relative_by_compose(pose_hist, pose_now):
    """The relative pose before ``_planar_relative`` multiplied rotations
    directly: invert the history pose, compose it with the current pose as
    an ``EgoPose`` and read (c, s, tx, ty) off its 4x4 matrix."""
    inv = pose_hist.inverse()
    m = EgoPose(
        inv.rotation @ pose_now.rotation,
        inv.rotation @ pose_now.translation + inv.translation,
    ).matrix()
    c, s = m[0, 0], m[1, 0]
    norm = np.hypot(c, s)
    return c / norm, s / norm, m[0, 3], m[1, 3]


def warp_four_gathers(b_hist, pose_hist, pose_now, grid):
    """The warp before flat indices: four clipped 2D gathers, each masked
    off the map, weighted and summed in one expression."""
    nx, ny = grid.counts[0], grid.counts[1]
    c, s, tx, ty = _planar_relative(pose_hist, pose_now)
    vx, vy = grid.voxel_size[0], grid.voxel_size[1]
    xs, ys = grid.start[0], grid.start[1]
    a11 = c
    a12 = -s * (vy / vx)
    a21 = s * (vx / vy)
    a22 = c
    b_i = 0.5 * (a11 + a12) - 0.5 + ((c - 1.0) * xs - s * ys + tx) / vx
    b_j = 0.5 * (a21 + a22) - 0.5 + (s * xs + (c - 1.0) * ys + ty) / vy
    ii, jj = np.meshgrid(
        np.arange(nx, dtype=np.float64), np.arange(ny, dtype=np.float64), indexing="ij"
    )
    u = a11 * ii + a12 * jj + b_i
    v = a21 * ii + a22 * jj + b_j
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    fu = u - u0
    fv = v - v0
    src = b_hist.astype(np.float64)

    def gather(iu, iv):
        inside = (iu >= 0) & (iu < nx) & (iv >= 0) & (iv < ny)
        return src[:, np.clip(iu, 0, nx - 1), np.clip(iv, 0, ny - 1)] * inside[None]

    out = (
        gather(u0, v0) * ((1.0 - fu) * (1.0 - fv))
        + gather(u0, v0 + 1) * ((1.0 - fu) * fv)
        + gather(u0 + 1, v0) * (fu * (1.0 - fv))
        + gather(u0 + 1, v0 + 1) * (fu * fv)
    )
    return out.astype(b_hist.dtype, copy=False)


class TestEgoPose:
    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EgoPose(np.eye(3), np.array([0.0, bad, 0.0]))
        rot = np.eye(3)
        rot[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            EgoPose(rot, np.zeros(3))
        m = np.eye(4)
        m[0, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            EgoPose.from_matrix(m)

    def test_from_yaw_matrix(self):
        p = EgoPose.from_yaw(0.3, (1.0, 2.0, 0.5))
        m = p.matrix()
        assert m[0, 0] == pytest.approx(np.cos(0.3))
        assert m[1, 0] == pytest.approx(np.sin(0.3))
        np.testing.assert_allclose(m[:3, 3], [1.0, 2.0, 0.5])
        np.testing.assert_allclose(m[3], [0, 0, 0, 1])

    def test_inverse_composes_to_identity(self):
        p = EgoPose.from_yaw(0.7, (3.0, -1.0, 0.2))
        np.testing.assert_allclose(p.inverse().matrix() @ p.matrix(), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(p.matrix() @ p.inverse().matrix(), np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("row", [(5.0, 5.0, 5.0, 5.0), (0.0, 0.0, 0.0, 2.0)])
    def test_from_matrix_rejects_last_row(self, row):
        m = EgoPose.from_yaw(0.3, (1.0, 2.0, 0.0)).matrix()
        m[3] = row
        with pytest.raises(ValueError, match=r"last row must be \(0, 0, 0, 1\), got "):
            EgoPose.from_matrix(m)

    def test_matrix_round_trip(self):
        p = EgoPose.from_yaw(-1.2, (0.5, 0.25, 0.0))
        q = EgoPose.from_matrix(p.matrix())
        np.testing.assert_allclose(q.rotation, p.rotation)
        np.testing.assert_allclose(q.translation, p.translation)

    def test_rejects_non_orthonormal(self):
        """An entry too large to square is rejected too, before ``r.T @ r``
        could overflow with a warning."""
        huge = np.eye(3)
        huge[0, 1] = -2.68e154
        for r in (np.eye(3) * 1.5, huge):
            with pytest.raises(ValueError, match="orthonormal"):
                EgoPose(r, np.zeros(3))

    @pytest.mark.parametrize(
        "rotation",
        [
            [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
        ],
        ids=["pitched", "mirrored"],
    )
    def test_rejects_rotation_not_about_z(self, rotation):
        """Orthonormal, finite rotations that the planar warp cannot follow:
        a pitch moves z, and a mirror about x has determinant -1."""
        with pytest.raises(ValueError, match="proper rotation about z"):
            EgoPose(np.array(rotation), np.zeros(3))
        m = np.eye(4)
        m[:3, :3] = rotation
        with pytest.raises(ValueError, match="proper rotation about z"):
            EgoPose.from_matrix(m)


class TestPlanarRelative:
    @settings(max_examples=60, deadline=None)
    @given(
        yaws=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
        quarter=st.tuples(st.none() | st.integers(0, 3), st.none() | st.integers(0, 3)),
        t_hist=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
        t_now=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
    )
    def test_matches_compose_bytes(self, yaws, quarter, t_hist, t_now):
        """Same bytes as the inverse-compose-matrix path, for any yaws
        (exact quarter turns included) and translations."""
        def pose(yaw, k, t):
            rot = EgoPose.from_yaw(yaw).rotation if k is None else quarter_turn(k)
            return EgoPose(rot, np.array(t))

        pose_hist = pose(yaws[0], quarter[0], t_hist)
        pose_now = pose(yaws[1], quarter[1], t_now)
        got = np.array(_planar_relative(pose_hist, pose_now))
        want = np.array(relative_by_compose(pose_hist, pose_now))
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestCollapseHeight:
    def test_constant_grid(self):
        v = np.full((2, 4, 4, 8), 3.25)
        np.testing.assert_array_equal(collapse_height(v), np.full((2, 4, 4), 3.25))

    def test_single_slice(self):
        v = np.zeros((1, 3, 3, 8))
        v[0, :, :, 5] = 2.0
        np.testing.assert_allclose(collapse_height(v), np.full((1, 3, 3), 0.25))

    def test_matches_axis_reduce(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((3, 5, 6, 4))
        np.testing.assert_array_equal(collapse_height(v), v.mean(axis=3))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="4D"):
            collapse_height(np.zeros((2, 2, 2)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), z=st.integers(1, 16), dtype=st.sampled_from([np.float32, np.float64]))
    def test_bytes_match_live_mean(self, data, z, dtype):
        """Byte for byte the installed numpy's ``mean(axis=3)``: signed zeros,
        and mixed-sign values far apart in magnitude whose sums round
        differently in another order."""
        width = 32 if dtype == np.float32 else 64
        values = st.one_of(
            st.sampled_from([0.0, -0.0, 1e30, -1e30, 3.0, -3.0]),
            st.floats(-1e7, 1e7, width=width),
        )
        shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)),
                 data.draw(st.integers(1, 4)), z)
        v = data.draw(hnp.arrays(dtype, shape, elements=values))
        got = collapse_height(v)
        want = v.mean(axis=3)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("z", [2, 4, 8, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_summation_order_matches_mean(self, z, dtype):
        """Values spread over 16 decades round differently in any other
        summation order, so the bytes pin ``mean``'s order."""
        rng = np.random.default_rng(z)
        shape = (3, 17, 19, z)
        v = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)).astype(dtype)
        assert collapse_height(v).tobytes() == v.mean(axis=3).tobytes()

    @pytest.mark.parametrize("z", [2, 4, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_columns(self, z, dtype):
        """An all -0.0 column averages to +0.0, as ``mean`` sums from +0.0."""
        v = np.full((2, 3, 3, z), -0.0, dtype=dtype)
        v[1] = 0.0
        assert collapse_height(v).tobytes() == v.mean(axis=3).tobytes()
        assert not np.signbit(collapse_height(v)).any()

    def test_other_layouts_and_dtypes_call_mean(self):
        """A height axis that is not innermost in memory is summed in order
        by ``mean`` even at Z = 8, and an integer tensor averages in float64;
        both go through ``mean`` itself."""
        rng = np.random.default_rng(3)
        base = (rng.standard_normal((8, 3, 5, 6)) * 1e7).astype(np.float32)
        cases = [
            base.transpose(1, 2, 3, 0),
            rng.integers(-5, 5, size=(2, 3, 3, 4)),
            np.asfortranarray(base.transpose(1, 2, 3, 0)),
        ]
        for v in cases:
            got = collapse_height(v)
            want = v.mean(axis=3)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestWarpBev:
    def test_identity_pose_is_exact(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((3, 32, 32)).astype(np.float32)
        p = EgoPose.from_yaw(0.9, (5.0, -2.0, 0.0))
        out = warp_bev(b, p, p, bev_grid())
        np.testing.assert_array_equal(out, b)

    def test_one_cell_shift_x_is_exact(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((2, 32, 32))
        out = warp_bev(
            b, identity_pose(), EgoPose.from_yaw(0.0, (1.0, 0.0, 0.0)), bev_grid()
        )
        want = np.zeros_like(b)
        want[:, :-1, :] = b[:, 1:, :]
        np.testing.assert_array_equal(out, want)

    def test_one_cell_shift_y_is_exact(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((2, 32, 32))
        out = warp_bev(
            b, identity_pose(), EgoPose.from_yaw(0.0, (0.0, 1.0, 0.0)), bev_grid()
        )
        want = np.zeros_like(b)
        want[:, :, :-1] = b[:, :, 1:]
        np.testing.assert_array_equal(out, want)

    def test_quarter_turn_is_exact_permutation(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((2, 32, 32)).astype(np.float32)
        pose_now = EgoPose(EXACT_90, np.zeros(3))
        out = warp_bev(b, identity_pose(), pose_now, bev_grid())
        want = b[:, ::-1, :].transpose(0, 2, 1)
        np.testing.assert_array_equal(out, want)

    def test_quarter_turn_from_yaw_matches_permutation(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((2, 32, 32))
        out = warp_bev(b, identity_pose(), EgoPose.from_yaw(np.pi / 2), bev_grid())
        want = b[:, ::-1, :].transpose(0, 2, 1)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_out_of_range_zero_fill(self):
        b = np.ones((1, 32, 32))
        out = warp_bev(
            b, identity_pose(), EgoPose.from_yaw(0.0, (40.0, 0.0, 0.0)), bev_grid()
        )
        assert not out.any()

    def test_identical_absurd_poses_are_identity(self):
        """Identical poses 1.7e308 m out at 0.7 rad warp a map as identical
        poses at the origin do, without a RuntimeWarning: each rotated
        translation overflows, but their difference is 0."""
        b = np.random.default_rng(6).standard_normal((2, 32, 32)).astype(np.float32)
        far = EgoPose.from_yaw(0.7, (1.7e308, -1.7e308, 0.0))
        home = EgoPose.from_yaw(0.7)
        out = warp_bev(b, far, far, bev_grid())
        assert out.tobytes() == warp_bev(b, home, home, bev_grid()).tobytes()

    def test_non_finite_relative_translation_warps_to_zeros(self):
        """Poses 1.7e308 m out on opposite sides are further apart than
        float64 holds: the map warps to zeros, without a RuntimeWarning."""
        b = np.ones((2, 32, 32), dtype=np.float32)
        now = EgoPose.from_yaw(0.7, (1.7e308, -1.7e308, 0.0))
        hist = EgoPose.from_yaw(0.7, (-1.7e308, 1.7e308, 0.0))
        out = warp_bev(b, hist, now, bev_grid())
        assert out.shape == b.shape and out.dtype == b.dtype
        assert not out.any()

    def test_composition_on_smooth_field(self):
        # compactly supported bump so the double warp loses nothing at borders
        grid = bev_grid(n=128)
        xs = grid.centers(0)
        r = np.hypot(xs[:, None], xs[None, :])
        radius = 12.0
        bump = np.where(r < radius, np.cos(np.pi * r / (2 * radius)) ** 2, 0.0)
        b = bump[None]

        p0 = EgoPose.from_yaw(0.10, (0.8, -0.4, 0.0))
        p1 = EgoPose.from_yaw(0.22, (1.3, 0.5, 0.0))
        p2 = EgoPose.from_yaw(0.35, (1.8, 1.0, 0.0))
        two_step = warp_bev(warp_bev(b, p0, p1, grid), p1, p2, grid)
        one_step = warp_bev(b, p0, p2, grid)
        assert np.abs(two_step - one_step).max() <= 1e-3

    def test_rejects_extent_mismatch(self):
        with pytest.raises(ValueError, match="extents"):
            warp_bev(np.zeros((1, 8, 8)), identity_pose(), identity_pose(), bev_grid())

    @pytest.mark.parametrize("shape", [(32, 32), (1, 32, 32, 2)], ids=["2d", "4d"])
    def test_rejects_wrong_rank(self, shape):
        """The extent check rejects every map that is not (C, X, Y)."""
        with pytest.raises(ValueError, match="do not match grid"):
            warp_bev(np.zeros(shape), identity_pose(), identity_pose(), bev_grid())


# The half grids and BEV widths of a desk run, a wide run (perfbench's
# 200x200x16 grid) and acceptance check 9's run, with each run's scene poses.
WARP_RUNS = {
    "desk": (32, default_config().scene.grid, {}),
    "wide": (32, GridSpec((-40, -40, -1), (40, 40, 2.2), (200, 200, 16)),
             dict(n_frames=8, n_boxes=24)),
    "check9": (8, GridSpec((-9.6, -9.6, -1), (9.6, 9.6, 1), (48, 48, 4)),
               dict(n_frames=4, n_boxes=4, speed=0.5)),
}


def shifted(b, dx, dy):
    """``b`` read ``dx``, ``dy`` cells ahead, zero-filled off the map."""
    nx, ny = b.shape[1:]
    i, j = np.meshgrid(np.arange(nx) + dx, np.arange(ny) + dy, indexing="ij")
    on_map = (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
    out = np.zeros_like(b)
    out[:, on_map] = b[:, i[on_map], j[on_map]]
    return out


def plus_zero(a):
    """``a + 0.0``: turns -0.0 into +0.0 and leaves every other value alone.
    A sample off the map reads a clipped cell times a +0 weight, so it is
    -0.0 where that cell is negative."""
    return a + a.dtype.type(0.0)


@st.composite
def warp_cases(draw):
    """Random maps, grids (cells need not be square) and pose pairs: exact
    quarter turns or any yaw, and whole-cell or arbitrary translations that
    reach past the map, so samples land on cell faces and fall off the map."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    lo = rng.uniform(-10.0, 0.0, 2)
    size = rng.uniform(0.2, 2.0, 2)
    grid = GridSpec((lo[0], lo[1], 0.0), (lo[0] + nx * size[0], lo[1] + ny * size[1], 1.0),
                    (nx, ny, 1))
    vx, vy = grid.voxel_size[:2]

    def pose():
        if draw(st.booleans()):
            rot = quarter_turn(draw(st.integers(0, 3)))
        else:
            rot = EgoPose.from_yaw(draw(st.floats(-np.pi, np.pi))).rotation
        if draw(st.booleans()):
            t = (rng.integers(-nx - 2, nx + 3) * vx, rng.integers(-ny - 2, ny + 3) * vy, 0.0)
        else:
            t = (*rng.uniform(-1.5, 1.5, 2) * (nx * vx, ny * vy), 0.0)
        return EgoPose(rot, np.array(t))

    dtype = draw(st.sampled_from([np.float32, np.float64]))
    b = rng.standard_normal((draw(st.integers(1, 3)), nx, ny)).astype(dtype)
    b[rng.random(b.shape) < 0.2] = 0.0
    return b, pose(), pose(), grid


class TestWarpFlatGather:
    """warp_bev gathers through flat indices with each off-map mask folded
    into its weight; ``warp_four_gathers`` is the old form and the oracle."""

    @pytest.mark.parametrize("name", list(WARP_RUNS))
    def test_matches_four_gathers_at_run_shapes(self, name):
        channels, grid, scene = WARP_RUNS[name]
        spec = dataclasses.replace(default_config().scene, grid=grid, **scene)
        half = grid.downsample(2)
        poses = spec.poses()
        poses.append(EgoPose.from_yaw(0.35, (1.7, -2.3, 0.0)))
        rng = np.random.default_rng(13)
        b = rng.standard_normal((channels,) + half.counts[:2]).astype(np.float32)
        for pose_hist in poses:
            got = warp_bev(b, pose_hist, poses[-2], half)
            want = warp_four_gathers(b, pose_hist, poses[-2], half)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=warp_cases())
    def test_matches_four_gathers(self, case):
        b, pose_hist, pose_now, grid = case
        got = warp_bev(b, pose_hist, pose_now, grid)
        want = warp_four_gathers(b, pose_hist, pose_now, grid)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestExactWarps:
    """Aligned warps move whole cells: the result is the zero-filled shifted
    or rot90 copy, byte for byte (after ``plus_zero``)."""

    @settings(max_examples=30, deadline=None)
    @given(
        nx=st.integers(1, 12),
        ny=st.integers(1, 12),
        vx=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        vy=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        start=st.tuples(st.integers(-12, 4), st.integers(-12, 4)),
        shift=st.tuples(st.integers(-14, 14), st.integers(-14, 14)),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_whole_cell_shift(self, nx, ny, vx, vy, start, shift, dtype, seed):
        x0, y0 = start[0] * vx, start[1] * vy
        grid = GridSpec((x0, y0, 0.0), (x0 + nx * vx, y0 + ny * vy, 1.0), (nx, ny, 1))
        b = np.random.default_rng(seed).standard_normal((2, nx, ny)).astype(dtype)
        pose_now = EgoPose(np.eye(3), np.array([shift[0] * vx, shift[1] * vy, 0.0]))
        out = warp_bev(b, identity_pose(), pose_now, grid)
        assert out.dtype == b.dtype
        assert plus_zero(out).tobytes() == shifted(b, *shift).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 12),
        v=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        turns=st.integers(0, 3),
        base=st.integers(0, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_quarter_turns_on_square_grids(self, n, v, turns, base, dtype, seed):
        half = n * v / 2
        grid = GridSpec((-half, -half, 0.0), (half, half, 1.0), (n, n, 1))
        b = np.random.default_rng(seed).standard_normal((2, n, n)).astype(dtype)
        pose_hist = EgoPose(quarter_turn(base), np.zeros(3))
        pose_now = EgoPose(quarter_turn(base + turns), np.zeros(3))
        out = warp_bev(b, pose_hist, pose_now, grid)
        want = np.rot90(b, -turns, axes=(1, 2))
        assert plus_zero(out).tobytes() == np.ascontiguousarray(want).tobytes()


def averaging_weights(channels, frames):
    """Center-tap kernels: mix1 averages the frame blocks, mix2 is identity."""
    w1 = np.zeros((channels, frames * channels, 3, 3))
    w2 = np.zeros((channels, channels, 3, 3))
    for c in range(channels):
        w2[c, c, 1, 1] = 1.0
        for f in range(frames):
            w1[c, f * channels + c, 1, 1] = 1.0 / frames
    return FusionWeights(Conv(w1, np.zeros(channels)), Conv(w2, np.zeros(channels)))


def slot_reader(channels, frames, slot):
    """Center-tap kernels: mix1 copies stack slot ``slot``, mix2 is identity."""
    w1 = np.zeros((channels, frames * channels, 3, 3))
    w2 = np.zeros((channels, channels, 3, 3))
    for c in range(channels):
        w1[c, slot * channels + c, 1, 1] = 1.0
        w2[c, c, 1, 1] = 1.0
    return FusionWeights(Conv(w1, np.zeros(channels)), Conv(w2, np.zeros(channels)))


class TestTemporalFuse:
    def test_cold_start_uses_current_only(self):
        rng = np.random.default_rng(6)
        channels, frames = 2, 4
        w1 = np.zeros((channels, frames * channels, 3, 3))
        w1[:, :channels] = rng.standard_normal((channels, channels, 3, 3))
        w2 = rng.standard_normal((channels, channels, 3, 3))
        b1 = rng.standard_normal(channels)
        b2 = rng.standard_normal(channels)
        weights = FusionWeights(Conv(w1, b1), Conv(w2, b2))

        grid = bev_grid(n=8)
        b = rng.standard_normal((channels, 8, 8))
        out = temporal_fuse(b, [], identity_pose(), weights, grid)
        want = conv(conv(b, w1[:, :channels], b1), w2, b2)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_averaging_fixed_point(self):
        rng = np.random.default_rng(7)
        channels, frames = 2, 4
        weights = averaging_weights(channels, frames)
        grid = bev_grid(n=8)
        b = rng.standard_normal((channels, 8, 8))
        history = [(b, identity_pose())] * (frames - 1)
        out = temporal_fuse(b, history, identity_pose(), weights, grid)
        np.testing.assert_allclose(out, b, atol=1e-12)

    def test_history_slots_newest_first(self):
        """Two history maps land in slots 1 and 2, newest first; the
        window's last slot is zero-filled."""
        rng = np.random.default_rng(11)
        channels, frames = 2, 4
        grid = bev_grid(n=8)
        b, newest, older = rng.standard_normal((3, channels, 8, 8))
        history = [(newest, identity_pose()), (older, identity_pose())]
        slots = [
            temporal_fuse(b, history, identity_pose(), slot_reader(channels, frames, k), grid)
            for k in range(frames)
        ]
        np.testing.assert_array_equal(slots[0], b)
        np.testing.assert_array_equal(slots[1], newest)
        np.testing.assert_array_equal(slots[2], older)
        assert not slots[3].any()

    def test_changes_no_argument(self):
        """The call leaves the current map, the history and the poses as
        they were, and a second call returns the same bytes."""
        rng = np.random.default_rng(9)
        weights = FusionWeights.seeded(2, 2, 4)
        grid = bev_grid(n=8)
        b = rng.standard_normal((2, 8, 8)).astype(np.float32)
        history = [
            (rng.standard_normal((2, 8, 8)).astype(np.float32),
             EgoPose.from_yaw(0.1 * k, (0.5 * k, -0.25 * k, 0.0)))
            for k in range(3)
        ]
        pose_now = EgoPose.from_yaw(0.4, (1.5, 0.5, 0.0))
        entries = list(history)

        def snapshot():
            arrays = [b, pose_now.rotation, pose_now.translation]
            for bev, pose in history:
                arrays += [bev, pose.rotation, pose.translation]
            return [a.tobytes() for a in arrays]

        before = snapshot()
        first = temporal_fuse(b, history, pose_now, weights, grid)
        second = temporal_fuse(b, history, pose_now, weights, grid)
        assert snapshot() == before
        assert len(history) == len(entries)
        assert all(a is e for a, e in zip(history, entries))
        assert first.tobytes() == second.tobytes()

    def test_shape_fixed_at_any_fill_level(self):
        channels, frames = 2, 4
        weights = FusionWeights.seeded(0, channels, frames)
        grid = bev_grid(n=8)
        rng = np.random.default_rng(8)
        history = []
        for _ in range(frames):
            b = rng.standard_normal((channels, 8, 8)).astype(np.float32)
            out = temporal_fuse(b, history, identity_pose(), weights, grid)
            assert out.shape == (channels, 8, 8)
            history.insert(0, (b, identity_pose()))

    def test_sixteen_frame_window(self):
        weights = FusionWeights.seeded(1, 2, 16)
        assert weights.n_frames == 16
        grid = bev_grid(n=8)
        b = np.ones((2, 8, 8), dtype=np.float32)
        for fill in (0, 15):
            history = [(b, identity_pose())] * fill
            out = temporal_fuse(b, history, identity_pose(), weights, grid)
            assert out.shape == (2, 8, 8)

    def test_moving_ego_aligns_history(self):
        # history holds a one-cell-ahead impulse; after the ego advances one
        # cell the warped slot sees it at the current cell
        w1 = np.zeros((1, 2, 3, 3))
        w1[0, 1, 1, 1] = 1.0  # read only the (warped) history slot
        w2 = np.zeros((1, 1, 3, 3))
        w2[0, 0, 1, 1] = 1.0
        weights = FusionWeights(Conv(w1, np.zeros(1)), Conv(w2, np.zeros(1)))

        grid = bev_grid()
        hist = np.zeros((1, 32, 32))
        hist[0, 20, 16] = 5.0
        pose_now = EgoPose.from_yaw(0.0, (1.0, 0.0, 0.0))
        out = temporal_fuse(
            np.zeros((1, 32, 32)), [(hist, identity_pose())], pose_now, weights, grid
        )
        assert out[0, 19, 16] == 5.0
        out[0, 19, 16] = 0.0
        assert not out.any()

    def test_rejects_history_longer_than_window(self):
        weights = FusionWeights.seeded(3, 2, 4)
        b = np.zeros((2, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="4 history maps .* window of 4"):
            temporal_fuse(
                b, [(b, identity_pose())] * 4, identity_pose(), weights, bev_grid(n=8)
            )

    def test_rejects_channel_mismatch(self):
        weights = FusionWeights.seeded(4, 2, 4)
        with pytest.raises(ValueError, match="BEV"):
            temporal_fuse(
                np.zeros((3, 8, 8), dtype=np.float32),
                [],
                identity_pose(),
                weights,
                bev_grid(n=8),
            )


    @pytest.mark.parametrize(
        "mix1_w, mix2_w, match",
        [
            ((2, 4, 3, 3, 1), (2, 2, 3, 3), "input must have rank 4"),
            ((2, 4, 3, 3), (2, 2, 3), "input must have rank 2"),
            ((3, 4, 3, 3), (2, 2, 3, 3), "channel mismatch"),
        ],
        ids=["mix1-rank", "mix2-rank", "mix2-channels"],
    )
    def test_rejects_malformed_weights(self, mix1_w, mix2_w, match):
        """The fusion convs reject the weights they read: each must be 2D,
        and mix2 must take mix1's output channels."""
        weights = FusionWeights(
            Conv(np.zeros(mix1_w), np.zeros(mix1_w[0])),
            Conv(np.zeros(mix2_w), np.zeros(mix2_w[0])),
        )
        b = np.zeros((2, 8, 8))
        with pytest.raises(ValueError, match=match):
            temporal_fuse(b, [], identity_pose(), weights, bev_grid(n=8))


class TestSemanticEncoder:
    def test_shape_contract(self):
        weights = SemanticEncoderWeights.seeded(0, channels=3, out_channels=5)
        out = semantic_encoder_2d(np.ones((3, 100, 100), dtype=np.float32), weights)
        assert out.shape == (5, 100, 100)
        assert out.dtype == np.float32

    def test_zero_input_zero_biases(self):
        weights = SemanticEncoderWeights.seeded(1, channels=3, out_channels=5)
        layers = [getattr(weights, f.name) for f in dataclasses.fields(weights)]
        zeroed = SemanticEncoderWeights(
            *(layer._replace(bias=np.zeros_like(layer.bias)) for layer in layers)
        )
        out = semantic_encoder_2d(np.zeros((3, 16, 16)), cast(zeroed, np.float64))
        assert not out.any()

    def test_residual_identity(self):
        c = 3
        z3 = np.zeros((c, c, 3, 3))
        zb = np.zeros(c)
        z2 = np.zeros((c, c, 2, 2))
        weights = SemanticEncoderWeights(
            Conv(z3, zb), Conv(z3, zb), Conv(z3, zb), Conv(z2, zb), Conv(z2, zb)
        )
        rng = np.random.default_rng(10)
        b = rng.standard_normal((c, 12, 12))
        np.testing.assert_array_equal(semantic_encoder_2d(b, weights), b)

    @pytest.mark.parametrize("c_in, c_out", [(3, 5), (1, 4)])
    def test_rejects_width_change_without_projection(self, c_in, c_out):
        """With no 1x1 projection the residual is the input itself, so the
        widths must agree; a width of 1 must not broadcast."""
        weights = dataclasses.replace(
            SemanticEncoderWeights.seeded(5, c_in, c_out), skip=None
        )
        with pytest.raises(ValueError, match="residual"):
            semantic_encoder_2d(np.ones((c_in, 8, 8), dtype=np.float32), weights)

    def test_seeded_skip_only_when_widths_differ(self):
        assert SemanticEncoderWeights.seeded(2, 4, 4).skip is None
        assert SemanticEncoderWeights.seeded(2, 4, 6).skip is not None

    def test_rejects_indivisible_extents(self):
        weights = SemanticEncoderWeights.seeded(3, 2, 2)
        with pytest.raises(ValueError, match="divisible"):
            semantic_encoder_2d(np.zeros((2, 10, 12), dtype=np.float32), weights)

    def test_deterministic_for_seed(self):
        a = SemanticEncoderWeights.seeded(4, 2, 3)
        b = SemanticEncoderWeights.seeded(4, 2, 3)
        np.testing.assert_array_equal(a.down1.weight, b.down1.weight)
        np.testing.assert_array_equal(a.up2.weight, b.up2.weight)
