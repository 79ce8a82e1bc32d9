import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occkit.schedule import (
    MixupSchedule,
    gt_depth_from_points,
    iteration_to_x,
    mix_depth,
    mixup_alpha,
)


class TestMixupSchedule:
    def test_axis_endpoints_and_midpoint(self):
        s = MixupSchedule(steepness=5.0, total_iters=1000, half_range=5.0)
        assert iteration_to_x(0, s) == -5.0
        assert iteration_to_x(500, s) == 0.0
        assert iteration_to_x(1000, s) == 5.0

    def test_alpha_midpoint_exact_half(self):
        s = MixupSchedule(steepness=5.0, total_iters=1000)
        assert abs(mixup_alpha(500, s) - 0.5) <= 1e-12

    def test_alpha_start_near_zero(self):
        s = MixupSchedule(steepness=5.0, total_iters=1000, half_range=5.0)
        assert mixup_alpha(0, s) == pytest.approx(1.4e-11, rel=0.01)

    def test_alpha_endpoint_symmetry(self):
        for r in (1.0, 2.0, 5.0, 10.0, 20.0):
            s = MixupSchedule(steepness=r, total_iters=1000)
            assert abs(mixup_alpha(0, s) + mixup_alpha(1000, s) - 1.0) <= 1e-12

    def test_alpha_monotone_nondecreasing(self):
        # saturated tails may repeat the same float, hence non-strict there
        for r in (1.0, 5.0, 20.0):
            s = MixupSchedule(steepness=r, total_iters=1000)
            alphas = np.array([mixup_alpha(i, s) for i in range(0, 1001, 10)])
            assert (np.diff(alphas) >= 0).all()
            mid = alphas[(alphas > 0.01) & (alphas < 0.99)]
            assert (np.diff(mid) > 0).all()

    def test_larger_steepness_is_steeper(self):
        # steeper curves sit lower before the midpoint and higher after it
        shallow = MixupSchedule(steepness=2.0, total_iters=1000)
        steep = MixupSchedule(steepness=10.0, total_iters=1000)
        assert mixup_alpha(250, steep) < mixup_alpha(250, shallow)
        assert mixup_alpha(750, steep) > mixup_alpha(750, shallow)

    def test_rejects_out_of_range_iteration(self):
        s = MixupSchedule()
        with pytest.raises(ValueError, match="outside"):
            iteration_to_x(-1, s)
        with pytest.raises(ValueError, match="outside"):
            mixup_alpha(1001, s)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="steepness"):
            MixupSchedule(steepness=0.0)
        with pytest.raises(ValueError, match="total_iters"):
            MixupSchedule(total_iters=0)
        with pytest.raises(ValueError, match="half_range"):
            MixupSchedule(half_range=-1.0)
        with pytest.raises(ValueError, match="largest float"):
            MixupSchedule(total_iters=10**400)


def random_distribution(rng, shape, axis=0):
    logits = rng.standard_normal(shape)
    e = np.exp(logits)
    return e / e.sum(axis=axis, keepdims=True)


def gt_depth_per_camera(depth_samples, d_min, d_max, n_bins):
    """The binning before it took a whole rig, called once per camera: an
    (H, W) map becomes one sample, and the nearest valid sample wins."""
    d = np.asarray(depth_samples, dtype=np.float64)
    if d.ndim == 2:
        d = d[None]
    usable = np.isfinite(d) & (d > 0)
    nearest = np.where(usable, d, np.inf).min(axis=0)
    width = (d_max - d_min) / n_bins
    in_range = np.isfinite(nearest) & (nearest >= d_min) & (nearest < d_max)
    offsets = np.where(in_range, nearest - d_min, 0.0)
    bin_idx = np.clip(np.floor(offsets / width).astype(np.int64), 0, n_bins - 1)
    h, w = nearest.shape
    one_hot = np.full((n_bins, h, w), 1.0 / n_bins, dtype=np.float32)
    vv, uu = np.nonzero(in_range)
    one_hot[:, vv, uu] = 0.0
    one_hot[bin_idx[vv, uu], vv, uu] = 1.0
    return one_hot, in_range


def mix_depth_per_camera(pred, gt, alpha, valid_mask=None):
    """The blend before it took a whole rig: one camera's (D, H, W) stack."""
    mixed = alpha * pred + (1.0 - alpha) * gt.astype(pred.dtype)
    if valid_mask is not None:
        mixed = np.where(valid_mask[None, :, :], mixed, pred)
    return mixed.astype(pred.dtype, copy=False)


@st.composite
def depth_rigs(draw):
    """(N_c, H, W) depth rigs with NaN, -1, 0, inf, depths of exactly d_min
    and d_max, bin edges, and values just inside the range's ends."""
    n_cams, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    n_bins = draw(st.integers(1, 16))
    d_min, d_max = draw(st.sampled_from([(0.5, 12.0), (1.0, 5.0), (1.0, 25.0), (0.1, 0.3)]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.uniform(-0.2 * d_max, 1.2 * d_max, (n_cams, h, w))
    width = (d_max - d_min) / n_bins
    edges = np.array([
        np.nan, -1.0, 0.0, np.inf, d_min, d_max, np.nextafter(d_max, 0.0),
        np.nextafter(d_min, 0.0), d_min + width * rng.integers(0, n_bins),
    ])
    pick = rng.random(d.shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    d[pick] = rng.choice(edges, int(pick.sum()))
    return d.astype(dtype), d_min, d_max, n_bins, rng


ALPHAS = st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0)


class TestRigDepthMatchesPerCamera:
    """The rig-level binning and blend give the bytes of the per-camera
    calls they replace, stacked over cameras."""

    @settings(max_examples=150, deadline=None)
    @given(rig=depth_rigs())
    def test_binning_bytes(self, rig):
        d, d_min, d_max, n_bins, _ = rig
        one_hot, valid = gt_depth_from_points(d, d_min, d_max, n_bins)
        per_cam = [gt_depth_per_camera(cam, d_min, d_max, n_bins) for cam in d]
        want_oh = np.stack([oh for oh, _ in per_cam])
        want_valid = np.stack([v for _, v in per_cam])
        assert one_hot.dtype == np.float32 and valid.dtype == bool
        assert one_hot.shape == want_oh.shape and valid.shape == want_valid.shape
        assert one_hot.tobytes() == want_oh.tobytes()
        assert valid.tobytes() == want_valid.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        rig=depth_rigs(),
        alpha=ALPHAS,
        pred_dtype=st.sampled_from([np.float32, np.float64]),
        mask_kind=st.sampled_from(["binned", "random", "none"]),
    )
    def test_blend_bytes(self, rig, alpha, pred_dtype, mask_kind):
        d, d_min, d_max, n_bins, rng = rig
        gt, valid = gt_depth_from_points(d, d_min, d_max, n_bins)
        pred = random_distribution(rng, gt.shape, axis=1).astype(pred_dtype)
        if mask_kind == "random":
            valid = rng.random(valid.shape) < 0.5
            valid.flat[0] = True
            valid.flat[-1] = valid.size == 1
        mask = None if mask_kind == "none" else valid
        mixed = mix_depth(pred, gt, alpha, mask)
        want = np.stack([
            mix_depth_per_camera(pred[i], gt[i], alpha, None if mask is None else mask[i])
            for i in range(len(pred))
        ])
        assert mixed.dtype == want.dtype == pred.dtype
        assert mixed.tobytes() == want.tobytes()


class TestMixDepth:
    def test_alpha_zero_returns_gt(self):
        rng = np.random.default_rng(0)
        pred = random_distribution(rng, (8, 3, 4))
        gt = random_distribution(rng, (8, 3, 4))
        np.testing.assert_allclose(mix_depth(pred, gt, 0.0), gt, atol=1e-12)

    def test_alpha_one_returns_pred(self):
        rng = np.random.default_rng(1)
        pred = random_distribution(rng, (8, 3, 4))
        gt = random_distribution(rng, (8, 3, 4))
        np.testing.assert_allclose(mix_depth(pred, gt, 1.0), pred, atol=1e-12)

    def test_mix_stays_normalized(self):
        rng = np.random.default_rng(2)
        pred = random_distribution(rng, (16, 4, 6))
        gt = random_distribution(rng, (16, 4, 6))
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            mixed = mix_depth(pred, gt, alpha)
            np.testing.assert_allclose(mixed.sum(axis=0), 1.0, atol=1e-5)
            assert (mixed >= 0).all()

    def test_invalid_pixels_pass_prediction(self):
        rng = np.random.default_rng(3)
        pred = random_distribution(rng, (8, 3, 4))
        gt = random_distribution(rng, (8, 3, 4))
        valid = np.zeros((3, 4), dtype=bool)
        valid[1, 2] = True
        mixed = mix_depth(pred, gt, 0.0, valid_mask=valid)
        np.testing.assert_allclose(mixed[:, 1, 2], gt[:, 1, 2], atol=1e-12)
        mixed[:, 1, 2] = pred[:, 1, 2]
        np.testing.assert_array_equal(mixed, pred.astype(mixed.dtype))

    def test_rig_mask_is_per_camera(self):
        # a pixel trusted in one camera passes the other camera's prediction
        rng = np.random.default_rng(6)
        pred = random_distribution(rng, (2, 8, 3, 4), axis=1)
        gt = random_distribution(rng, (2, 8, 3, 4), axis=1)
        valid = np.zeros((2, 3, 4), dtype=bool)
        valid[1, 1, 2] = True
        mixed = mix_depth(pred, gt, 0.0, valid_mask=valid)
        np.testing.assert_array_equal(mixed[1, :, 1, 2], gt[1, :, 1, 2])
        mixed[1, :, 1, 2] = pred[1, :, 1, 2]
        np.testing.assert_array_equal(mixed, pred)

    def test_preserves_dtype(self):
        pred = np.full((4, 2, 2), 0.25, dtype=np.float32)
        gt = np.full((4, 2, 2), 0.25, dtype=np.float64)
        assert mix_depth(pred, gt, 0.5).dtype == np.float32

    def test_rejects_bad_alpha(self):
        pred = np.full((4, 2, 2), 0.25)
        with pytest.raises(ValueError, match="alpha"):
            mix_depth(pred, pred, 1.5)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mix_depth(np.zeros((4, 2, 2)), np.zeros((4, 2, 3)), 0.5)

    def test_rejects_bad_mask_shape(self):
        pred = np.full((4, 2, 2), 0.25)
        with pytest.raises(ValueError, match="valid_mask"):
            mix_depth(pred, pred, 0.5, valid_mask=np.ones((3, 3), dtype=bool))
        # a rig's mask needs its camera axis: one (H, W) mask would be
        # broadcast over every camera
        rig = np.full((2, 4, 2, 2), 0.25)
        with pytest.raises(ValueError, match="valid_mask"):
            mix_depth(rig, rig, 0.5, valid_mask=np.ones((2, 2), dtype=bool))


class TestGtDepthFromPoints:
    def test_hand_computed_bins(self):
        # width 0.5 over [1, 5): depth 2.3 -> bin 2, depth 2.5 -> bin 3
        d = np.array([[2.3, 2.5]])
        one_hot, valid = gt_depth_from_points(d, d_min=1.0, d_max=5.0, n_bins=8)
        assert valid.all()
        assert one_hot[2, 0, 0] == 1.0
        assert one_hot[3, 0, 1] == 1.0
        np.testing.assert_allclose(one_hot.sum(axis=0), 1.0)

    def test_nonpositive_and_nan_ignored(self):
        # three cameras: NaN, -2 and 0 are missing, 2.1 lands in [2.0, 2.5)
        d = np.array([[[np.nan, 2.1]], [[-2.0, 0.0]], [[2.1, np.nan]]])
        one_hot, valid = gt_depth_from_points(d, 1.0, 5.0, 8)
        assert one_hot.shape == (3, 8, 1, 2)
        np.testing.assert_array_equal(valid, [[[False, True]], [[False, False]], [[True, False]]])
        for cam, u in ((0, 1), (2, 0)):
            assert one_hot[cam, 2, 0, u] == 1.0
            assert one_hot[cam, :, 0, u].sum() == 1.0
        for cam, u in ((0, 0), (1, 0), (1, 1), (2, 1)):
            np.testing.assert_array_equal(one_hot[cam, :, 0, u], 0.125)

    def test_out_of_range_gets_uniform(self):
        d = np.array([[0.5, 5.0, np.nan]])
        one_hot, valid = gt_depth_from_points(d, 1.0, 5.0, 8)
        assert not valid.any()
        np.testing.assert_allclose(one_hot, 0.125)

    def test_range_is_half_open(self):
        # two cameras: d_min and just below d_max are in range; d_max and
        # just below d_min are not
        d = np.array([[[1.0, 4.999]], [[5.0, 0.999]]])
        one_hot, valid = gt_depth_from_points(d, 1.0, 5.0, 8)
        np.testing.assert_array_equal(valid, [[[True, True]], [[False, False]]])
        assert one_hot[0, 0, 0, 0] == 1.0
        assert one_hot[0, 7, 0, 1] == 1.0
        np.testing.assert_array_equal(one_hot[1], 0.125)

    def test_single_2d_frame_accepted(self):
        one_hot, valid = gt_depth_from_points(np.full((2, 2), 3.0), 1.0, 5.0, 4)
        assert one_hot.shape == (4, 2, 2)
        assert valid.all()
        assert (one_hot[2] == 1.0).all()

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError, match="d_min"):
            gt_depth_from_points(np.ones((2, 2)), 5.0, 1.0, 4)

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError, match="n_bins"):
            gt_depth_from_points(np.ones((2, 2)), 1.0, 5.0, 0)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match=r"\(\.\.\., H, W\), got 1D"):
            gt_depth_from_points(np.ones(4), 1.0, 5.0, 4)
