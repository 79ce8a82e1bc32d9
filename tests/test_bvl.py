import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occkit.bvl import (
    BVLWeights,
    bev_to_voxel_lift,
    fuse_and_upsample,
    predict_height,
)
from occkit.tensor import Conv, conv, rng_named, upsample2x, upsample_init
from support import cast


def context_map(b, weights):
    w = cast(weights, b.dtype)
    return conv(b, *w.context)


def seeded_upsample(seed, channels):
    """The pipeline's voxel upsample, drawn for ``seed`` at one width."""
    return upsample_init(rng_named(seed, "voxel_upsample"), channels, channels, 3)


class TestBVLWeights:
    def test_seeded_shapes(self):
        w = BVLWeights.seeded(0, "lift", c_in=4, c_out=6, n_heights=8)
        assert w.context.weight.shape == (6, 4, 1, 1)
        assert w.height.weight.shape == (8, 4, 1, 1)

    def test_three_by_three_context_lifts(self):
        """A 3x3 context conv keeps the map's extents, since ``conv`` pads
        centred, and the lifted volume's height-sum is still that conv."""
        rng = np.random.default_rng(12)
        w = BVLWeights(
            Conv(
                rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
                rng.standard_normal(3).astype(np.float32),
            ),
            Conv(
                rng.standard_normal((8, 2, 1, 1)).astype(np.float32),
                rng.standard_normal(8).astype(np.float32),
            ),
        )
        b = rng.standard_normal((2, 7, 5)).astype(np.float32)
        vol = bev_to_voxel_lift(b, w)
        ctx = context_map(b, w)
        assert vol.shape == (3, 7, 5, 8) and ctx.shape == (3, 7, 5)
        assert float(np.abs(vol.sum(axis=3) - ctx).max()) <= 1e-5

    @pytest.mark.parametrize(
        "context_w, height_w, match",
        [
            ((2, 3, 1, 1), (4, 2, 1, 1), "channel mismatch"),
            ((2, 2, 1, 1), (4, 3, 1, 1), "channel mismatch"),
            ((2, 2, 1, 1, 1), (4, 2, 1, 1), "input must have rank 4"),
            ((2, 2, 1, 1), (4, 2, 1), "input must have rank 2"),
        ],
        ids=["context-channels", "height-channels", "context-rank", "height-rank"],
    )
    def test_lift_rejects_malformed_weights(self, context_w, height_w, match):
        """The convs that read the weights reject them: each must be 2D and
        take the BEV map's channels."""
        w = BVLWeights(
            Conv(np.zeros(context_w), np.zeros(context_w[0])),
            Conv(np.zeros(height_w), np.zeros(height_w[0])),
        )
        with pytest.raises(ValueError, match=match):
            bev_to_voxel_lift(np.zeros((2, 3, 3)), w)


class TestPredictHeight:
    def test_normalized_per_cell(self):
        rng = np.random.default_rng(0)
        w = BVLWeights.seeded(1, "lift", c_in=3, c_out=3, n_heights=8)
        b = rng.standard_normal((3, 5, 7)).astype(np.float32)
        h = predict_height(b, w)
        assert h.shape == (8, 5, 7)
        assert (h >= 0).all()
        np.testing.assert_allclose(h.sum(axis=0), 1.0, atol=1e-6)

    def test_zero_height_weights_give_uniform(self):
        w = BVLWeights(
            Conv(np.zeros((2, 2, 1, 1)), np.zeros(2)),
            Conv(np.zeros((8, 2, 1, 1)), np.zeros(8)),
        )
        h = predict_height(np.ones((2, 3, 3)), w)
        np.testing.assert_allclose(h, 0.125)

    def test_rejects_wrong_rank(self):
        """The height conv rejects a 4D map."""
        w = BVLWeights.seeded(0, "lift", 2, 2, 4)
        with pytest.raises(ValueError, match="input must have rank 3, got 4"):
            predict_height(np.zeros((2, 3, 3, 3), dtype=np.float32), w)


class TestBevToVoxelLift:
    def test_uniform_height_spreads_evenly(self):
        # zero height logits: every slice carries context / 8
        rng = np.random.default_rng(1)
        ctx_w = rng.standard_normal((3, 2, 1, 1))
        ctx_b = rng.standard_normal(3)
        w = BVLWeights(Conv(ctx_w, ctx_b), Conv(np.zeros((8, 2, 1, 1)), np.zeros(8)))
        b = rng.standard_normal((2, 4, 5))
        out = bev_to_voxel_lift(b, w)
        assert out.shape == (3, 4, 5, 8)
        want = context_map(b, w) / 8.0
        for z in range(8):
            np.testing.assert_allclose(out[:, :, :, z], want, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        c_in=st.integers(1, 8),
        c_out=st.integers(1, 8),
        n_heights=st.integers(1, 16),
        extent=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        scale=st.floats(0.01, 10.0),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_height_sum_reproduces_context(
        self, c_in, c_out, n_heights, extent, scale, dtype, seed
    ):
        """Partition of unity: the lifted volume's height-sum is the context
        conv to within 1e-5 of its largest value, for weights from near-flat
        to sharply peaked height logits."""
        rng = np.random.default_rng(seed)
        w = cast(
            BVLWeights(
                Conv(
                    scale * rng.standard_normal((c_out, c_in, 1, 1)),
                    scale * rng.standard_normal(c_out),
                ),
                Conv(
                    scale * rng.standard_normal((n_heights, c_in, 1, 1)),
                    scale * rng.standard_normal(n_heights),
                ),
            ),
            dtype,
        )
        b = rng.standard_normal((c_in,) + extent).astype(dtype)
        vol = bev_to_voxel_lift(b, w)
        ctx = context_map(b, w)
        assert vol.shape == (c_out,) + extent + (n_heights,) and vol.dtype == dtype
        peak = max(float(np.abs(ctx).max()), 1e-12)
        assert float(np.abs(vol.sum(axis=3) - ctx).max()) <= 1e-5 * peak

    def test_saturated_one_hot_height(self):
        # huge bias on one height slot concentrates all mass there
        rng = np.random.default_rng(2)
        ctx_w = rng.standard_normal((2, 2, 1, 1))
        height_b = np.full(8, -1000.0)
        height_b[5] = 1000.0
        w = BVLWeights(Conv(ctx_w, np.zeros(2)), Conv(np.zeros((8, 2, 1, 1)), height_b))
        b = rng.standard_normal((2, 3, 3))
        out = bev_to_voxel_lift(b, w)
        np.testing.assert_allclose(out[:, :, :, 5], context_map(b, w), atol=1e-12)
        out[:, :, :, 5] = 0
        assert np.abs(out).max() == 0.0

    def test_height_sum_recovers_context(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            w = BVLWeights.seeded(trial, "lift", c_in=4, c_out=6, n_heights=8)
            b = rng.standard_normal((4, 6, 5)).astype(np.float32)
            out = bev_to_voxel_lift(b, w)
            want = context_map(b, w)
            scale = max(np.abs(want).max(), 1e-9)
            assert np.abs(out.sum(axis=3) - want).max() <= 1e-5 * scale

    def test_matches_outer_product_loops(self):
        rng = np.random.default_rng(4)
        w = cast(BVLWeights.seeded(9, "lift", c_in=2, c_out=3, n_heights=4), np.float64)
        b = rng.standard_normal((2, 3, 4))
        out = bev_to_voxel_lift(b, w)
        ctx = context_map(b, w)
        hgt = predict_height(b, w)
        for c in range(3):
            for x in range(3):
                for y in range(4):
                    for z in range(4):
                        assert out[c, x, y, z] == pytest.approx(
                            ctx[c, x, y] * hgt[z, x, y], abs=1e-12
                        )

    def test_linear_context_scales_output(self):
        # doubling context weights doubles the volume; height softmax unchanged
        rng = np.random.default_rng(5)
        base = cast(BVLWeights.seeded(11, "lift", c_in=2, c_out=2, n_heights=4), np.float64)
        doubled = BVLWeights(
            Conv(2 * base.context.weight, 2 * base.context.bias), base.height
        )
        b = rng.standard_normal((2, 4, 4))
        np.testing.assert_allclose(
            bev_to_voxel_lift(b, doubled), 2 * bev_to_voxel_lift(b, base), atol=1e-12
        )

    def test_rejects_wrong_rank(self):
        """The context conv rejects a 4D map before anything is lifted."""
        w = BVLWeights.seeded(0, "lift", 2, 2, 4)
        with pytest.raises(ValueError, match="input must have rank 3, got 4"):
            bev_to_voxel_lift(np.zeros((2, 3, 3, 3), dtype=np.float32), w)


class TestFuseAndUpsample:
    def test_shape_doubles(self):
        w = seeded_upsample(0, channels=2)
        v = np.zeros((2, 10, 10, 4), dtype=np.float32)
        out = fuse_and_upsample(v, v, w)
        assert out.shape == (2, 20, 20, 8)

    def test_desk_scale_extents(self):
        w = seeded_upsample(1, channels=1)
        v = np.ones((1, 100, 100, 8), dtype=np.float32)
        out = fuse_and_upsample(v, np.zeros_like(v), w)
        assert out.shape == (1, 200, 200, 16)

    def test_zero_semantic_passes_geometric(self):
        rng = np.random.default_rng(6)
        w = seeded_upsample(2, channels=3)
        v_g = rng.standard_normal((3, 6, 6, 4)).astype(np.float32)
        out = fuse_and_upsample(v_g, np.zeros_like(v_g), w)
        want = upsample2x(v_g, *w)
        np.testing.assert_array_equal(out, want)

    def test_commutative(self):
        rng = np.random.default_rng(7)
        w = seeded_upsample(3, channels=2)
        v_g = rng.standard_normal((2, 4, 4, 2)).astype(np.float32)
        v_s = rng.standard_normal((2, 4, 4, 2)).astype(np.float32)
        np.testing.assert_array_equal(
            fuse_and_upsample(v_g, v_s, w), fuse_and_upsample(v_s, v_g, w)
        )

    def test_rejects_shape_mismatch(self):
        w = seeded_upsample(4, channels=2)
        with pytest.raises(ValueError, match="differ"):
            fuse_and_upsample(
                np.zeros((2, 4, 4, 2), dtype=np.float32),
                np.zeros((2, 4, 4, 4), dtype=np.float32),
                w,
            )

    @pytest.mark.parametrize(
        "weight, bias, match",
        [
            ((2, 2, 3, 3, 3), (2,), "kernel extents must all be 2"),
            ((2, 2, 2, 2), (2,), "input must have rank 3, got 4"),
            ((2, 2, 2, 2, 2), (3,), "bias must have shape"),
        ],
        ids=["extents", "rank", "bias"],
    )
    def test_rejects_bad_weight_shape(self, weight, bias, match):
        """``upsample2x`` rejects the weight it reads: rank, 2-extents and
        bias."""
        w = Conv(np.zeros(weight), np.zeros(bias))
        v = np.zeros((2, 4, 4, 2))
        with pytest.raises(ValueError, match=match):
            fuse_and_upsample(v, v, w)

    def test_rejects_3d_volumes(self):
        """``upsample2x`` rejects volumes of the wrong rank."""
        w = seeded_upsample(4, channels=2)
        v = np.zeros((2, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="input must have rank 4, got 3"):
            fuse_and_upsample(v, v, w)
