import numpy as np
import pytest

from occkit.reparam import BatchNormParams, ConvBranchSpec, dilate_to_sparse
from occkit.tensor import (
    ConvSpec,
    cast,
    conv2d,
    conv3d,
    rng_named,
    softmax,
    uniform_init,
    upsample2x_transpose2d,
    upsample2x_transpose3d,
)


def conv3d_loops(x, weight, bias, spec):
    """Nested-loop direct convolution, independent of the vectorized path."""
    c_out, c_in, kx, ky, kz = weight.shape
    ox, oy, oz = spec.output_extents(x.shape[1:])
    px, py, pz = spec.padding
    sx, sy, sz = spec.stride
    dx, dy, dz = spec.dilation
    out = np.zeros((c_out, ox, oy, oz), dtype=np.float64)
    for o in range(c_out):
        for i in range(ox):
            for j in range(oy):
                for k in range(oz):
                    acc = 0.0
                    for c in range(c_in):
                        for a in range(kx):
                            for b in range(ky):
                                for d in range(kz):
                                    xi = i * sx + a * dx - px
                                    yj = j * sy + b * dy - py
                                    zk = k * sz + d * dz - pz
                                    if (
                                        0 <= xi < x.shape[1]
                                        and 0 <= yj < x.shape[2]
                                        and 0 <= zk < x.shape[3]
                                    ):
                                        acc += x[c, xi, yj, zk] * weight[o, c, a, b, d]
                    out[o, i, j, k] = acc
                    if bias is not None:
                        out[o, i, j, k] += bias[o]
    return out


def conv2d_loops(x, weight, bias, spec):
    c_out, c_in, kh, kw = weight.shape
    oh, ow = spec.output_extents(x.shape[1:])
    ph, pw = spec.padding
    sh, sw = spec.stride
    dh, dw = spec.dilation
    out = np.zeros((c_out, oh, ow), dtype=np.float64)
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            xi = i * sh + a * dh - ph
                            yj = j * sw + b * dw - pw
                            if 0 <= xi < x.shape[1] and 0 <= yj < x.shape[2]:
                                acc += x[c, xi, yj] * weight[o, c, a, b]
                out[o, i, j] = acc
                if bias is not None:
                    out[o, i, j] += bias[o]
    return out


class TestConvSpec:
    def test_defaults(self):
        spec = ConvSpec(kernel=(3, 3, 1))
        assert spec.dilation == (1, 1, 1)
        assert spec.stride == (1, 1, 1)
        assert spec.padding == (0, 0, 0)

    def test_effective_extents(self):
        spec = ConvSpec(kernel=(3, 5, 1), dilation=(3, 2, 1))
        assert spec.effective == (7, 9, 1)

    def test_same_preserves_extents(self):
        spec = ConvSpec.same((3, 3, 1))
        assert spec.output_extents((8, 9, 4)) == (8, 9, 4)

    def test_same_rejects_even_effective(self):
        with pytest.raises(ValueError, match="odd effective"):
            ConvSpec.same((2, 3, 1))

    def test_output_extents_formula(self):
        spec = ConvSpec(kernel=(3, 3, 3), stride=(2, 2, 2), padding=(1, 1, 1))
        assert spec.output_extents((8, 8, 8)) == (4, 4, 4)

    def test_kernel_never_fits(self):
        spec = ConvSpec(kernel=(5, 1, 1))
        with pytest.raises(ValueError, match="does not fit"):
            spec.output_extents((3, 3, 3))

    @pytest.mark.parametrize("bad", [{"kernel": (0, 1, 1)}, {"kernel": (3,), "dilation": (0,)}, {"kernel": (3,), "stride": (0,)}, {"kernel": (3,), "padding": (-1,)}])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            ConvSpec(**bad)


class TestConv3d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 5, 2)).astype(np.float32)
        w = np.zeros((3, 3, 1, 1, 1), dtype=np.float32)
        for c in range(3):
            w[c, c, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(conv3d(x, w), x)

    def test_delta_input_reads_kernel(self):
        x = np.zeros((1, 5, 5, 1), dtype=np.float64)
        x[0, 2, 2, 0] = 1.0
        rng = np.random.default_rng(1)
        w = rng.standard_normal((1, 1, 3, 3, 1))
        y = conv3d(x, w, spec=ConvSpec.same((3, 3, 1)))
        # the delta copies the kernel, flipped by cross-correlation indexing
        np.testing.assert_allclose(y[0, 1:4, 1:4, 0], w[0, 0, ::-1, ::-1, 0])

    @pytest.mark.parametrize(
        "dilation,stride,padding",
        [
            ((1, 1, 1), (1, 1, 1), (0, 0, 0)),
            ((1, 1, 1), (1, 1, 1), (1, 1, 1)),
            ((2, 1, 1), (1, 1, 1), (2, 0, 0)),
            ((1, 2, 1), (2, 1, 1), (1, 2, 0)),
            ((2, 2, 2), (1, 1, 1), (2, 2, 2)),
        ],
    )
    def test_matches_nested_loop_oracle(self, dilation, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 4, 4, 4))
        w = rng.standard_normal((3, 2, 2, 2, 2))
        b = rng.standard_normal(3)
        spec = ConvSpec(kernel=(2, 2, 2), dilation=dilation, stride=stride, padding=padding)
        got = conv3d(x, w, b, spec)
        want = conv3d_loops(x, w, b, spec)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_dilated_equals_sparse_kernel_f64(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 9, 9, 5))
        w = rng.standard_normal((2, 2, 3, 3, 1))
        dense = conv3d(x, w, spec=ConvSpec(kernel=(3, 3, 1), dilation=(2, 2, 1)))
        sparse = dilate_to_sparse(w, (2, 2, 1))
        same = conv3d(x, sparse, spec=ConvSpec(kernel=(5, 5, 1)))
        np.testing.assert_array_equal(dense, same)

    def test_dilated_equals_sparse_kernel_f32(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 9, 9, 5)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3, 1)).astype(np.float32)
        dense = conv3d(x, w, spec=ConvSpec(kernel=(3, 3, 1), dilation=(2, 2, 1)))
        sparse = dilate_to_sparse(w, (2, 2, 1))
        same = conv3d(x, sparse, spec=ConvSpec(kernel=(5, 5, 1)))
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(dense - same)) <= 1e-5 * scale

    def test_linear_in_input(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 5, 5, 3))
        y = rng.standard_normal((2, 5, 5, 3))
        w = rng.standard_normal((2, 2, 3, 3, 3))
        spec = ConvSpec.same((3, 3, 3))
        lhs = conv3d(2.0 * x + 3.0 * y, w, spec=spec)
        rhs = 2.0 * conv3d(x, w, spec=spec) + 3.0 * conv3d(y, w, spec=spec)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5 * np.max(np.abs(lhs)))

    def test_shape_mismatch_errors(self):
        x = np.zeros((2, 4, 4, 4), dtype=np.float32)
        w = np.zeros((3, 3, 1, 1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="channel mismatch"):
            conv3d(x, w)
        with pytest.raises(ValueError, match="dtype"):
            conv3d(x, np.zeros((3, 2, 1, 1, 1), dtype=np.float64))


class TestConv2d:
    @pytest.mark.parametrize(
        "stride,padding", [((1, 1), (0, 0)), ((1, 1), (1, 1)), ((2, 2), (1, 1))]
    )
    def test_matches_nested_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6, 6))
        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        spec = ConvSpec(kernel=(3, 3), stride=stride, padding=padding)
        np.testing.assert_allclose(
            conv2d(x, w, b, spec), conv2d_loops(x, w, b, spec), atol=1e-12
        )


class TestSoftmax:
    def test_uniform_logits(self):
        x = np.zeros((8, 3))
        np.testing.assert_allclose(softmax(x, axis=0), np.full((8, 3), 0.125))

    def test_saturation(self):
        y = softmax(np.array([0.0, 60.0]), axis=0)
        assert y[0] == pytest.approx(0.0, abs=1e-20)
        assert y[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5, 6))
        want = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(softmax(x, axis=1), want, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-50, 50, (3, 9))
        np.testing.assert_allclose(softmax(x, axis=1).sum(axis=1), 1.0, atol=1e-6)

    def test_large_logits_stable(self):
        y = softmax(np.array([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(y, [0.5, 0.5])


class TestUpsample2x:
    def test_extents_double(self):
        x = np.zeros((1, 100, 100, 8), dtype=np.float32)
        w = np.zeros((1, 1, 2, 2, 2), dtype=np.float32)
        assert upsample2x_transpose3d(x, w).shape == (1, 200, 200, 16)

    def test_constant_input_all_ones_kernel(self):
        x = np.full((1, 3, 3, 3), 4.0)
        w = np.ones((1, 1, 2, 2, 2))
        np.testing.assert_array_equal(
            upsample2x_transpose3d(x, w), np.full((1, 6, 6, 6), 4.0)
        )

    def test_block_expansion_oracle_3d(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 3, 4, 2))
        w = rng.standard_normal((3, 2, 2, 2, 2))
        b = rng.standard_normal(2)
        want = np.zeros((2, 6, 8, 4))
        for o in range(2):
            for i in range(3):
                for xx in range(3):
                    for yy in range(4):
                        for zz in range(2):
                            for a in range(2):
                                for bb in range(2):
                                    for c in range(2):
                                        want[o, 2 * xx + a, 2 * yy + bb, 2 * zz + c] += (
                                            x[i, xx, yy, zz] * w[i, o, a, bb, c]
                                        )
        want += b[:, None, None, None]
        np.testing.assert_allclose(upsample2x_transpose3d(x, w, b), want, atol=1e-12)

    def test_block_expansion_oracle_2d(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 5))
        w = rng.standard_normal((2, 4, 2, 2))
        want = np.zeros((4, 6, 10))
        for o in range(4):
            for i in range(2):
                for xx in range(3):
                    for yy in range(5):
                        for a in range(2):
                            for bb in range(2):
                                want[o, 2 * xx + a, 2 * yy + bb] += (
                                    x[i, xx, yy] * w[i, o, a, bb]
                                )
        np.testing.assert_allclose(upsample2x_transpose2d(x, w), want, atol=1e-12)

    def test_rejects_wrong_kernel(self):
        x = np.zeros((1, 4, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="extents"):
            upsample2x_transpose3d(x, np.zeros((1, 1, 3, 3, 3), dtype=np.float32))


class TestRng:
    def test_named_streams_reproducible(self):
        a = rng_named(42, "alpha").standard_normal(8)
        b = rng_named(42, "alpha").standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_named_streams_decorrelated(self):
        a = rng_named(42, "alpha").standard_normal(8)
        b = rng_named(42, "beta").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = rng_named(1, "alpha").standard_normal(8)
        b = rng_named(2, "alpha").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_uniform_init_bounds(self):
        w = uniform_init(rng_named(0, "w"), (64, 64), fan_in=16)
        assert w.dtype == np.float32
        assert np.max(np.abs(w)) <= 0.25


class TestCast:
    def test_nested_dataclass(self):
        rng = np.random.default_rng(0)
        branch = ConvBranchSpec(
            rng.standard_normal((2, 1, 3, 3, 1)).astype(np.float32),
            (2, 2, 1),
            BatchNormParams.identity(2),
        )

        def arrays(b):
            return [b.weight, b.bn.mean, b.bn.std, b.bn.gamma, b.bn.beta]

        wide = cast(branch, np.float64)
        assert wide.dilation == (2, 2, 1)
        assert all(a.dtype == np.float64 for a in arrays(wide))
        same = cast(branch, np.float32)
        assert all(a is b for a, b in zip(arrays(same), arrays(branch)))
