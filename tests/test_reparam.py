import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occkit.reparam import (
    BatchNormParams,
    ConvBranchSpec,
    apply_bn,
    default_branch_extents,
    dilate_to_sparse,
    forward_deploy,
    forward_train,
    fuse_bn,
    merge_branches,
    random_branch_set,
)
from occkit.tensor import Conv, conv, effective_extents
from support import cast, conv_untiled


def identity_bn(channels, dtype=np.float32):
    """Batch norm that passes its input through: zero mean, unit std and
    gamma, zero beta."""
    return BatchNormParams(
        mean=np.zeros(channels, dtype=dtype),
        std=np.ones(channels, dtype=dtype),
        gamma=np.ones(channels, dtype=dtype),
        beta=np.zeros(channels, dtype=dtype),
    )


def merged_kernel_loops(branches, target):
    """Index-mapping oracle: place every fused tap at its centered offset."""
    c_out, c_in = branches[0].weight.shape[:2]
    weight = np.zeros((c_out, c_in) + tuple(target), dtype=np.float64)
    bias = np.zeros(c_out, dtype=np.float64)
    for br in branches:
        scale = br.bn.gamma.astype(np.float64) / br.bn.std.astype(np.float64)
        off = [(t - e) // 2 for t, e in zip(target, br.effective)]
        kx, ky, kz = br.kernel
        rx, ry, rz = br.dilation
        for o in range(c_out):
            for c in range(c_in):
                for a in range(kx):
                    for b in range(ky):
                        for d in range(kz):
                            weight[o, c, off[0] + a * rx, off[1] + b * ry, off[2] + d * rz] += (
                                float(br.weight[o, c, a, b, d]) * scale[o]
                            )
        bias += br.bn.beta.astype(np.float64) - br.bn.mean.astype(np.float64) * scale
    return weight, bias


def _same_conv3d(x, weight, dilation, bias=None):
    """The branch and merged conv as reparam ran it before the conv padded
    itself: floor((eff-1)/2) zeros low and the remainder high, padded
    outside, then an unpadded conv (here the untiled GEMM oracle)."""
    eff = tuple((k - 1) * d + 1 for k, d in zip(weight.shape[2:], dilation))
    lo = tuple((e - 1) // 2 for e in eff)
    hi = tuple(e - 1 - l for e, l in zip(eff, lo))
    xp = np.pad(x, [(0, 0)] + list(zip(lo, hi)))
    return conv_untiled(xp, weight, bias, dilation, (1, 1, 1))


class TestDilateToSparse:
    def test_unit_dilation_identity(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((2, 2, 3, 3, 1)).astype(np.float32)
        np.testing.assert_array_equal(dilate_to_sparse(w, (1, 1, 1)), w)

    def test_unit_dilation_keeps_float64(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((2, 2, 3, 3, 1))
        out = dilate_to_sparse(w, (1, 1, 1))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, w)

    def test_extents(self):
        w = np.ones((1, 1, 3, 3, 1), dtype=np.float32)
        assert dilate_to_sparse(w, (2, 2, 1)).shape == (1, 1, 5, 5, 1)

    def test_zero_insertion_positions(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((1, 1, 3, 3, 1))
        out = dilate_to_sparse(w, (2, 2, 1))
        assert out.shape == (1, 1, 5, 5, 1)
        np.testing.assert_array_equal(out[0, 0, ::2, ::2, 0], w[0, 0, :, :, 0])
        mask = np.ones((5, 5), dtype=bool)
        mask[::2, ::2] = False
        assert (out[0, 0, :, :, 0][mask] == 0).all()

    def test_index_mapping_oracle(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((2, 3, 2))
        out = dilate_to_sparse(w, (3, 2, 2))
        want = np.zeros((4, 5, 3))
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    want[3 * i, 2 * j, 2 * k] = w[i, j, k]
        np.testing.assert_array_equal(out, want)

    def test_conv_agrees_with_dense_dilation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 10, 10, 6))
        w = rng.standard_normal((3, 2, 3, 3, 3))
        direct = conv(x, w, dilation=(2, 2, 2))
        sparse = dilate_to_sparse(w, (2, 2, 2))
        assert sparse.shape[2:] == effective_extents(w.shape[2:], (2, 2, 2))
        via_sparse = conv(x, sparse)
        np.testing.assert_array_equal(direct, via_sparse)


class TestFuseBn:
    def test_identity_norm(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 2, 3, 3, 1)).astype(np.float32)
        fw, fb = fuse_bn(w, identity_bn(3))
        np.testing.assert_array_equal(fw, w)
        np.testing.assert_array_equal(fb, np.zeros(3, dtype=np.float32))

    def test_scalar_hand_case(self):
        w = np.full((1, 1, 1, 1, 1), 2.0)
        bn = BatchNormParams(
            mean=np.array([1.0]),
            std=np.array([1.5]),
            gamma=np.array([3.0]),
            beta=np.array([0.5]),
        )
        fw, fb = fuse_bn(w, bn)
        assert fw[0, 0, 0, 0, 0] == pytest.approx(4.0)
        assert fb[0] == pytest.approx(-1.5)

    def test_conv_then_norm_equals_fused(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 6, 6, 4))
        w = rng.standard_normal((3, 2, 3, 3, 1))
        bn = BatchNormParams(
            mean=rng.standard_normal(3),
            std=rng.uniform(0.5, 2.0, 3),
            gamma=rng.standard_normal(3),
            beta=rng.standard_normal(3),
        )
        sequential = apply_bn(conv(x, w), bn)
        fw, fb = fuse_bn(w, bn)
        fused = conv(x, fw, fb)
        np.testing.assert_allclose(sequential, fused, atol=1e-12)

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValueError, match="strictly positive"):
            BatchNormParams(
                mean=np.zeros(2),
                std=np.array([1.0, 0.0]),
                gamma=np.ones(2),
                beta=np.zeros(2),
            )


class TestMergeBranches:
    def test_singleton_identity_merge(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((2, 2, 5, 5, 1)).astype(np.float32)
        branch = ConvBranchSpec(w, (1, 1, 1), identity_bn(2))
        merged = merge_branches([branch], (5, 5, 1))
        np.testing.assert_array_equal(merged.weight, w)
        np.testing.assert_array_equal(merged.bias, np.zeros(2, dtype=np.float32))

    def test_three_branch_layout(self):
        branches = random_branch_set(0, c_in=2, c_out=2, target=(11, 11, 1))
        assert [b.kernel for b in branches] == [(11, 11, 1), (5, 5, 1), (3, 3, 1)]
        assert [b.effective for b in branches] == [(11, 11, 1), (9, 9, 1), (7, 7, 1)]
        merged = merge_branches(branches, (11, 11, 1))
        assert merged.weight.shape[2:] == (11, 11, 1)

    def test_matches_index_mapping_oracle(self):
        for seed in range(3):
            branches = [
                cast(b, np.float64)
                for b in random_branch_set(seed, c_in=2, c_out=3, target=(7, 7, 3))
            ]
            merged = merge_branches(branches, (7, 7, 3))
            want_w, want_b = merged_kernel_loops(branches, (7, 7, 3))
            np.testing.assert_allclose(merged.weight, want_w, atol=1e-12)
            np.testing.assert_allclose(merged.bias, want_b, atol=1e-12)

    def test_permutation_invariant(self):
        branches = [
            cast(b, np.float64)
            for b in random_branch_set(5, c_in=2, c_out=2, target=(9, 9, 1))
        ]
        a = merge_branches(branches, (9, 9, 1))
        b = merge_branches(branches[::-1], (9, 9, 1))
        np.testing.assert_allclose(a.weight, b.weight, atol=1e-12)
        np.testing.assert_allclose(a.bias, b.bias, atol=1e-12)

    def test_linear_in_branch_weight(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((2, 2, 3, 3, 1))
        bn = identity_bn(2, dtype=np.float64)
        one = merge_branches([ConvBranchSpec(w, (1, 1, 1), bn)], (5, 5, 1))
        two = merge_branches([ConvBranchSpec(2.0 * w, (1, 1, 1), bn)], (5, 5, 1))
        np.testing.assert_allclose(two.weight, 2.0 * one.weight, atol=1e-12)

    def test_rejects_oversized_branch(self):
        w = np.zeros((1, 1, 7, 7, 1), dtype=np.float32)
        branch = ConvBranchSpec(w, (1, 1, 1), identity_bn(1))
        with pytest.raises(ValueError, match="exceeds target"):
            merge_branches([branch], (5, 5, 1))

    def test_rejects_parity_mismatch(self):
        w = np.zeros((1, 1, 2, 3, 1), dtype=np.float32)
        branch = ConvBranchSpec(w, (1, 1, 1), identity_bn(1))
        with pytest.raises(ValueError, match="parity"):
            merge_branches([branch], (5, 5, 1))

    def test_even_extents_matching_parity_allowed(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((1, 1, 2, 2, 2))
        branch = ConvBranchSpec(w, (1, 1, 1), identity_bn(1, np.float64))
        merged = merge_branches([branch], (4, 4, 2))
        assert merged.weight.shape[2:] == (4, 4, 2)
        x = rng.standard_normal((1, 6, 6, 4))
        np.testing.assert_allclose(
            forward_train(x, [branch]), forward_deploy(x, merged), atol=1e-12
        )


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_f32(self, seed):
        branches = random_branch_set(seed, c_in=4, c_out=4, target=(7, 7, 3))
        merged = merge_branches(branches, (7, 7, 3))
        rng = np.random.default_rng(seed + 100)
        x = rng.uniform(-1, 1, (4, 10, 10, 6)).astype(np.float32)
        diff = np.abs(forward_train(x, branches) - forward_deploy(x, merged))
        assert float(diff.max()) <= 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_f64(self, seed):
        branches = [
            cast(b, np.float64)
            for b in random_branch_set(seed, c_in=4, c_out=4, target=(7, 7, 3))
        ]
        merged = merge_branches(branches, (7, 7, 3))
        rng = np.random.default_rng(seed + 200)
        x = rng.uniform(-1, 1, (4, 10, 10, 6))
        diff = np.abs(forward_train(x, branches) - forward_deploy(x, merged))
        assert float(diff.max()) <= 1e-10

    def test_full_kernel_config(self):
        branches = [
            cast(b, np.float64)
            for b in random_branch_set(9, c_in=3, c_out=3, target=(11, 11, 1))
        ]
        merged = merge_branches(branches, (11, 11, 1))
        rng = np.random.default_rng(300)
        x = rng.uniform(-1, 1, (3, 16, 16, 4))
        diff = np.abs(forward_train(x, branches) - forward_deploy(x, merged))
        assert float(diff.max()) <= 1e-10

    def test_output_extents_preserved(self):
        branches = random_branch_set(1, c_in=2, c_out=5, target=(11, 11, 1))
        x = np.zeros((2, 9, 13, 4), dtype=np.float32)
        assert forward_train(x, branches).shape == (5, 9, 13, 4)
        assert forward_deploy(x, merge_branches(branches, (11, 11, 1))).shape == (
            5,
            9,
            13,
            4,
        )


class TestSameConvOracle:
    """Both forwards give the bytes of padding outside the conv. The input's
    64x8 rows make the 11x11x1 convs run one-row slabs that read their taps
    in place; the 4x4x2 set pads z, and its even extents put their extra
    zero high."""

    @pytest.mark.parametrize(
        "target,layouts",
        [
            ((11, 11, 1), None),
            ((4, 4, 2), [((4, 4, 2), (1, 1, 1)), ((2, 2, 2), (1, 1, 1))]),
        ],
        ids=["default-11x11x1", "even-4x4x2"],
    )
    def test_forwards_match_same_conv3d(self, target, layouts):
        branches = random_branch_set(3, 32, 32, target, extents=layouts)
        merged = merge_branches(branches, target)
        x = np.random.default_rng(4).uniform(-1, 1, (32, 8, 64, 8)).astype(np.float32)
        want = None
        for b in branches:
            y = apply_bn(_same_conv3d(x, b.weight, b.dilation), b.bn)
            want = y if want is None else np.add(want, y, out=want)
        assert forward_train(x, branches).tobytes() == want.tobytes()
        want = _same_conv3d(x, merged.weight, (1, 1, 1), merged.bias)
        assert forward_deploy(x, merged).tobytes() == want.tobytes()


@st.composite
def branch_layouts(draw):
    """A target kernel and one to three branch (kernel, dilation) layouts
    that fit inside it, centred, on every axis."""
    target = tuple(draw(st.integers(1, 6)) for _ in range(3))
    fits = [
        [
            (k, d)
            for d in (1, 2, 3)
            for k in range(1, t + 1)
            if (k - 1) * d + 1 <= t and (t - (k - 1) * d - 1) % 2 == 0
        ]
        for t in target
    ]
    layouts = []
    for _ in range(draw(st.integers(1, 3))):
        kernel, dilation = zip(*(draw(st.sampled_from(f)) for f in fits))
        layouts.append((kernel, dilation))
    return target, layouts


class TestMergeEquivalenceProperty:
    """forward_train over any branch set equals forward_deploy over its
    merged kernel, for random kernels, dilations and parities."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-4), (np.float64, 1e-10)])
    @settings(max_examples=15, deadline=None)
    @given(
        case=branch_layouts(),
        extents=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5)),
        seed=st.integers(0, 2**16),
    )
    def test_train_equals_deploy(self, dtype, tol, case, extents, seed):
        target, layouts = case
        branches = random_branch_set(seed, 3, 3, target, extents=layouts, dtype=dtype)
        merged = merge_branches(branches, target)
        x = np.random.default_rng(seed).uniform(-1, 1, (3,) + extents).astype(dtype)
        train, deploy = forward_train(x, branches), forward_deploy(x, merged)
        assert train.shape == deploy.shape == (3,) + extents
        assert train.dtype == deploy.dtype == dtype
        assert float(np.max(np.abs(train - deploy))) <= tol


class TestDefaultBranchExtents:
    def test_standard_target(self):
        assert default_branch_extents((11, 11, 1)) == [
            ((11, 11, 1), (1, 1, 1)),
            ((5, 5, 1), (2, 2, 1)),
            ((3, 3, 1), (3, 3, 1)),
        ]

    def test_small_target_deduplicates(self):
        layouts = default_branch_extents((3, 3, 1))
        assert layouts[0] == ((3, 3, 1), (1, 1, 1))
        assert len(layouts) == len(set(layouts))

    def test_even_target_skips_unfit_layout(self):
        """No 5-tap r=2 extent sits centred in an even extent of 4, so that
        layout is left out rather than clipped to one tap."""
        assert default_branch_extents((4, 4, 1)) == [
            ((4, 4, 1), (1, 1, 1)),
            ((2, 2, 1), (3, 3, 1)),
        ]

    def test_all_layouts_fit(self):
        for target in [(11, 11, 1), (7, 7, 7), (5, 5, 3), (9, 3, 1), (4, 4, 1)]:
            for kernel, dilation in default_branch_extents(target):
                eff = tuple((k - 1) * r + 1 for k, r in zip(kernel, dilation))
                assert all(e <= t for e, t in zip(eff, target))
                assert all((t - e) % 2 == 0 for e, t in zip(eff, target))


class TestValidation:
    def test_branch_rejects_bad_dilation(self):
        w = np.zeros((1, 1, 3, 3, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="dilation"):
            ConvBranchSpec(w, (0, 1, 1), identity_bn(1))

    def test_branch_rejects_channel_mismatch(self):
        w = np.zeros((2, 1, 3, 3, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="channels"):
            ConvBranchSpec(w, (1, 1, 1), identity_bn(3))

    def test_merged_rejects_bias_shape(self):
        """The deploy conv rejects a bias that does not match the merged
        kernel's output channels."""
        merged = Conv(np.zeros((2, 2, 3, 3, 1)), np.zeros(3))
        with pytest.raises(ValueError, match=r"bias must have shape \(2,\)"):
            forward_deploy(np.zeros((2, 4, 4, 2)), merged)

    def test_merged_rejects_non_3d_weight(self):
        merged = Conv(np.zeros((2, 2, 3, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="input must have rank 3"):
            forward_deploy(np.zeros((2, 4, 4, 2)), merged)

    def test_empty_branch_list(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_branches([], (3, 3, 1))
        with pytest.raises(ValueError, match="at least one"):
            forward_train(np.zeros((1, 2, 2, 2)), [])
