import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occkit.evaluate import (
    CLASS_NAMES,
    DECODE_BLOCK,
    EMPTY_CLASS,
    N_CLASSES,
    argmax_decode,
    confusion_matrix,
    miou,
    per_class_iou,
)
from support import traced_peak


def hand_counted_grids():
    """4x4x1 grids with two semantic classes and hand-counted overlaps.

    Class 1: gt cells {0,1,2,3}, pred cells {1,2,3,4,5} -> I=3, U=6 -> 0.5.
    Class 2: gt cells {6,7,8}, pred cells {6,7,9,10} -> I=2, U=5 -> 0.4.
    Everything else is empty in both.
    """
    gt = np.full(16, EMPTY_CLASS, dtype=np.uint8)
    pred = np.full(16, EMPTY_CLASS, dtype=np.uint8)
    gt[[0, 1, 2, 3]] = 1
    pred[[1, 2, 3, 4, 5]] = 1
    gt[[6, 7, 8]] = 2
    pred[[6, 7, 9, 10]] = 2
    return pred.reshape(4, 4, 1), gt.reshape(4, 4, 1)


class TestConfusionMatrix:
    def test_shape_and_total(self):
        rng = np.random.default_rng(0)
        gt = rng.integers(0, N_CLASSES, (5, 5, 2), dtype=np.int64)
        pred = rng.integers(0, N_CLASSES, (5, 5, 2), dtype=np.int64)
        cm = confusion_matrix(pred, gt)
        assert cm.shape == (N_CLASSES, N_CLASSES)
        assert cm.sum() == gt.size

    def test_rows_are_ground_truth(self):
        gt = np.array([3, 3, 3], dtype=np.uint8)
        pred = np.array([3, 5, 5], dtype=np.uint8)
        cm = confusion_matrix(pred, gt)
        assert cm[3, 3] == 1
        assert cm[3, 5] == 2
        assert cm.sum() == 3

    def test_matches_loop_count(self):
        rng = np.random.default_rng(1)
        gt = rng.integers(0, N_CLASSES, 200, dtype=np.int64)
        pred = rng.integers(0, N_CLASSES, 200, dtype=np.int64)
        cm = confusion_matrix(pred, gt)
        want = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        for g, p in zip(gt, pred):
            want[g, p] += 1
        np.testing.assert_array_equal(cm, want)

    def test_mask_restricts_counting(self):
        gt = np.array([1, 2, 3], dtype=np.uint8)
        pred = np.array([1, 1, 1], dtype=np.uint8)
        mask = np.array([True, False, True])
        cm = confusion_matrix(pred, gt, mask)
        assert cm.sum() == 2
        assert cm[1, 1] == 1
        assert cm[3, 1] == 1

    @pytest.mark.parametrize("bad", [0.5, np.nan, 2.0], ids=["half", "nan", "two"])
    def test_rejects_mask_values_other_than_0_and_1(self, bad):
        labels = np.zeros(3, dtype=np.uint8)
        mask = np.array([1.0, 0.0, bad])
        with pytest.raises(ValueError, match="mask of dtype float64 must hold only 0 and 1"):
            confusion_matrix(labels, labels, mask)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, bool])
    def test_accepts_0_1_masks(self, dtype):
        gt = np.array([1, 2, 3], dtype=np.uint8)
        pred = np.array([1, 1, 1], dtype=np.uint8)
        mask = np.array([1, 0, 1], dtype=dtype)
        want = confusion_matrix(pred, gt, np.array([True, False, True]))
        np.testing.assert_array_equal(confusion_matrix(pred, gt, mask), want)

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integer"):
            confusion_matrix(np.zeros(4), np.zeros(4, dtype=np.uint8))

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError, match="ids"):
            confusion_matrix(
                np.array([18], dtype=np.int64), np.array([0], dtype=np.int64)
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion_matrix(
                np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8)
            )


class TestPerClassIou:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(2)
        gt = rng.integers(0, N_CLASSES, (6, 6, 2), dtype=np.int64)
        ious = per_class_iou(gt, gt)
        present = np.unique(gt)
        for c in range(N_CLASSES):
            if c in present:
                assert ious[c] == 1.0
            else:
                assert np.isnan(ious[c])

    def test_disjoint_prediction(self):
        gt = np.full((4, 4), 1, dtype=np.uint8)
        pred = np.full((4, 4), 2, dtype=np.uint8)
        ious = per_class_iou(pred, gt)
        assert ious[1] == 0.0
        assert ious[2] == 0.0

    def test_hand_counted_case(self):
        pred, gt = hand_counted_grids()
        ious = per_class_iou(pred, gt)
        assert ious[1] == pytest.approx(0.5, abs=1e-15)
        assert ious[2] == pytest.approx(0.4, abs=1e-15)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        gt = rng.integers(0, 4, (5, 5), dtype=np.int64)
        pred = rng.integers(0, 4, (5, 5), dtype=np.int64)
        a = per_class_iou(pred, gt)
        b = per_class_iou(gt, pred)
        np.testing.assert_array_equal(np.nan_to_num(a, nan=-1), np.nan_to_num(b, nan=-1))

    def test_mask_locality(self):
        # flipping voxels outside the mask never moves the score
        rng = np.random.default_rng(4)
        gt = rng.integers(0, 6, (6, 6), dtype=np.int64)
        pred = rng.integers(0, 6, (6, 6), dtype=np.int64)
        mask = rng.random((6, 6)) < 0.5
        base = per_class_iou(pred, gt, mask)
        scrambled = pred.copy()
        scrambled[~mask] = (scrambled[~mask] + 3) % 6
        after = per_class_iou(scrambled, gt, mask)
        np.testing.assert_array_equal(
            np.nan_to_num(base, nan=-1), np.nan_to_num(after, nan=-1)
        )

    def test_permutation_relabeling(self):
        # relabeling classes by a permutation permutes the per-class scores
        rng = np.random.default_rng(5)
        gt = rng.integers(0, N_CLASSES, 300, dtype=np.int64)
        pred = rng.integers(0, N_CLASSES, 300, dtype=np.int64)
        perm = rng.permutation(N_CLASSES)
        base = per_class_iou(pred, gt)
        relabeled = per_class_iou(perm[pred], perm[gt])
        np.testing.assert_allclose(relabeled[perm], base, atol=1e-15)


class TestMiou:
    def test_perfect_is_one(self):
        rng = np.random.default_rng(6)
        gt = rng.integers(0, N_CLASSES, (6, 6, 2), dtype=np.int64)
        assert miou(per_class_iou(gt, gt)) == 1.0

    def test_disjoint_is_zero(self):
        gt = np.full((4, 4), 1, dtype=np.uint8)
        pred = np.full((4, 4), 2, dtype=np.uint8)
        assert miou(per_class_iou(pred, gt)) == 0.0

    def test_hand_counted_case_is_exactly_045(self):
        pred, gt = hand_counted_grids()
        assert miou(per_class_iou(pred, gt)) == 0.45

    def test_nan_classes_skipped(self):
        ious = np.full(N_CLASSES, np.nan)
        ious[1] = 0.6
        ious[2] = 0.2
        assert miou(ious) == pytest.approx(0.4, abs=1e-15)

    def test_empty_class_excluded_by_default(self):
        pred, gt = hand_counted_grids()
        ious = per_class_iou(pred, gt)
        assert not np.isnan(ious[EMPTY_CLASS])
        others = np.delete(ious, EMPTY_CLASS)
        assert miou(ious) == pytest.approx(np.nanmean(others), abs=1e-15)
        assert miou(ious) != pytest.approx(np.nanmean(ious), abs=1e-15)

    def test_all_nan_returns_nan(self):
        assert np.isnan(miou(np.full(N_CLASSES, np.nan)))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="per-class"):
            miou(np.zeros(17))


class TestArgmaxDecode:
    def test_picks_largest_channel(self):
        logits = np.zeros((N_CLASSES, 2, 2, 1), dtype=np.float32)
        logits[7, 0, 0, 0] = 5.0
        logits[EMPTY_CLASS, 1, 1, 0] = 3.0
        out = argmax_decode(logits)
        assert out.dtype == np.uint8
        assert out[0, 0, 0] == 7
        assert out[1, 1, 0] == EMPTY_CLASS
        assert out[0, 1, 0] == 0

    def test_ties_go_to_lower_index(self):
        logits = np.ones((N_CLASSES, 3), dtype=np.float32)
        np.testing.assert_array_equal(argmax_decode(logits), np.zeros(3, dtype=np.uint8))

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError, match="channels"):
            argmax_decode(np.zeros((17, 2, 2)))

    # Logit values a decode must rank as np.argmax does: ties, signed
    # zeros, infinities and NaN, which wins wherever it first occurs.
    _SPECIALS = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from(
            [0, 1, DECODE_BLOCK - 1, DECODE_BLOCK, DECODE_BLOCK + 1,
             2 * DECODE_BLOCK, 2 * DECODE_BLOCK + 37]
        ) | st.integers(0, 3 * DECODE_BLOCK),
        special_frac=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_argmax(self, n, special_frac, dtype, seed):
        """Any flattened size (below, at, past and off a multiple of the
        block) decodes to the ids of ``np.argmax(axis=0)``: small integer
        logits make ties, and a share of them become special values."""
        rng = np.random.default_rng(seed)
        logits = rng.integers(-2, 3, (N_CLASSES, n)).astype(dtype)
        special = rng.random(logits.shape) < special_frac
        logits[special] = rng.choice(self._SPECIALS, int(special.sum()))
        want = np.argmax(logits, axis=0).astype(np.uint8)
        for shaped in (logits, logits.reshape(N_CLASSES, 1, n, 1)):
            got = argmax_decode(shaped)
            assert got.dtype == np.uint8 and got.shape == shaped.shape[1:]
            np.testing.assert_array_equal(got.reshape(-1), want)

    def test_non_contiguous_logits(self):
        logits = np.random.default_rng(3).standard_normal((5, 7, N_CLASSES)).T
        np.testing.assert_array_equal(
            argmax_decode(logits), np.argmax(logits, axis=0).astype(np.uint8)
        )

    def test_makes_no_copy_of_the_logits(self):
        """The decode's traced peak stays well under the logits' size:
        ``np.argmax`` over the whole axis would first copy them all."""
        logits = np.random.default_rng(4).standard_normal(
            (N_CLASSES, 100, 100, 16)
        ).astype(np.float32)
        pred, peak = traced_peak(argmax_decode, logits)
        np.testing.assert_array_equal(pred, np.argmax(logits, axis=0).astype(np.uint8))
        assert peak <= logits.nbytes // 8


def test_class_names_cover_all_ids():
    assert len(CLASS_NAMES) == N_CLASSES
    assert CLASS_NAMES[0] == "others"
    assert CLASS_NAMES[EMPTY_CLASS] == "empty"
