"""Semantic occupancy metrics.

Predictions and labels are dense voxel grids of class ids over 18 classes:
index 0 is the catch-all "others" class, 1..16 are the named semantic
categories, and 17 marks empty space. Scoring is restricted to voxels the
cameras could actually observe via a visibility mask.
"""

from __future__ import annotations

import numpy as np

N_CLASSES = 18
EMPTY_CLASS = 17

CLASS_NAMES = ["others"] + [f"class_{i}" for i in range(1, 17)] + ["empty"]


def _check_labels(arr: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(arr)
    if a.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer class ids, got {a.dtype}")
    if a.size and (a.min() < 0 or a.max() >= N_CLASSES):
        raise ValueError(
            f"{name} ids must lie in [0, {N_CLASSES - 1}], got "
            f"[{a.min()}, {a.max()}]"
        )
    return a


def confusion_matrix(
    pred: np.ndarray, gt: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """(N_CLASSES, N_CLASSES) counts, rows = ground truth, cols = prediction."""
    p = _check_labels(pred, "pred")
    g = _check_labels(gt, "gt")
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: pred {p.shape}, gt {g.shape}")
    if mask is not None:
        m = np.asarray(mask)
        if m.shape != p.shape:
            raise ValueError(f"mask shape {m.shape} != label shape {p.shape}")
        if m.dtype != bool and not ((m == 0) | (m == 1)).all():
            raise ValueError(f"mask of dtype {m.dtype} must hold only 0 and 1")
        m = m.astype(bool)
        p, g = p[m], g[m]
    joint = g.astype(np.int64) * N_CLASSES + p.astype(np.int64)
    counts = np.bincount(joint.ravel(), minlength=N_CLASSES * N_CLASSES)
    return counts.reshape(N_CLASSES, N_CLASSES)


def per_class_iou(
    pred: np.ndarray, gt: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Intersection over union per class, NaN where a class never occurs.

    A class absent from both prediction and ground truth (within the mask)
    has an empty union; it is reported as NaN so averages can skip it.
    """
    cm = confusion_matrix(pred, gt, mask)
    inter = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - inter
    iou = np.full(N_CLASSES, np.nan)
    nz = union > 0
    iou[nz] = inter[nz] / union[nz]
    return iou


def miou(ious: np.ndarray) -> float:
    """Mean of the defined per-class IoUs.

    The empty class and NaN entries (classes absent from the scene) never
    count. Returns NaN if nothing is defined.
    """
    ious = np.asarray(ious, dtype=np.float64)
    if ious.shape != (N_CLASSES,):
        raise ValueError(f"expected {N_CLASSES} per-class IoUs, got {ious.shape}")
    chosen = np.delete(ious, EMPTY_CLASS)
    if np.isnan(chosen).all():
        return float("nan")
    return float(np.nanmean(chosen))


# Voxels per ``argmax_decode`` block: the block's (N_CLASSES, columns)
# float32 copy, 576 KB, stays in cache.
DECODE_BLOCK = 8192


def argmax_decode(logits: np.ndarray) -> np.ndarray:
    """Class ids from (N_CLASSES, ...) logits; ties go to the lower index.

    The ids are those of ``np.argmax(logits, axis=0).astype(np.uint8)``,
    NaN included (the first NaN wins), but are decoded ``DECODE_BLOCK``
    voxels at a time into one uint8 array: ``np.argmax`` over the whole
    axis would first copy all the logits into a transposed layout. Logits
    that are not C-contiguous are flattened by one copy."""
    if logits.shape[0] != N_CLASSES:
        raise ValueError(
            f"logits must have {N_CLASSES} leading channels, got {logits.shape[0]}"
        )
    flat = logits.reshape(N_CLASSES, -1)
    n = flat.shape[1]
    out = np.empty(n, dtype=np.uint8)
    ids = np.empty(min(n, DECODE_BLOCK), dtype=np.intp)
    for a in range(0, n, DECODE_BLOCK):
        b = min(a + DECODE_BLOCK, n)
        np.argmax(flat[:, a:b], axis=0, out=ids[: b - a])
        out[a:b] = ids[: b - a]
    return out.reshape(logits.shape[1:])
