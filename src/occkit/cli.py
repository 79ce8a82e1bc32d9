"""Command-line harness.

Subcommands: gen-scene (synthesize a scene bundle), run (forward pipeline
over a scene), equiv (train/deploy convolution equivalence check), bench
(before/after merge timing), eval (mIoU of saved grids), schedule (mixup
curve as CSV).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import statistics
import sys
import time

import numpy as np

from . import gsdt
from .config import parse_config
from .evaluate import CLASS_NAMES, EMPTY_CLASS, argmax_decode, miou, per_class_iou
from .pipeline import PipelineStageError, run_pipeline
from .reparam import forward_deploy, forward_train, merge_branches, random_branch_set
from .scene import gen_scene, load_scene, save_scene
from .schedule import MixupSchedule, iteration_to_x, mixup_alpha
from .tensor import rng_named

# input extents for the equivalence and benchmark convolution runs; the
# benchmark volume is fixed so timing numbers are comparable across configs
_EQUIV_EXTENTS = (16, 16, 8)
_BENCH_EXTENTS = (100, 100, 8)


def _cmd_gen_scene(args) -> int:
    config = parse_config(args.config)
    t0 = time.perf_counter()
    bundle = gen_scene(config.scene)
    gen_s = time.perf_counter() - t0
    save_scene(bundle, args.out)
    occupied = (bundle.occupancy[0] != EMPTY_CLASS).mean()
    print(f"scene written to {args.out}")
    print(
        f"  frames={bundle.n_frames} cameras={bundle.spec.n_cameras} "
        f"grid={bundle.spec.grid.counts} boxes={bundle.spec.n_boxes}"
    )
    print(f"  frame-0 occupied fraction: {occupied:.4f}")
    print(f"  generated in {gen_s:.4f} s")
    return 0


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    scene = load_scene(args.scene)
    t0 = time.perf_counter()
    logits, records = run_pipeline(config, scene, args.alpha, reparam_mode=args.mode)
    total = time.perf_counter() - t0
    print(f"logits shape: {logits.shape}  dtype: {logits.dtype}")
    print("stage timings (calls, s, last output shape and dtype):")
    for r in records:
        print(f"  {r.name:<18} {r.calls:5d} {r.seconds:9.4f}  {r.shape} {r.dtype}")
    print(f"  {'total':<24} {total:9.4f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        pred = argmax_decode(logits)
        gsdt.write(os.path.join(args.out, "logits.gsdt"), logits)
        gsdt.write(os.path.join(args.out, "pred.gsdt"), pred)
        gsdt.write(os.path.join(args.out, "gt.gsdt"), scene.occupancy[-1])
        gsdt.write(os.path.join(args.out, "mask.gsdt"), scene.visible[-1])
        print(f"wrote logits/pred/gt/mask to {args.out}")
    return 0


def _conv_forms(config, seed: int, extents: tuple, dtype, name: str):
    """The config's seeded large-kernel branch set, its merged kernel, and a
    uniform(-1, 1) input of ``extents`` drawn from the RNG stream ``name``:
    the two conv forms that ``equiv`` compares and ``bench`` times."""
    c = config.refined_channels
    branches = random_branch_set(
        seed, c, c, config.kernel, extents=config.branch_extents(), dtype=dtype
    )
    merged = merge_branches(branches, config.kernel)
    x = rng_named(seed, name).uniform(-1.0, 1.0, (c,) + extents).astype(dtype)
    return branches, merged, x


def _cmd_equiv(args) -> int:
    config = parse_config(args.config)
    extents = tuple(
        min(h, cap) for h, cap in zip(config.scene.grid.downsample(2).counts, _EQUIV_EXTENTS)
    )
    channels = config.refined_channels
    tolerances = {np.float32: 1e-4, np.float64: 1e-10}
    failed = False
    print(
        f"train/deploy equivalence: kernel {config.kernel}, "
        f"{len(config.branch_extents())} branches, C={channels}, input {extents}"
    )
    for dtype, tol in tolerances.items():
        name = np.dtype(dtype).name
        for seed in range(3):
            branches, merged, x = _conv_forms(config, seed, extents, dtype, "equiv_input")
            diff = float(
                np.max(np.abs(forward_train(x, branches) - forward_deploy(x, merged)))
            )
            ok = diff <= tol
            failed = failed or not ok
            status = "PASS" if ok else "FAIL"
            print(f"  {name:<8} seed={seed}  max_abs={diff:.3e}  tol={tol:.0e}  {status}")
    print("equivalence: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


def _median_times(fn, runs: int) -> tuple[float, float]:
    fn()  # warmup
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), min(times)


def _cmd_bench(args) -> int:
    config = parse_config(args.config)
    runs = args.runs
    if runs < 1:
        raise ValueError(f"--runs must be >= 1, got {runs}")
    branches, merged, x = _conv_forms(
        config, config.seed, _BENCH_EXTENTS, np.float32, "bench_input"
    )
    print(
        f"large-kernel conv benchmark: kernel {config.kernel}, "
        f"{len(branches)} branches, C={config.refined_channels}, input {_BENCH_EXTENTS}, "
        f"{runs} runs"
    )
    train_med, train_min = _median_times(lambda: forward_train(x, branches), runs)
    deploy_med, deploy_min = _median_times(lambda: forward_deploy(x, merged), runs)
    print(f"  {'form':<14} {'median (s)':>12} {'min (s)':>12}")
    print(f"  {'multi-branch':<14} {train_med:12.4f} {train_min:12.4f}")
    print(f"  {'merged':<14} {deploy_med:12.4f} {deploy_min:12.4f}")
    print(f"  speedup (median multi-branch / merged): {train_med / deploy_med:.3f}x")
    return 0


def _cmd_eval(args) -> int:
    pred = gsdt.read(args.pred)
    gt = gsdt.read(args.gt)
    mask = gsdt.read(args.mask)
    ious = per_class_iou(pred, gt, mask)
    print(f"{'class':<12} {'IoU':>8}")
    for name, iou in zip(CLASS_NAMES, ious):
        if np.isnan(iou):
            continue
        print(f"{name:<12} {iou:8.4f}")
    print(f"{'mIoU':<12} {miou(ious):8.4f}")
    return 0


def _cmd_schedule(args) -> int:
    schedule = MixupSchedule(
        steepness=args.r, total_iters=args.tmax, half_range=args.nalpha
    )
    # one row at a time, so a long curve never sits in memory whole
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as f:
        f.write("iter,x,alpha\n")
        for it in range(schedule.total_iters + 1):
            x = iteration_to_x(it, schedule)
            a = mixup_alpha(it, schedule)
            f.write(f"{it},{x:.10g},{a:.10g}\n")
    if args.out:
        print(f"wrote {schedule.total_iters + 1} rows to {args.out}")
    mid = schedule.total_iters // 2
    print(
        f"alpha(0)={mixup_alpha(0, schedule):.3e}  "
        f"alpha({mid})={mixup_alpha(mid, schedule):.6f}  "
        f"alpha({schedule.total_iters})={mixup_alpha(schedule.total_iters, schedule):.6f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occ",
        description="Camera-based semantic occupancy prediction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="generate a synthetic scene bundle")
    p.add_argument("--config", required=True, help="pipeline config file")
    p.add_argument("--out", required=True, help="output scene directory")
    p.set_defaults(fn=_cmd_gen_scene)

    p = sub.add_parser("run", help="run the forward pipeline over a scene")
    p.add_argument("--config", required=True, help="pipeline config file")
    p.add_argument("--scene", required=True, help="scene directory from gen-scene")
    p.add_argument("--alpha", type=float, required=True, help="depth mixup weight")
    p.add_argument(
        "--mode",
        choices=("train", "deploy"),
        default="deploy",
        help="multi-branch or merged large-kernel conv (default: deploy)",
    )
    p.add_argument("--out", help="directory for logits/pred/gt/mask tensors")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("equiv", help="check train/deploy conv equivalence")
    p.add_argument("--config", required=True, help="pipeline config file")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("bench", help="time the conv before and after merging")
    p.add_argument("--config", required=True, help="pipeline config file")
    p.add_argument("--runs", type=int, default=20, help="timed runs per form")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("eval", help="mIoU of saved prediction vs ground truth")
    p.add_argument("--pred", required=True, help="predicted class grid (GSDT)")
    p.add_argument("--gt", required=True, help="ground-truth class grid (GSDT)")
    p.add_argument("--mask", required=True, help="visibility mask (GSDT)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("schedule", help="dump the depth-mixup curve as CSV")
    p.add_argument(
        "--r", type=float, default=MixupSchedule.steepness, help="sigmoid steepness"
    )
    p.add_argument(
        "--tmax", type=int, default=MixupSchedule.total_iters, help="total iterations"
    )
    p.add_argument(
        "--nalpha", type=float, default=MixupSchedule.half_range, help="half range of x"
    )
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(fn=_cmd_schedule)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, PipelineStageError) as e:
        message = str(e)
    except MemoryError as e:  # e.g. a march_step so small its samples cannot fit
        message = f"out of memory: {str(e) or 'allocation failed'}"
    # one line, though a message (such as configparser's) may hold several
    print("error: " + " ".join(message.splitlines()), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
