"""Run one occkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_deploy --seed 7 --seconds 35 --trace 0

Run it from the root of an occkit checkout: the program is imported from
``src/``. One process, one caller, one BLAS thread, a closed loop: each
timed call starts when the previous one has returned and been checked.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, in which
every other timed call is traced. The last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Full
results, the environment and the spans go to ``.perfbench_out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# On a small shared machine a second BLAS thread waits on whichever CPU a
# neighbour holds: with two, wide_train calls had 1.5-1.9x outliers and were
# barely faster than with one.
BLAS_THREADS = 1
SETUP_REPEATS = 3
TAIL_BEYOND = 10
MIN_CALLS = TAIL_BEYOND + 1  # so the tail percentile always exists
OUT_DIR = ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
}

_CONV = {"calls": "count", "self_s": "s", "gflop": "GFLOP",
         "gflop_per_s": "GFLOP/s", "mb_moved": "MB"}

PER_LAYER = {
    "bev.temporal_fuse.calls": "count",
    "bev.temporal_fuse.self_s": "s",
    "bev.temporal_fuse.used_frac": "ratio",
    "bev.warp_bev.calls": "count",
    "bev.warp_bev.self_s": "s",
    "bev.collapse_height.self_s": "s",
    "bev.semantic_encoder_2d.self_s": "s",
    "view.lift_splat.calls": "count",
    "view.lift_splat.self_s": "s",
    "view.lift_splat.points": "count",
    "view.lift_splat.nonzero_frac": "ratio",
    "reparam.forward_train.self_s": "s",
    "reparam.forward_deploy.self_s": "s",
    **{f"tensor.conv{caller}.{k}": u
       for caller in ("", ".fusion", ".encoder", ".bvl", ".large_kernel", ".head", ".stub")
       for k, u in _CONV.items()},
    "bvl.bev_to_voxel_lift.self_s": "s",
    "bvl.fuse_and_upsample.self_s": "s",
    "evaluate.score.self_s": "s",
    "schedule.gt_depth.self_s": "s",
    "schedule.mix_depth.self_s": "s",
    "pipeline.stub_depth.self_s": "s",
    "pipeline.frame_features.self_s": "s",
    "pipeline.run_pipeline.self_s": "s",
    "pipeline.build_weights.self_s": "s",
    "config.parse.self_s": "s",
    "scene.march_frame.self_s": "s",
    "scene.rasterize.self_s": "s",
    "scene.rays": "count",
    "scene.hit_frac": "ratio",
    "gsdt.write.self_s": "s",
    "gsdt.write.mb": "MB",
    "gsdt.read.self_s": "s",
    "trace.overhead_s": "s",
}

# Work counts derived from shapes and values, not measured.
COMPUTED = (".gflop", ".mb_moved", ".points", ".nonzero_frac", "scene.rays",
            "scene.hit_frac", "gsdt.write.mb")


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def runtime_blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np, nproc: int, seed: int, workloads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": runtime_blas_threads(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "machine": platform.machine(),
        "config_sha256": {
            name: hashlib.sha256(wl.config_for(seed).encode()).hexdigest()
            for name, wl in workloads.items()
        },
    }


def latency_stats(samples: list[float]) -> dict:
    """Median and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "samples": n,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    pin_blas_threads()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "occkit", "__init__.py")):
        print(f"error: no occkit sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import numpy as np

    from spans import Tracer
    from workloads import WORKLOADS, load_references

    import_s = time.perf_counter() - T_START
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reference = load_references().get(wl.name, {}).get(str(args.seed))
    workdir = os.path.join(root, OUT_DIR, f"{wl.name}-{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = Tracer() if args.trace else None

    def traced(kind):
        return tracer.active(kind) if kind else nullcontext()

    attempted = failed = 0
    problems: list[str] = []

    def attempt(kind=None):
        """One checked call; returns (seconds or None, output or None)."""
        nonlocal attempted, failed
        attempted += 1
        try:
            with traced(kind):
                t0 = time.perf_counter()
                out = wl.call(state, tracer.span if kind else None)
                seconds = time.perf_counter() - t0
        except Exception:  # a raising call is a failed call; keep measuring
            failed += 1
            problems.append(traceback.format_exc(limit=3))
            return None, None
        bad = wl.check(state, out, reference)
        if bad:
            failed += 1
            problems.extend(bad)
        return seconds, out

    # A set-up is everything before the first timed call: config, scene,
    # weights and one warm-up call. Imports happen once; the rest repeats and
    # the median counts, so the first, cold set-up does not decide setup_s.
    # The first set-up's scene is checked, untimed, before its warm-up call.
    prepare_s: list[float] = []
    warmup_s: list[float] = []
    checks: dict = {}
    state = out = None
    for repeat in range(SETUP_REPEATS):
        state = out = None  # let the previous set-up's scene go first
        with traced("setup" if tracer else None):
            t0 = time.perf_counter()
            state = wl.prepare(args.seed, workdir)
            prepare_s.append(time.perf_counter() - t0)
        if repeat == 0:
            attempted += 1
            try:
                bad, checks["skipped_rays"] = wl.check_scene(state, reference)
            except Exception:  # a scene the oracle cannot read is a failure
                bad = [traceback.format_exc(limit=3)]
            if bad:
                failed += 1
                problems.extend(bad)
        state.pop("generated", None)
        seconds, out = attempt()
        warmup_s.append(seconds or 0.0)
    setup_s = import_s + statistics.median(p + w for p, w in zip(prepare_s, warmup_s))

    plain: list[float] = []
    with_trace: list[float] = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline or i < MIN_CALLS:
        out = None  # free the previous output before the next call
        kind = "call" if tracer and i % 2 else None
        seconds, out = attempt(kind)
        if seconds is not None:
            (with_trace if kind else plain).append(seconds)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if out is not None:
        attempted += 1
        bad = wl.final_check(state, out)
        if bad:
            failed += 1
            problems.extend(bad)
    out = None

    env = environment(np, nproc, args.seed, WORKLOADS)
    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": attempted,
              "failed": failed, "error_rate": failed / attempted,
              "problems": problems[:20], "checks": {**checks, **state["first"]}}
    if tracer is None:
        stats = latency_stats(plain or [0.0])
        values = {
            "setup_s": setup_s,
            "latency_p50_s": stats["p50"],
            "latency_tail_s": stats["tail"],
            "frames_per_s": (state["config"].scene_frames * len(plain) / sum(plain)
                             if plain else 0.0),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        result.update(latency=stats, samples_s=plain, setup={
            "import_s": import_s, "prepare_s": prepare_s, "warmup_s": warmup_s})
    else:
        layers = tracer.layer_metrics()
        if plain and with_trace:
            layers["trace.overhead_s"] = (statistics.median(with_trace)
                                          - statistics.median(plain))
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u}
                   for k, u in PER_LAYER.items()}
        result.update(layers=layers, samples_s=plain, traced_samples_s=with_trace)
        tracer.write(os.path.join(workdir, "spans.jsonl"))
    result["metrics"] = metrics
    with open(os.path.join(workdir, "result.json"), "w") as f:
        json.dump(result, f, indent=1, default=float)
    shutil.rmtree(os.path.join(workdir, "scene"), ignore_errors=True)

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        tag = " (computed)" if any(name.endswith(c) for c in COMPUTED) else ""
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{tag}")
    if tracer is None:
        print(f"  {'error_rate':<36} {failed / attempted:>14.6g} ratio "
              f"({failed} failed of {attempted} attempted)")
        print(f"  latency_tail_s is p{stats['tail_percentile']:.1f}: "
              f"{stats['tail_beyond']} of {stats['samples']} samples beyond it")
    if "skipped_rays" in checks:
        print(f"  check: {checks['skipped_rays']} rays skipped their first surface "
              f"(a sliver thinner than one march step)")
    for p in problems[:5]:
        print("  problem: " + p.strip().replace("\n", "\n    "))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
