"""Span tracing of occkit from outside the package.

Functions are wrapped by rebinding module attributes: every ``occkit``
module attribute that *is* a target function is replaced, which also covers
the copies other modules took with ``from ... import``. A span records its
name, start, end, parent and call id (the id of its root span); spans stay
in memory and are written out once, at the end of a run.

Some wrappers also record computed work counts (FLOPs, bytes, pseudo-points,
rays). These are derived from array shapes and values, not measured, so they
repeat exactly for the same inputs.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from math import prod


def _conv_work(args, kwargs, out):
    x, weight = args[0], args[1]
    c_out, c_in = weight.shape[:2]
    taps = prod(weight.shape[2:])
    n_out = prod(out.shape[1:])
    flop = 2 * c_out * c_in * taps * n_out
    moved = x.nbytes + weight.nbytes + out.nbytes
    return {"gflop": flop / 1e9, "mb_moved": moved / 1e6}


def _lift_points(args, kwargs):
    probs = args[1].probs
    return {"points": probs.size, "nonzero": int((probs != 0).sum())}


def _march_rays(args, kwargs, out):
    depth = out[0]
    return {"rays": depth.size, "hits": int((depth > 0).sum())}


def _write_mb(args, kwargs):
    return {"mb": args[1].nbytes / 1e6}


# (module, attribute, span name, counts before the call, counts after it)
TARGETS = (
    ("occkit.config", "parse_config", "config.parse", None, None),
    ("occkit.scene", "gen_scene", "scene.gen_scene", None, None),
    ("occkit.scene", "_rasterize", "scene.rasterize", None, None),
    ("occkit.scene", "_march_frame", "scene.march_frame", None, _march_rays),
    ("occkit.scene", "save_scene", "scene.save_scene", None, None),
    ("occkit.scene", "load_scene", "scene.load_scene", None, None),
    ("occkit.gsdt", "write", "gsdt.write", _write_mb, None),
    ("occkit.gsdt", "read", "gsdt.read", None, None),
    ("occkit.pipeline", "build_weights", "pipeline.build_weights", None, None),
    ("occkit.pipeline", "run_pipeline", "pipeline.run_pipeline", None, None),
    ("occkit.pipeline", "frame_features", "pipeline.frame_features", None, None),
    ("occkit.pipeline", "_stub_depth", "pipeline.stub_depth", None, None),
    ("occkit.schedule", "gt_depth_from_points", "schedule.gt_depth", None, None),
    ("occkit.schedule", "mix_depth", "schedule.mix_depth", None, None),
    ("occkit.view", "lift_splat", "view.lift_splat", _lift_points, None),
    ("occkit.bev", "collapse_height", "bev.collapse_height", None, None),
    ("occkit.bev", "temporal_fuse", "bev.temporal_fuse", None, None),
    ("occkit.bev", "warp_bev", "bev.warp_bev", None, None),
    ("occkit.bev", "semantic_encoder_2d", "bev.semantic_encoder_2d", None, None),
    ("occkit.bvl", "bev_to_voxel_lift", "bvl.bev_to_voxel_lift", None, None),
    ("occkit.bvl", "fuse_and_upsample", "bvl.fuse_and_upsample", None, None),
    ("occkit.reparam", "forward_train", "reparam.forward_train", None, None),
    ("occkit.reparam", "forward_deploy", "reparam.forward_deploy", None, None),
    ("occkit.tensor", "_conv_nd", "tensor.conv", None, _conv_work),
)

# A conv span is attributed to the layer that called it.
CONV_CALLERS = {
    "bev.temporal_fuse": "fusion",
    "bev.semantic_encoder_2d": "encoder",
    "bvl.bev_to_voxel_lift": "bvl",
    "reparam.forward_train": "large_kernel",
    "reparam.forward_deploy": "large_kernel",
    "pipeline.run_pipeline": "head",
    "pipeline.stub_depth": "stub",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        # weak references to the current root's fused BEV maps, by id, to
        # find which ones a later layer reads without keeping them alive
        self._fused: dict[int, tuple] = {}

    @contextmanager
    def span(self, name: str, **counts):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        call = sid if parent is None else self.spans[parent]["call"]
        rec = {"id": sid, "name": name, "parent": parent, "call": call,
               "start": 0.0, "end": 0.0, "counts": counts}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def active(self, kind: str):
        """Trace everything inside as one root span named ``kind``."""
        self._install()
        try:
            with self.span(kind):
                yield
        finally:
            self._uninstall()
            self._fused.clear()

    def _wrap(self, fn, name, before, after):
        def traced(*args, **kwargs):
            for a in args:
                hit = self._fused.get(id(a))
                if hit is not None and hit[1]() is a:
                    hit[0]["counts"]["used"] = 1
            counts = before(args, kwargs) if before else {}
            with self.span(name, **counts) as rec:
                out = fn(*args, **kwargs)
            if after:
                rec["counts"].update(after(args, kwargs, out))
            if name == "bev.temporal_fuse":
                rec["counts"]["used"] = 0
                self._fused[id(out)] = (rec, weakref.ref(out))
            return out

        return traced

    def _install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "occkit" or n.startswith("occkit."))]
        for mod_name, attr, name, before, after in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def _uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def root_totals(self) -> list[dict]:
        """Per root span: summed calls, self seconds and counts per layer."""
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        roots: dict[int, dict] = {}
        for s in self.spans:
            if s["parent"] is None:
                roots[s["id"]] = defaultdict(float)
                continue
            totals = roots[s["call"]]
            self_s = s["end"] - s["start"] - child_s[s["id"]]
            keys = [s["name"]]
            if s["name"] == "tensor.conv":
                caller = CONV_CALLERS.get(self.spans[s["parent"]]["name"], "other")
                keys.append(f"tensor.conv.{caller}")
            for key in keys:
                totals[key + ".calls"] += 1
                totals[key + ".self_s"] += self_s
                for count, value in s["counts"].items():
                    totals[f"{key}.{count}"] += value
        return list(roots.values())

    def layer_metrics(self) -> dict[str, float]:
        """Median over root spans (traced set-ups and calls) of each layer figure.

        A figure enters the median only from roots in which its layer ran,
        so pipeline layers come from timed calls and scene layers from
        set-up on the pipeline workloads.
        """
        samples: dict[str, list[float]] = defaultdict(list)
        for totals in self.root_totals():
            for key, value in _derived(totals).items():
                samples[key].append(value)
        return {k: statistics.median(v) for k, v in samples.items()}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _derived(totals: dict) -> dict[str, float]:
    out = dict(totals)
    for key, value in totals.items():
        if key.endswith(".gflop"):
            base = key[: -len(".gflop")]
            out[base + ".gflop_per_s"] = _ratio(value, totals[base + ".self_s"])
    if "bev.temporal_fuse.calls" in totals:
        out["bev.temporal_fuse.used_frac"] = _ratio(
            totals["bev.temporal_fuse.used"], totals["bev.temporal_fuse.calls"])
    if "view.lift_splat.calls" in totals:
        out["view.lift_splat.nonzero_frac"] = _ratio(
            totals["view.lift_splat.nonzero"], totals["view.lift_splat.points"])
    if "scene.march_frame.calls" in totals:
        out["scene.rays"] = totals["scene.march_frame.rays"]
        out["scene.hit_frac"] = _ratio(
            totals["scene.march_frame.hits"], totals["scene.march_frame.rays"])
    return out
