"""The traced benchmark finds the functions it wraps by module and attribute
name; every one of them must still exist, and every conv it traces must land
in a named layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import occkit.pipeline
import occkit.tensor
from occkit.config import parse_config
from occkit.scene import gen_scene

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# A tiny run that reaches every conv layer, the stub depth head included.
STUB_CONFIG = """
[grid]
start = -8.0, -8.0, -1.0
end = 8.0, 8.0, 1.0
counts = 32, 32, 4

[depth]
bins = 4
max = 12.0

[temporal]
queue = 2

[channels]
base = 4
refined = 4

[reparam]
kernel = 3x3x1
branches = 3x3x1, 1x1x1

[pipeline]
depth_provider = stub

[scene]
frames = 3
boxes = 2
cameras = 1
image = 8, 16
features = 4, 8
focal = 8.0
"""


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    return [(module, attr) for module, attr, *_ in _spans().TARGETS]


@pytest.mark.parametrize("module,attr", _targets(), ids=lambda v: v)
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_traced_conv_name_is_conv():
    """perfbench wraps ``tensor._conv_nd``; were it another function than
    ``conv``, which every layer calls, no conv would be traced."""
    assert occkit.tensor._conv_nd is occkit.tensor.conv


@pytest.mark.parametrize("mode", ["deploy", "train"])
def test_every_conv_span_lands_in_a_layer(tmp_path, mode):
    """A conv moved into an untraced caller would count as
    ``tensor.conv.other`` and silently leave its layer's metrics."""
    spans = _spans()
    path = tmp_path / "stub.cfg"
    path.write_text(STUB_CONFIG)
    config = parse_config(str(path))
    scene = gen_scene(config.scene_spec())
    tracer = spans.Tracer()
    with tracer.active("call"):
        occkit.pipeline.run_pipeline(config, scene, 0.5, mode)
    callers = [tracer.spans[s["parent"]]["name"]
               for s in tracer.spans if s["name"] == "tensor.conv"]
    assert set(callers) <= set(spans.CONV_CALLERS), set(callers)
    layers = {spans.CONV_CALLERS[c] for c in callers}
    assert layers == {"fusion", "encoder", "bvl", "large_kernel", "head", "stub"}
    (totals,) = tracer.root_totals()
    assert "tensor.conv.other.calls" not in totals


def test_lift_spans_keep_their_counts(tmp_path):
    """perfbench counts a lift's pseudo points from its second argument, the
    depth distribution: every encoded frame is one ``view.lift_splat`` span
    of ``n_cams * bins * H * W`` points."""
    spans = _spans()
    path = tmp_path / "stub.cfg"
    path.write_text(STUB_CONFIG)
    config = parse_config(str(path))
    scene = gen_scene(config.scene_spec())
    tracer = spans.Tracer()
    with tracer.active("call"):
        occkit.pipeline.run_pipeline(config, scene, 0.5, "deploy")
    lifts = min(config.scene_frames, config.queue_len + 1)
    per_call = config.scene_cameras * config.depth_bins * config.scene_features[0] \
        * config.scene_features[1]
    points = [s["counts"]["points"] for s in tracer.spans if s["name"] == "view.lift_splat"]
    assert points == [per_call] * lifts
    (totals,) = tracer.root_totals()
    assert totals["view.lift_splat.calls"] == lifts
    assert totals["view.lift_splat.points"] == lifts * per_call


def test_fusion_span_is_used_once(tmp_path):
    """perfbench marks a fusion used when a later traced call takes its
    output: one call fuses once, and the heads read that map."""
    spans = _spans()
    path = tmp_path / "stub.cfg"
    path.write_text(STUB_CONFIG)
    config = parse_config(str(path))
    scene = gen_scene(config.scene_spec())
    tracer = spans.Tracer()
    with tracer.active("call"):
        occkit.pipeline.run_pipeline(config, scene, 0.5, "deploy")
    fusions = [s["counts"] for s in tracer.spans if s["name"] == "bev.temporal_fuse"]
    assert fusions == [{"used": 1}]
    (totals,) = tracer.root_totals()
    assert spans._derived(totals)["bev.temporal_fuse.used_frac"] == 1.0
