"""The traced benchmark finds the functions it wraps by module and attribute
name; every one of them must still exist, and every conv it traces must land
in a named layer. Its workloads read a config's scene through three
accessors, which must still give the config's scene."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import occkit.pipeline
import occkit.tensor
from occkit.config import parse_config
from occkit.scene import gen_scene

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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


def _load(name):
    """perfbench's module ``name``, loaded by path; it is registered in
    ``sys.modules`` before it runs, as ``dataclass`` needs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("spans")


def _targets():
    return [(module, attr) for module, attr, *_ in _spans().TARGETS]


@pytest.mark.parametrize("module,attr", _targets(), ids=lambda v: v)
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


WORKLOADS = _load("workloads").WORKLOADS
# Each perfbench workload's grid counts and frame count at seed 7.
WORKLOAD_SCENES = {"desk_deploy": ((96, 96, 8), 16), "wide_train": ((200, 200, 16), 8)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_config_reads(tmp_path, name):
    """perfbench's workloads read the config's scene through
    ``scene_spec()``, ``grid`` and ``scene_frames``: each gives the scene
    of the workload's config."""
    path = tmp_path / "config.ini"
    path.write_text(WORKLOADS[name].config_for(7))
    config = parse_config(str(path))
    counts, frames = WORKLOAD_SCENES[name]
    assert config.scene_spec() is config.scene
    assert config.scene.seed == 7
    assert config.grid.counts == config.scene.grid.counts == counts
    assert config.scene_frames == config.scene.n_frames == frames


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
    scene = gen_scene(config.scene)
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
    scene = gen_scene(config.scene)
    tracer = spans.Tracer()
    with tracer.active("call"):
        occkit.pipeline.run_pipeline(config, scene, 0.5, "deploy")
    spec = config.scene
    lifts = min(spec.n_frames, config.queue_len + 1)
    per_call = spec.n_cameras * config.depth_bins * spec.feature_size[0] * spec.feature_size[1]
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
    scene = gen_scene(config.scene)
    tracer = spans.Tracer()
    with tracer.active("call"):
        occkit.pipeline.run_pipeline(config, scene, 0.5, "deploy")
    fusions = [s["counts"] for s in tracer.spans if s["name"] == "bev.temporal_fuse"]
    assert fusions == [{"used": 1}]
    (totals,) = tracer.root_totals()
    assert spans._derived(totals)["bev.temporal_fuse.used_frac"] == 1.0
