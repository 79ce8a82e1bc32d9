"""The benchmark's workloads check their outputs against pinned references
(``perfbench/references.json``); a byte drift in scenes or logits must fail
here, before a benchmark run would count its calls as failed."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 7


def _workloads(monkeypatch):
    # dataclasses look their module up in sys.modules while it executes
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize(
    "name, pinned",
    [
        ("desk_deploy", {"logits_sha256", "miou", "occupancy_sha256"}),
        ("wide_train", {"logits_sample", "occupancy_sha256"}),
    ],
)
def test_workload_matches_references(monkeypatch, tmp_path, name, pinned):
    """Seed 7 as a benchmark run sees it: set-up, scene check, one timed
    call checked against the references, and the final train/deploy check."""
    workloads = _workloads(monkeypatch)
    reference = workloads.load_references()[name][str(SEED)]
    assert pinned <= reference.keys()
    wl = workloads.WORKLOADS[name]
    state = wl.prepare(SEED, str(tmp_path))
    problems, _ = wl.check_scene(state, reference)
    assert problems == []
    out = wl.call(state)
    assert wl.check(state, out, reference) == []
    assert wl.final_check(state, out) == []
