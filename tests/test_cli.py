import hashlib
import io
import re
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import occkit.pipeline
from occkit import gsdt
from occkit.cli import main
from occkit.config import parse_config
from occkit.pipeline import run_pipeline
from occkit.scene import load_scene

TINY_CONFIG = """
[grid]
start = -8.0, -8.0, -1.0
end = 8.0, 8.0, 1.0
counts = 32, 32, 4

[depth]
bins = 4
min = 0.5
max = 12.0

[temporal]
queue = 2

[channels]
base = 4
refined = 4

[reparam]
kernel = 3x3x1
branches = 3x3x1, 1x1x1

[scene]
frames = 2
boxes = 2
cameras = 1
image = 8, 16
features = 4, 8
focal = 8.0
speed = 0.5
"""


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CONFIG)
    return str(p)


@pytest.fixture()
def scene_dir(tmp_path, config_path):
    out = str(tmp_path / "scene")
    assert main(["gen-scene", "--config", config_path, "--out", out]) == 0
    return out


class TestGenScene:
    def test_writes_bundle(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "fresh_scene")
        assert main(["gen-scene", "--config", config_path, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "scene written" in text
        assert re.search(r"^  generated in \d+\.\d{4} s$", text, re.MULTILINE)
        occ = gsdt.read(f"{out}/occupancy.gsdt")
        assert occ.shape == (2, 32, 32, 4)
        assert gsdt.read(f"{out}/depth.gsdt").shape == (2, 1, 4, 8)

    def test_bad_config_path(self, tmp_path, capsys):
        rc = main(
            ["gen-scene", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "s")]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_feature_extent_reports_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(TINY_CONFIG.replace("features = 4, 8", "features = 0, 44"))
        rc = main(["gen-scene", "--config", str(p), "--out", str(tmp_path / "s")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [scene] features")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("start = -8, -8, -1.0\nend = 8, 8, -0.5\ncounts = 32, 32, 2",
             "grid (-8.0, -8.0, -1.0)..(8.0, 8.0, -0.5) is 0.50 m tall, too low for a"),
            ("start = -1, -20, -1.0\nend = 1, 20, 2.2\ncounts = 8, 80, 8",
             "grid (-1.0, -20.0, -1.0)..(1.0, 20.0, 2.2) is 2.00 x 40.00 m, too small for a"),
        ],
        ids=["low", "narrow"],
    )
    def test_grid_too_small_for_a_box(self, tmp_path, capsys, grid, message):
        """The default scene's seeded boxes do not fit the grid: one error
        line naming it, exit 1."""
        p = tmp_path / "small.cfg"
        p.write_text(f"[grid]\n{grid}\n")
        rc = main(["gen-scene", "--config", str(p), "--out", str(tmp_path / "s")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("message", ["Unable to allocate 186. GiB", ""])
    def test_out_of_memory_reports_error(self, tmp_path, config_path, capsys,
                                         monkeypatch, message):
        """A scene too large to allocate is one error line, exit 1; the
        allocation is faked, so the host's overcommit policy plays no part."""
        def gen_scene(spec):
            raise MemoryError(message)

        monkeypatch.setattr("occkit.cli.gen_scene", gen_scene)
        out = str(tmp_path / "scene")
        assert main(["gen-scene", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: out of memory: ")
        assert message in err


class TestConfigErrors:
    @pytest.mark.parametrize(
        "old,new,command,key",
        [
            ("branches = 3x3x1, 1x1x1", "branches = 3x3x1, 0x0x0", "equiv", "[reparam] branches"),
            ("branches = 3x3x1, 1x1x1", "branches = 3x3x1@0", "equiv", "[reparam] branches"),
            ("branches = 3x3x1, 1x1x1", "branches = 3x3", "equiv", "[reparam] branches"),
            ("focal = 8.0", "focal = 0", "gen-scene", "[scene] focal"),
            ("focal = 8.0", "focal = 8.0\nmarch_step = 0", "gen-scene", "[scene] march_step"),
            ("cameras = 1", "cameras = 0", "gen-scene", "[scene] cameras"),
            ("bins = 4", "bins = 0", "gen-scene", "[depth] bins"),
            ("queue = 2", "queue = 0", "gen-scene", "[temporal] queue"),
            ("base = 4", "base = 0", "gen-scene", "[channels] base"),
            ("refined = 4", "refined = 0", "equiv", "[channels] refined"),
            ("frames = 2", "frames = 0", "gen-scene", "[scene] frames"),
            ("min = 0.5", "min = 20", "gen-scene", "[depth] min and max"),
            ("counts = 32, 32, 4", "counts = 30, 32, 4", "gen-scene", "[grid] counts"),
            ("counts = 32, 32, 4", "counts = 32, 32, 3", "equiv", "[grid] counts"),
            ("[scene]", "[pipeline]\ndepth_provider = oracle\n\n[scene]", "gen-scene",
             "[pipeline] depth_provider"),
        ],
        ids=["branch-extent", "branch-dilation", "branch-syntax", "focal", "march-step", "cameras",
             "depth-bins", "queue", "channels-base", "channels-refined", "frames",
             "depth-range", "grid-horizontal", "grid-height", "provider"],
    )
    def test_out_of_range_value_names_key(self, tmp_path, capsys, old, new, command, key):
        p = tmp_path / "bad.cfg"
        p.write_text(TINY_CONFIG.replace(old, new))
        args = [command, "--config", str(p)]
        if command == "gen-scene":
            args += ["--out", str(tmp_path / "s")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}")
        assert err.count("\n") == 1


def test_default_section_is_unknown(tmp_path, capsys):
    """A [DEFAULT] section is an unknown section, not defaults that every
    section would share or that no section would read."""
    p = tmp_path / "bad.cfg"
    p.write_text("[DEFAULT]\nqueue = 3\n")
    assert main(["equiv", "--config", str(p)]) == 1
    assert capsys.readouterr().err == "error: unknown config section [DEFAULT]\n"


class TestUnmergeableBranches:
    """A kernel and branch set that cannot merge is a config error naming
    ``[reparam] branches``, before any command does work or prints."""

    @pytest.mark.parametrize("command", ["gen-scene", "run", "equiv"])
    @pytest.mark.parametrize(
        "kernel,branches",
        [("4x4x1", "4x4x1, 3x3x1"), ("3x3x1", "5x5x1"), ("3x3x1", "3x3x1, 2x2x1")],
        ids=["even-kernel-parity", "oversized", "parity"],
    )
    def test_one_error_line(self, tmp_path, capsys, command, kernel, branches):
        p = tmp_path / "bad.cfg"
        p.write_text(
            TINY_CONFIG.replace("kernel = 3x3x1", f"kernel = {kernel}").replace(
                "branches = 3x3x1, 1x1x1", f"branches = {branches}"
            )
        )
        args = [command, "--config", str(p)]
        if command == "gen-scene":
            args += ["--out", str(tmp_path / "s")]
        elif command == "run":
            args += ["--scene", str(tmp_path / "s"), "--alpha", "0.5"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: [reparam] branches")
        assert err.count("\n") == 1


class TestNotUtf8:
    """A config or scene manifest that does not decode as UTF-8 ends in one
    ``error:`` line that names the file."""

    def test_config(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_bytes(TINY_CONFIG.encode() + b"# \xff\n")
        assert main(["gen-scene", "--config", str(p), "--out", str(tmp_path / "s")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: config file {p} is not UTF-8 text")
        assert err.count("\n") == 1

    def test_manifest(self, config_path, scene_dir, capsys):
        manifest = f"{scene_dir}/manifest.txt"
        with open(manifest, "ab") as f:
            f.write(b"\xff\n")
        rc = main(["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scene manifest {manifest} is not UTF-8 text")
        assert err.count("\n") == 1


def _as_uint8(a):
    return np.clip(a, 0, 255).astype(np.uint8)


def _set_first(value):
    def edit(a):
        a.flat[0] = value
        return a
    return edit


class TestSceneTensors:
    """``load_scene`` requires each scene file's dtype and value domain, and
    an error names the file."""

    @pytest.mark.parametrize(
        "stem,edit,message",
        [
            ("occupancy", lambda a: a.astype(np.float32), "must be uint8, got float32"),
            ("occupancy", _set_first(200), "must hold class labels at most 17"),
            ("visible", lambda a: a.astype(np.float64), "must be uint8, got float64"),
            ("visible", _set_first(7), "must hold only 0 and 1"),
            ("depth", _as_uint8, "must be float32, got uint8"),
            ("depth", _set_first(np.nan), "must hold depths that are -1 or finite and positive"),
            ("depth", _set_first(np.inf), "must hold depths that are -1 or finite and positive"),
            ("depth", _set_first(0.0), "must hold depths that are -1 or finite and positive"),
            ("depth", _set_first(-2.0), "must hold depths that are -1 or finite and positive"),
            ("poses", lambda a: a.astype(np.float32), "must be float64, got float32"),
            ("poses", _as_uint8, "must be float64, got uint8"),
        ],
        ids=[
            "occupancy-float32", "occupancy-label-200", "visible-float64",
            "visible-7", "depth-uint8", "depth-nan", "depth-inf", "depth-zero",
            "depth-negative", "poses-float32", "poses-uint8",
        ],
    )
    def test_run_names_file(self, config_path, scene_dir, capsys, stem, edit, message):
        path = f"{scene_dir}/{stem}.gsdt"
        gsdt.write(path, edit(gsdt.read(path)))
        rc = main(["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.5"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: scene {stem} {path} {message}\n"


class TestNonFinite:
    @pytest.mark.parametrize(
        "old,new,command,key",
        [
            ("start = -8.0, -8.0, -1.0", "start = nan, -8.0, -1.0", "gen-scene",
             "[grid] start"),
            ("max = 12.0", "max = inf", "run", "[depth] max"),
            ("speed = 0.5", "speed = nan", "gen-scene", "[scene] speed"),
            ("speed = 0.5", "speed = 0.5\nyaw_rate = nan", "run", "[scene] yaw_rate"),
            ("speed = 0.5", "speed = 0.5\nmarch_step = inf", "gen-scene",
             "[scene] march_step"),
        ],
        ids=["grid-start", "depth-max", "speed", "yaw-rate", "march-step"],
    )
    def test_config_value_names_key(self, tmp_path, capsys, old, new, command, key):
        p = tmp_path / "bad.cfg"
        p.write_text(TINY_CONFIG.replace(old, new))
        args = [command, "--config", str(p)]
        if command == "gen-scene":
            args += ["--out", str(tmp_path / "s")]
        else:
            args += ["--scene", str(tmp_path / "s"), "--alpha", "0.5"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}")
        assert err.count("\n") == 1

    def test_manifest_focal(self, config_path, scene_dir, capsys):
        manifest = f"{scene_dir}/manifest.txt"
        with open(manifest) as f:
            text = f.read().replace("focal = 8.0", "focal = nan")
        with open(manifest, "w") as f:
            f.write(text)
        err = self.assert_run_fails(config_path, scene_dir, capsys)
        assert err.endswith(
            f"scene manifest {manifest}: [scene] focal must be finite, got 'nan'\n"
        )

    def test_pose_file(self, config_path, scene_dir, capsys):
        path = f"{scene_dir}/poses.gsdt"
        poses = gsdt.read(path)
        poses[-1, 0, 3] = np.nan
        gsdt.write(path, poses)
        err = self.assert_run_fails(config_path, scene_dir, capsys)
        assert path in err and f"frame {len(poses) - 1} " in err

    def test_pose_bottom_row(self, config_path, scene_dir, capsys):
        # the bottom row is no part of the pose, but still must be finite
        path = f"{scene_dir}/poses.gsdt"
        poses = gsdt.read(path)
        poses[1, 3, 0] = np.inf
        gsdt.write(path, poses)
        err = self.assert_run_fails(config_path, scene_dir, capsys)
        assert err == f"error: scene poses {path}: frame 1 must be finite\n"

    @staticmethod
    def assert_run_fails(config_path, scene_dir, capsys):
        rc = main(["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err
        assert err.count("\n") == 1
        return err


class TestPoseRotation:
    @pytest.mark.parametrize(
        "rotation",
        [
            [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
        ],
        ids=["pitched", "mirrored"],
    )
    def test_rejects_rotation_not_about_z(self, config_path, scene_dir, capsys, rotation):
        """Finite, orthonormal rotations that the planar warp cannot follow."""
        path = f"{scene_dir}/poses.gsdt"
        poses = gsdt.read(path)
        poses[0, :3, :3] = rotation
        gsdt.write(path, poses)
        rc = main(["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: scene poses {path}: frame 0: rotation is not a proper rotation about z\n"
        )

    def test_rejects_huge_entry_in_one_line(self, config_path, scene_dir, capsys):
        """A finite entry too large to square ends in the one ``error:``
        line and exit 1, with no overflow warning next to it."""
        path = f"{scene_dir}/poses.gsdt"
        poses = gsdt.read(path)
        poses[1, 0, 1] = -2.68e154
        gsdt.write(path, poses)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.5"])
        assert rc == 1 and not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert err == f"error: scene poses {path}: frame 1: rotation is not orthonormal\n"

    def test_rejects_last_row_not_0001(self, config_path, scene_dir, capsys):
        """The last row of a pose matrix is (0, 0, 0, 1); any other is an
        error, though the pose reads only the top three rows."""
        path = f"{scene_dir}/poses.gsdt"
        poses = gsdt.read(path)
        poses[1, 3] = 5.0
        gsdt.write(path, poses)
        rc = main(["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: scene poses {path}: frame 1: pose matrix last row must be "
            "(0, 0, 0, 1), got [5.0, 5.0, 5.0, 5.0]\n"
        )


class TestRun:
    def test_run_writes_tensors(self, tmp_path, config_path, scene_dir, capsys):
        out = str(tmp_path / "run1")
        rc = main(
            ["run", "--config", config_path, "--scene", scene_dir,
             "--alpha", "0.0", "--out", out]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "logits shape: (18, 32, 32, 4)" in text
        assert "stage timings" in text
        logits = gsdt.read(f"{out}/logits.gsdt")
        pred = gsdt.read(f"{out}/pred.gsdt")
        gt = gsdt.read(f"{out}/gt.gsdt")
        mask = gsdt.read(f"{out}/mask.gsdt")
        assert logits.shape == (18, 32, 32, 4)
        assert pred.shape == gt.shape == mask.shape == (32, 32, 4)
        assert pred.dtype == np.uint8
        np.testing.assert_array_equal(pred, np.argmax(logits, axis=0).astype(np.uint8))

    def test_repeat_runs_bit_identical(self, tmp_path, config_path, scene_dir):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(
                ["run", "--config", config_path, "--scene", scene_dir,
                 "--alpha", "0.0", "--out", out]
            ) == 0
            with open(f"{out}/logits.gsdt", "rb") as f:
                outs.append(f.read())
        assert outs[0] == outs[1]

    def test_train_mode(self, config_path, scene_dir, capsys):
        rc = main(
            ["run", "--config", config_path, "--scene", scene_dir,
             "--alpha", "0.5", "--mode", "train"]
        )
        assert rc == 0
        assert "logits shape" in capsys.readouterr().out

    def test_prints_one_line_per_stage(self, config_path, scene_dir, capsys):
        """After its header, one line per stage record (name, calls,
        seconds, last output shape and dtype), then the total; no
        zero-fraction line."""
        rc = main(["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.5"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "zero fraction" not in text
        _, records = run_pipeline(parse_config(config_path), load_scene(scene_dir), 0.5)
        lines = text.splitlines()
        body = lines[lines.index("stage timings (calls, s, last output shape and dtype):") + 1 :]
        assert len(body) == len(records) + 1
        for line, r in zip(body, records):
            shape = re.escape(str(r.shape))
            assert re.fullmatch(rf"  {r.name} +{r.calls} +\d+\.\d{{4}}  {shape} float32", line)
        assert re.fullmatch(r"  total +\d+\.\d{4}", body[-1])

    def test_non_finite_stage_output_reports_error(
        self, monkeypatch, config_path, scene_dir, capsys
    ):
        """A NaN weight makes the fusion output NaN: one error line naming
        the stage, exit 1."""
        build = occkit.pipeline.build_weights

        def poisoned(config):
            weights = build(config)
            weights.fusion.mix1.weight.flat[0] = np.nan
            return weights

        monkeypatch.setattr(occkit.pipeline, "build_weights", poisoned)
        rc = main(["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.5"])
        assert rc == 1
        assert re.fullmatch(
            r"error: stage 'temporal_fuse' failed: \d+ non-finite values in its "
            r"\(4, 16, 16\) float32 output\n",
            capsys.readouterr().err,
        )

    def test_bad_alpha_reports_error(self, config_path, scene_dir, capsys):
        rc = main(
            ["run", "--config", config_path, "--scene", scene_dir, "--alpha", "2.0"]
        )
        assert rc == 1
        assert "alpha" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "edit,message",
        [(lambda t: t.replace("focal = 8.0\n", ""), "missing key 'focal' in section [scene]"),
         (lambda t: t.replace("focal = 8.0", "focal = abc"),
          "[scene] focal must be a number, got 'abc'"),
         (lambda t: t.replace("focal = 8.0", "n_fames = 3"),
          "unknown key 'n_fames' in section [scene]"),
         (lambda t: t.replace("focal = 8.0", "seed = 99"),
          "option 'seed' in section 'scene' already exists"),
         (lambda t: t.replace("focal = 8.0", "garbage line"), "'garbage line"),
         (lambda t: OLD_FORMAT_MANIFEST, "File contains no section headers"),
         (lambda t: t + "\n[temporal]\nqueue = 3\n", "unknown config section [temporal]"),
         (lambda t: t.replace("[depth]\nmax = 12.0\n", ""),
          "missing key 'max' in section [depth]"),
         (lambda t: t.replace("cameras = 1", "cameras = 0"),
          "[scene] cameras must be >= 1, got 0"),
         (lambda t: t.replace("features = 4, 8", "features = 0, 8"),
          "[scene] features entries must be >= 1, got 0"),
         (lambda t: t.replace("focal = 8.0", "focal = -8.0"),
          "[scene] focal must be > 0, got -8.0"),
         (lambda t: t.replace("seed = 7", "seed = -3"), "[scene] seed must be >= 0, got -3")],
        ids=["missing-key", "malformed-value", "unknown-key", "repeated-key", "no-equals",
             "old-format", "config-section", "no-depth-section", "cameras-zero",
             "features-zero", "focal-negative", "seed-negative"],
    )
    def test_bad_manifest_reports_error(self, config_path, scene_dir, capsys, edit, message):
        manifest = f"{scene_dir}/manifest.txt"
        with open(manifest) as f:
            text = edit(f.read())
        with open(manifest, "w") as f:
            f.write(text)
        rc = main(
            ["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.0"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scene manifest {manifest}: ")
        assert message in err
        assert err.count("\n") == 1


# The tiny scene's manifest as written before manifests became config files.
OLD_FORMAT_MANIFEST = """seed = 7
grid_start = -8.0,-8.0,-1.0
grid_end = 8.0,8.0,1.0
grid_counts = 32,32,4
n_frames = 2
n_boxes = 2
n_cameras = 1
image_size = 8,16
feature_size = 4,8
focal = 8.0
d_max = 12.0
march_step = 0.1
speed = 0.5
yaw_rate = 0.0
"""


class TestAbsurdPose:
    def test_far_translation_gives_finite_logits(self, tmp_path, config_path, scene_dir):
        """A finite pose 1e300 m away puts every history cell off the map;
        the warp reads zeros there, not 0 * inf."""
        path = f"{scene_dir}/poses.gsdt"
        poses = gsdt.read(path)
        poses[0, :2, 3] = 1e300
        gsdt.write(path, poses)
        out = str(tmp_path / "run")
        rc = main(["run", "--config", config_path, "--scene", scene_dir,
                   "--alpha", "0.5", "--out", out])
        assert rc == 0
        assert np.isfinite(gsdt.read(f"{out}/logits.gsdt")).all()


class TestStageErrors:
    @pytest.mark.parametrize(
        "error", [MemoryError("Unable to allocate 1.00 GiB"), MemoryError(), ValueError("bad")],
        ids=["memory", "memory-no-message", "value"],
    )
    def test_one_error_line_names_stage(self, config_path, scene_dir, capsys,
                                        monkeypatch, error):
        def collapse_height(v):
            raise error

        monkeypatch.setattr("occkit.pipeline.collapse_height", collapse_height)
        rc = main(["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "'height_collapse'" in err
        assert (str(error) or type(error).__name__) in err


class TestManifestFields:
    """A manifest value the config does not share, or one out of range or
    that builds no grid, ends in one ``error:`` line naming the field or the
    manifest."""

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("focal", "-8.0", "scene manifest {manifest}: [scene] focal must be > 0, got -8.0"),
            ("image", "0, 0",
             "scene manifest {manifest}: [scene] image entries must be >= 1, got 0"),
            ("focal", "9.0", "scene focal 9.0 does not match config 8.0"),
            ("image", "8, 16, 3",
             "scene manifest {manifest}: [scene] image needs 2 comma-separated values, "
             "got '8, 16, 3'"),
            ("counts", "32, 32",
             "scene manifest {manifest}: [grid] counts needs 3 comma-separated values, "
             "got '32, 32'"),
        ],
        ids=["focal-negative", "image-zero", "focal-other", "image-three-entries",
             "grid-two-counts"],
    )
    def test_run_reports_field(self, config_path, scene_dir, capsys, key, value, message):
        manifest = f"{scene_dir}/manifest.txt"
        with open(manifest) as f:
            lines = [f"{key} = {value}\n" if ln.split("=")[0].strip() == key else ln
                     for ln in f]
        with open(manifest, "w") as f:
            f.writelines(lines)
        rc = main(["run", "--config", config_path, "--scene", scene_dir, "--alpha", "0.5"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message.format(manifest=manifest)}\n"


class TestEquiv:
    def test_passes_on_tiny_config(self, config_path, capsys):
        assert main(["equiv", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "equivalence: PASS" in out
        assert "float32" in out and "float64" in out

    def test_passes_on_even_kernel_default_branches(self, tmp_path, capsys):
        """An even kernel's default branches skip the dilated layout that
        cannot sit centred, so they merge."""
        p = tmp_path / "even.cfg"
        p.write_text(
            TINY_CONFIG.replace("kernel = 3x3x1", "kernel = 4x4x1").replace(
                "branches = 3x3x1, 1x1x1", "branches = default"
            )
        )
        assert main(["equiv", "--config", str(p)]) == 0
        assert "equivalence: PASS" in capsys.readouterr().out


class TestBench:
    def test_reports_speedup(self, config_path, capsys):
        """Only the two conv forms are timed; ``occ run`` and ``occ
        gen-scene`` report the lift, scene and pipeline times."""
        assert main(["bench", "--config", config_path, "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "multi-branch" in out
        assert "merged" in out
        assert "speedup" in out
        rows = [line.split()[0] for line in out.splitlines()[1:]]
        assert rows == ["form", "multi-branch", "merged", "speedup"]
        for removed in ("lift_plan", "lift_splat", "gen_scene", "full pipeline"):
            assert removed not in out

    def test_rejects_zero_runs(self, config_path, capsys):
        assert main(["bench", "--config", config_path, "--runs", "0"]) == 1
        assert capsys.readouterr().err == "error: --runs must be >= 1, got 0\n"


class TestEval:
    def test_perfect_prediction(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        gt = rng.integers(0, 18, (8, 8, 2), dtype=np.int64).astype(np.uint8)
        mask = np.ones_like(gt)
        gsdt.write(str(tmp_path / "gt.gsdt"), gt)
        gsdt.write(str(tmp_path / "pred.gsdt"), gt)
        gsdt.write(str(tmp_path / "mask.gsdt"), mask)
        rc = main(
            ["eval", "--pred", str(tmp_path / "pred.gsdt"),
             "--gt", str(tmp_path / "gt.gsdt"), "--mask", str(tmp_path / "mask.gsdt")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mIoU" in out
        assert "1.0000" in out

    def test_shape_mismatch_fails(self, tmp_path, capsys):
        gsdt.write(str(tmp_path / "gt.gsdt"), np.zeros((4, 4), dtype=np.uint8))
        gsdt.write(str(tmp_path / "pred.gsdt"), np.zeros((4, 5), dtype=np.uint8))
        gsdt.write(str(tmp_path / "mask.gsdt"), np.ones((4, 4), dtype=np.uint8))
        rc = main(
            ["eval", "--pred", str(tmp_path / "pred.gsdt"),
             "--gt", str(tmp_path / "gt.gsdt"), "--mask", str(tmp_path / "mask.gsdt")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: shape mismatch: pred (4, 5), gt (4, 4)")
        assert err.count("\n") == 1

    def test_fractional_mask_fails(self, tmp_path, capsys):
        """A mask is read as written: a 0.5 is an error, not a visible voxel."""
        labels = np.zeros((4, 4), dtype=np.uint8)
        mask = np.ones((4, 4), dtype=np.float32)
        mask[0, 0] = 0.5
        for name, arr in (("gt", labels), ("pred", labels), ("mask", mask)):
            gsdt.write(str(tmp_path / f"{name}.gsdt"), arr)
        rc = main(
            ["eval", "--pred", str(tmp_path / "pred.gsdt"),
             "--gt", str(tmp_path / "gt.gsdt"), "--mask", str(tmp_path / "mask.gsdt")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: mask of dtype float32 must hold only 0 and 1\n"


class TestSchedule:
    def test_csv_output(self, tmp_path, capsys):
        out = str(tmp_path / "curve.csv")
        rc = main(["schedule", "--r", "5.0", "--tmax", "100", "--out", out])
        assert rc == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "iter,x,alpha"
        assert len(lines) == 102
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[2]) < 1e-9
        assert float(last[2]) > 1 - 1e-9
        mid = lines[51].split(",")
        assert float(mid[2]) == pytest.approx(0.5, abs=1e-12)

    def test_stdout_default(self, capsys):
        assert main(["schedule", "--tmax", "10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("iter,x,alpha")
        assert "alpha(0)=" in out

    def test_default_stdout_bytes(self, capsys):
        """The default curve's stdout, written row by row, keeps its bytes."""
        assert main(["schedule"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ff4f04d03e30574e1b5157ae4e5adf923c7d5d63ed155d93e5b54326a32544f0"
        )

    def test_huge_tmax_is_one_error(self, capsys):
        """An iteration count past the float range ends in one error line."""
        assert main(["schedule", f"--tmax={10**400}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: total_iters must be at most") and err.count("\n") == 1

    _EDGE_FLAGS = (float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e300,
                   1e-300, 5e-324, 0.0, -0.0, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.one_of(st.sampled_from(_EDGE_FLAGS), st.floats()),
        nalpha=st.one_of(st.sampled_from(_EDGE_FLAGS), st.floats()),
        tmax=st.integers(1, 12),
    )
    def test_curve_is_finite_or_one_error(self, r, nalpha, tmax):
        """Any steepness and half range either end in one ``error:`` line
        and exit 1, or print a curve whose x and alpha are finite and whose
        alpha lies in [0, 1] and never decreases, without a RuntimeWarning."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["schedule", f"--r={r!r}", f"--nalpha={nalpha!r}", f"--tmax={tmax}"])
        if rc == 1:
            assert out.getvalue() == ""
            lines = err.getvalue().split("\n")
            assert len(lines) == 2 and lines[0].startswith("error:") and lines[1] == ""
            return
        assert rc == 0 and err.getvalue() == ""
        rows = out.getvalue().splitlines()[1 : tmax + 2]
        xs, alphas = np.array([[float(v) for v in row.split(",")[1:]] for row in rows]).T
        assert np.isfinite(xs).all() and np.isfinite(alphas).all()
        assert ((alphas >= 0) & (alphas <= 1)).all()
        assert (np.diff(alphas) >= 0).all()


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


# Fuzz: ``main`` on mutated copies of the tiny config, a scene generated from
# it and a run's pred/gt/mask. Each example mutates one file that its command
# reads and runs the command in-process.
_FUZZ_READS = {
    "gen-scene": ("tiny.cfg",),
    "run": ("tiny.cfg", "scene/manifest.txt", "scene/occupancy.gsdt",
            "scene/visible.gsdt", "scene/depth.gsdt", "scene/poses.gsdt"),
    "eval": ("out/pred.gsdt", "out/gt.gsdt", "out/mask.gsdt"),
}

# Replacement values for an edited line: none raises a count or extent.
_FUZZ_VALUES = ("", "0", "-1", "1", "0.5", "nan", "inf", "1e400", "abc",
                "1, 1", "1, 1, 1", "1x1x1", "3x3x1@2", "[grid]", "=")


def _fuzz_argv(command, d):
    if command == "gen-scene":
        return ["gen-scene", "--config", f"{d}/tiny.cfg", "--out", f"{d}/new"]
    if command == "run":
        return ["run", "--config", f"{d}/tiny.cfg", "--scene", f"{d}/scene",
                "--alpha", "0.5", "--out", f"{d}/new"]
    return ["eval", "--pred", f"{d}/out/pred.gsdt", "--gt", f"{d}/out/gt.gsdt",
            "--mask", f"{d}/out/mask.gsdt"]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory of every file the fuzzed commands read."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "tiny.cfg").write_text(TINY_CONFIG)
    with redirect_stdout(io.StringIO()):
        assert main(["gen-scene", "--config", str(d / "tiny.cfg"),
                     "--out", str(d / "scene")]) == 0
        assert main(["run", "--config", str(d / "tiny.cfg"), "--scene",
                     str(d / "scene"), "--alpha", "0.5", "--out", str(d / "out")]) == 0
    return d


def _mutate_gsdt(data, raw):
    header = 7 + 8 * raw[6]
    kind = data.draw(st.sampled_from(
        ["truncate", "flip-header", "flip-payload", "dtype-code", "recode"]))
    out = bytearray(raw)
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "recode":
        arr = gsdt.loads(raw)
        dtype = data.draw(st.sampled_from(
            [t for t in (np.float32, np.float64, np.uint8) if t != arr.dtype]))
        if dtype == np.uint8:
            arr = np.clip(arr, 0, 255)
        return gsdt.dumps(arr.astype(dtype))
    if kind == "dtype-code":
        out[5] = data.draw(st.integers(0, 255).filter(lambda c: c != raw[5]))
        return bytes(out)
    lo, hi = (0, header) if kind == "flip-header" else (header, len(raw))
    i = data.draw(st.integers(lo, hi - 1))
    out[i] ^= data.draw(st.integers(1, 255))
    return bytes(out)


def _mutate_text(data, raw):
    kind = data.draw(st.sampled_from(["truncate", "delete-line", "edit-line", "non-utf8"]))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "non-utf8":
        i = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
        return raw[:i] + bad + raw[i:]
    lines = raw.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "delete-line":
        del lines[i]
    else:
        key, eq, _ = lines[i].partition(b"=")
        value = data.draw(st.sampled_from(_FUZZ_VALUES)).encode()
        lines[i] = key + b"= " + value if eq else value
    return b"\n".join(lines)


def _no_larger_than_tiny(config_path):
    """Whether a config that parses asks for no larger grid, frame count,
    image or feature map than the tiny config; a deleted line falls back to
    the desk-scale defaults."""
    try:
        c = parse_config(config_path)
    except ValueError:
        return True
    s = c.scene
    sizes = (s.grid.counts, (s.n_frames,), s.image_size, s.feature_size)
    limits = ((32, 32, 4), (2,), (8, 16), (4, 8))
    return all(a <= b for size, limit in zip(sizes, limits) for a, b in zip(size, limit))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_main_on_mutated_inputs(fuzz_inputs, data):
    """Truncated files, flipped GSDT bytes, rewritten dtype codes, edited or
    deleted manifest and config lines and non-UTF-8 bytes: ``main`` returns
    0 or 1, and on 1 prints exactly one ``error:`` line."""
    command = data.draw(st.sampled_from(sorted(_FUZZ_READS)))
    target = data.draw(st.sampled_from(_FUZZ_READS[command]))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "in"
        shutil.copytree(fuzz_inputs, d)
        mutate = _mutate_gsdt if target.endswith(".gsdt") else _mutate_text
        (d / target).write_bytes(mutate(data, (d / target).read_bytes()))
        assume(_no_larger_than_tiny(str(d / "tiny.cfg")))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(_fuzz_argv(command, d))
    assert rc in (0, 1)
    if rc == 1:
        lines = err.getvalue().split("\n")
        assert len(lines) == 2 and lines[0].startswith("error:") and lines[1] == "", lines
