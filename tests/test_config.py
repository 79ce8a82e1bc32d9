import configparser
import re
from pathlib import Path

import pytest

from occkit.config import _KEYS, ConfigError, PipelineConfig, default_config, parse_config
from occkit.view import GridSpec


def write_config(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


class TestDefaults:
    def test_default_grid(self):
        cfg = default_config()
        assert cfg.grid.counts == (96, 96, 8)
        assert cfg.grid.start == (-19.2, -19.2, -1.0)
        assert cfg.depth_bins == 16
        assert cfg.queue_len == 15
        assert cfg.kernel == (11, 11, 1)
        assert cfg.depth_provider == "gt"

    def test_empty_file_equals_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, ""))
        assert cfg == default_config()

    def test_half_grid(self):
        half = default_config().half_grid()
        assert half.counts == (48, 48, 4)

    def test_default_branch_extents(self):
        exts = default_config().branch_extents()
        assert exts[0] == ((11, 11, 1), (1, 1, 1))
        assert len(exts) == 3

    def test_scene_spec_inherits_depth_range(self):
        cfg = default_config()
        spec = cfg.scene_spec()
        assert spec.d_max == cfg.d_max
        assert spec.grid == cfg.grid
        assert spec.n_frames == cfg.scene_frames


class TestParsing:
    def test_full_file(self, tmp_path):
        cfg = parse_config(
            write_config(
                tmp_path,
                """
# comment line
[grid]
start = -8.0, -8.0, -1.0
end = 8.0, 8.0, 1.0
counts = 32, 32, 4

[depth]
bins = 8
min = 0.5
max = 12.0

[temporal]
queue = 3

[channels]
base = 8
refined = 16

[reparam]
kernel = 7x7x1
branches = 7x7x1, 3x3x1@2

[pipeline]
seed = 42
depth_provider = stub

[scene]
seed = 9
frames = 4
boxes = 5
cameras = 1
image = 64, 128
features = 8, 16
focal = 64.0
march_step = 0.05
speed = 0.5
yaw_rate = 0.01
""",
            )
        )
        assert cfg.grid == GridSpec((-8, -8, -1), (8, 8, 1), (32, 32, 4))
        assert cfg.depth_bins == 8
        assert cfg.d_min == 0.5
        assert cfg.d_max == 12.0
        assert cfg.queue_len == 3
        assert cfg.channels == 8
        assert cfg.refined_channels == 16
        assert cfg.kernel == (7, 7, 1)
        assert cfg.branches == (((7, 7, 1), (1, 1, 1)), ((3, 3, 1), (2, 2, 2)))
        assert cfg.seed == 42
        assert cfg.depth_provider == "stub"
        assert cfg.scene_seed == 9
        assert cfg.scene_frames == 4
        assert cfg.scene_boxes == 5
        assert cfg.scene_cameras == 1
        assert cfg.scene_image == (64, 128)
        assert cfg.scene_features == (8, 16)
        assert cfg.scene_focal == 64.0
        assert cfg.scene_march_step == 0.05
        assert cfg.scene_speed == 0.5
        assert cfg.scene_yaw_rate == 0.01

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "[temporal]\nqueue = 2\n"))
        assert cfg.queue_len == 2
        assert cfg.grid == default_config().grid
        assert cfg.depth_bins == 16

    def test_branch_dilation_shorthand(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, "[reparam]\nbranches = 5x5x1@2x2x1, 3x3x1@3\n")
        )
        assert cfg.branches == (((5, 5, 1), (2, 2, 1)), ((3, 3, 1), (3, 3, 3)))

    def test_branches_default_keyword(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "[reparam]\nbranches = default\n"))
        assert cfg.branches is None

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config(write_config(tmp_path, "[nonsense]\nfoo = 1\n"))
        # the mixup schedule is set by `occ schedule` flags, not by the config
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config(write_config(tmp_path, "[schedule]\nsteepness = 2.5\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write_config(tmp_path, "[depth]\nbinns = 8\n"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_malformed_syntax_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(write_config(tmp_path, "no section header\n"))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[depth]\nbins = eight\n", "integer"),
            ("[depth]\nmin = half\n", "must be a number"),
            ("[grid]\nstart = 1.0, two, 3.0\n", "non-numeric entry"),
            ("[scene]\nimage = 64, wide\n", "non-integer entry"),
        ],
        ids=["int-scalar", "float-scalar", "float-vector", "int-vector"],
    )
    def test_non_numeric_value_rejected(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[grid]\nstart = nan, -19.2, -1.0\n", r"^\[grid\] start has a non-finite entry"),
            ("[grid]\nend = 19.2, inf, 2.2\n", r"^\[grid\] end has a non-finite entry"),
            ("[depth]\nmax = inf\n", r"^\[depth\] max must be finite"),
            ("[scene]\nspeed = nan\n", r"^\[scene\] speed must be finite"),
            ("[scene]\nyaw_rate = nan\n", r"^\[scene\] yaw_rate must be finite"),
            ("[scene]\nmarch_step = inf\n", r"^\[scene\] march_step must be finite"),
            ("[scene]\nfocal = -inf\n", r"^\[scene\] focal must be finite"),
        ],
        ids=["grid-start", "grid-end", "depth-max", "speed", "yaw-rate", "march-step",
             "focal"],
    )
    def test_non_finite_value_rejected(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, text))

    def test_unknown_key_reported_before_bad_value(self, tmp_path):
        text = "[depth]\nbins = eight\n[scene]\nbinns = 8\n"
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write_config(tmp_path, text))

    def test_bad_triple_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="AxBxC"):
            parse_config(write_config(tmp_path, "[reparam]\nkernel = 7x7\n"))

    @pytest.mark.parametrize(
        "branches",
        ["3x3", "3x3x1, ", "3x3x1@2x2", "3x3x1@two", "3xAx1"],
        ids=["extents", "empty-entry", "dilation-triple", "dilation-scalar", "non-integer"],
    )
    def test_branch_syntax_error_names_key(self, tmp_path, branches):
        text = f"[reparam]\nbranches = {branches}\n"
        with pytest.raises(ConfigError, match=r"^\[reparam\] branches: "):
            parse_config(write_config(tmp_path, text))

    def test_bad_grid_tuple_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="comma-separated"):
            parse_config(write_config(tmp_path, "[grid]\nstart = 1.0, 2.0\n"))


class TestValidation:
    def grid(self, counts=(32, 32, 4)):
        return GridSpec((-8, -8, -1), (8, 8, 1), counts)

    def test_rejects_indivisible_horizontal_counts(self):
        with pytest.raises(ConfigError, match="divisible by 8"):
            PipelineConfig(grid=self.grid((30, 32, 4)))

    def test_rejects_odd_height_count(self):
        with pytest.raises(ConfigError, match="even"):
            PipelineConfig(grid=self.grid((32, 32, 5)))

    def test_rejects_bad_depth_range(self):
        with pytest.raises(ConfigError, match="depth min"):
            PipelineConfig(grid=self.grid(), d_min=5.0, d_max=1.0)

    def test_rejects_bad_provider(self):
        with pytest.raises(ConfigError, match="depth_provider"):
            PipelineConfig(grid=self.grid(), depth_provider="oracle")

    def test_rejects_bad_queue(self):
        with pytest.raises(ConfigError, match="queue"):
            PipelineConfig(grid=self.grid(), queue_len=0)

    def test_rejects_bad_channels(self):
        with pytest.raises(ConfigError, match="channel"):
            PipelineConfig(grid=self.grid(), channels=0)

    @pytest.mark.parametrize(
        "field,value,key",
        [
            ("scene_features", (0, 44), "[scene] features"),
            ("scene_image", (256, 0), "[scene] image"),
            ("seed", -1, "[pipeline] seed"),
            ("scene_seed", -1, "[scene] seed"),
            ("kernel", (0, 0, 0), "[reparam] kernel"),
            pytest.param("scene_cameras", 0, "[scene] cameras", id="cameras"),
            pytest.param("scene_boxes", -1, "[scene] boxes", id="boxes"),
            pytest.param("scene_focal", 0.0, "[scene] focal", id="focal"),
            pytest.param("scene_focal", float("nan"), "[scene] focal", id="focal-nan"),
            pytest.param("scene_march_step", 0.0, "[scene] march_step", id="march-step"),
            pytest.param(
                "branches", (((3, 3, 1), (1, 1, 1)), ((0, 0, 0), (1, 1, 1))),
                "[reparam] branches", id="branch-extent",
            ),
            pytest.param(
                "branches", (((3, 3, 1), (0, 0, 0)),), "[reparam] branches",
                id="branch-dilation",
            ),
            pytest.param("depth_bins", 0, "[depth] bins", id="depth-bins"),
            pytest.param("queue_len", 0, "[temporal] queue", id="queue"),
            pytest.param("channels", 0, "[channels] base", id="channels-base"),
            pytest.param("refined_channels", 0, "[channels] refined", id="channels-refined"),
            pytest.param("scene_frames", 0, "[scene] frames", id="frames"),
            pytest.param("d_min", 30.0, "[depth] min and max", id="depth-range"),
            pytest.param(
                "grid", GridSpec((-8, -8, -1), (8, 8, 1), (30, 32, 4)), "[grid] counts",
                id="grid-horizontal",
            ),
            pytest.param(
                "grid", GridSpec((-8, -8, -1), (8, 8, 1), (32, 32, 5)), "[grid] counts",
                id="grid-height",
            ),
            pytest.param("depth_provider", "oracle", "[pipeline] depth_provider", id="provider"),
        ],
    )
    def test_rejects_out_of_range_value(self, field, value, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            PipelineConfig(**{"grid": self.grid(), field: value})

    def test_accepts_smallest_valid_values(self):
        PipelineConfig(
            grid=self.grid(), seed=0, scene_seed=0, kernel=(1, 1, 1),
            scene_image=(1, 1), scene_features=(1, 1), scene_cameras=1,
            scene_boxes=0, branches=(((1, 1, 1), (1, 1, 1)),),
        )

    def test_config_error_via_parse(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[grid]\ncounts = 30, 32, 4\n")
        with pytest.raises(ConfigError, match="divisible by 8"):
            parse_config(str(p))


class TestReadme:
    """The README's INI block documents every key at its default value."""

    def ini_block(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        return re.search(r"```ini\n(.*?)```", readme, re.S).group(1)

    def test_block_parses_to_defaults(self, tmp_path):
        assert parse_config(write_config(tmp_path, self.ini_block())) == default_config()

    def test_block_lists_every_key(self):
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        cp.read_string(self.ini_block())
        documented = {(s, k) for s in cp.sections() for k in cp[s]}
        assert documented == {(s, k) for s, rows in _KEYS.items() for k in rows}
