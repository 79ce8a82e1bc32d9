"""Plain-text pipeline configuration.

Files use ``[section]`` / ``key = value`` syntax with ``#`` comments. Every
key has a default, so an empty file is a valid desk-scale configuration;
unknown sections or keys are errors, as are values that break cross-module
shape constraints.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

from .reparam import default_branch_extents
from .scene import SceneSpec
from .view import GridSpec

_SCHEMA = {
    "grid": {"start", "end", "counts"},
    "depth": {"bins", "min", "max"},
    "temporal": {"queue"},
    "channels": {"base", "refined"},
    "reparam": {"kernel", "branches"},
    "pipeline": {"seed", "depth_provider"},
    "scene": {
        "seed",
        "frames",
        "boxes",
        "cameras",
        "image",
        "features",
        "focal",
        "march_step",
        "speed",
        "yaw_rate",
    },
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    grid: GridSpec
    depth_bins: int = 16
    d_min: float = 1.0
    d_max: float = 25.0
    queue_len: int = 15
    channels: int = 32
    refined_channels: int = 32
    kernel: tuple[int, int, int] = (11, 11, 1)
    branches: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...] | None = None
    seed: int = 0
    depth_provider: str = "gt"
    scene_seed: int = 7
    scene_frames: int = 16
    scene_boxes: int = 8
    scene_cameras: int = 2
    scene_image: tuple[int, int] = (256, 704)
    scene_features: tuple[int, int] = (16, 44)
    scene_focal: float = 352.0
    scene_march_step: float = 0.1
    scene_speed: float = 0.4
    scene_yaw_rate: float = 0.0

    def __post_init__(self):
        if self.depth_bins < 1:
            raise ConfigError(f"depth bins must be >= 1, got {self.depth_bins}")
        if not self.d_max > self.d_min > 0:
            raise ConfigError(
                f"need 0 < depth min < max, got {self.d_min}, {self.d_max}"
            )
        if self.queue_len < 1:
            raise ConfigError(f"temporal queue must be >= 1, got {self.queue_len}")
        if self.channels < 1 or self.refined_channels < 1:
            raise ConfigError("channel widths must be >= 1")
        nx, ny, nz = self.grid.counts
        # BEV work runs at half resolution and the 2D encoder downsamples
        # twice more, so the horizontal counts must be divisible by 8 and the
        # height count by 2.
        if nx % 8 or ny % 8:
            raise ConfigError(
                f"horizontal voxel counts must be divisible by 8, got ({nx}, {ny})"
            )
        if nz % 2:
            raise ConfigError(f"height voxel count must be even, got {nz}")
        if self.depth_provider not in ("gt", "stub"):
            raise ConfigError(
                f"depth_provider must be 'gt' or 'stub', got {self.depth_provider!r}"
            )
        if self.scene_frames < 1:
            raise ConfigError(f"scene frames must be >= 1, got {self.scene_frames}")

    def half_grid(self) -> GridSpec:
        return self.grid.downsample(2)

    def branch_extents(self):
        if self.branches is not None:
            return list(self.branches)
        return default_branch_extents(self.kernel)

    def scene_spec(self) -> SceneSpec:
        return SceneSpec(
            seed=self.scene_seed,
            grid=self.grid,
            n_frames=self.scene_frames,
            n_boxes=self.scene_boxes,
            n_cameras=self.scene_cameras,
            image_size=self.scene_image,
            feature_size=self.scene_features,
            focal=self.scene_focal,
            d_max=self.d_max,
            march_step=self.scene_march_step,
            speed=self.scene_speed,
            yaw_rate=self.scene_yaw_rate,
        )


def default_config() -> PipelineConfig:
    """Desk-scale defaults: a 38.4m x 38.4m x 3.2m grid of 0.4m voxels,
    two cameras, and a 16-frame temporal window."""
    return PipelineConfig(
        grid=GridSpec((-19.2, -19.2, -1.0), (19.2, 19.2, 2.2), (96, 96, 8))
    )


def _floats(value: str, n: int, where: str) -> tuple[float, ...]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != n:
        raise ConfigError(f"{where} needs {n} comma-separated values, got {value!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{where} has a non-numeric entry: {value!r}") from None


def _ints(value: str, n: int, where: str) -> tuple[int, ...]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != n:
        raise ConfigError(f"{where} needs {n} comma-separated values, got {value!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{where} has a non-integer entry: {value!r}") from None


def _int(value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where} must be an integer, got {value!r}") from None


def _float(value: str, where: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _parse_triple(text: str, where: str) -> tuple[int, int, int]:
    parts = text.split("x")
    if len(parts) != 3:
        raise ConfigError(f"{where} must look like AxBxC, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{where} has a non-integer entry: {text!r}") from None


def _parse_branches(value: str):
    """Branch list syntax: ``5x5x1@2x2x1, 3x3x1@3`` (extents@dilation)."""
    if value.strip() == "default":
        return None
    branches = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            raise ConfigError(f"empty branch entry in {value!r}")
        ext_s, sep, dil_s = item.partition("@")
        ext = _parse_triple(ext_s.strip(), "branch extents")
        if not sep:
            dil = (1, 1, 1)
        elif "x" in dil_s:
            dil = _parse_triple(dil_s.strip(), "branch dilation")
        else:
            d = _int(dil_s.strip(), "branch dilation")
            dil = (d, d, d)
        branches.append((ext, dil))
    return tuple(branches)


def parse_config(path: str) -> PipelineConfig:
    """Load and validate a configuration file; unknown keys are errors."""
    cp = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",)
    )
    cp.optionxform = str
    try:
        with open(path) as f:
            cp.read_file(f)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"malformed config file {path}: {e}") from None

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, default=None):
        if cp.has_section(section) and key in cp[section]:
            return cp[section][key]
        return default

    base = default_config()
    grid = base.grid
    if cp.has_section("grid"):
        start = grid.start
        end = grid.end
        counts = grid.counts
        if "start" in cp["grid"]:
            start = _floats(cp["grid"]["start"], 3, "[grid] start")
        if "end" in cp["grid"]:
            end = _floats(cp["grid"]["end"], 3, "[grid] end")
        if "counts" in cp["grid"]:
            counts = _ints(cp["grid"]["counts"], 3, "[grid] counts")
        try:
            grid = GridSpec(start, end, counts)
        except ValueError as e:
            raise ConfigError(f"invalid [grid]: {e}") from None

    kwargs = dict(grid=grid)
    if get("depth", "bins") is not None:
        kwargs["depth_bins"] = _int(get("depth", "bins"), "[depth] bins")
    if get("depth", "min") is not None:
        kwargs["d_min"] = _float(get("depth", "min"), "[depth] min")
    if get("depth", "max") is not None:
        kwargs["d_max"] = _float(get("depth", "max"), "[depth] max")
    if get("temporal", "queue") is not None:
        kwargs["queue_len"] = _int(get("temporal", "queue"), "[temporal] queue")
    if get("channels", "base") is not None:
        kwargs["channels"] = _int(get("channels", "base"), "[channels] base")
    if get("channels", "refined") is not None:
        kwargs["refined_channels"] = _int(get("channels", "refined"), "[channels] refined")
    if get("reparam", "kernel") is not None:
        kwargs["kernel"] = _parse_triple(get("reparam", "kernel"), "[reparam] kernel")
    if get("reparam", "branches") is not None:
        kwargs["branches"] = _parse_branches(get("reparam", "branches"))
    if get("pipeline", "seed") is not None:
        kwargs["seed"] = _int(get("pipeline", "seed"), "[pipeline] seed")
    if get("pipeline", "depth_provider") is not None:
        kwargs["depth_provider"] = get("pipeline", "depth_provider")
    if get("scene", "seed") is not None:
        kwargs["scene_seed"] = _int(get("scene", "seed"), "[scene] seed")
    if get("scene", "frames") is not None:
        kwargs["scene_frames"] = _int(get("scene", "frames"), "[scene] frames")
    if get("scene", "boxes") is not None:
        kwargs["scene_boxes"] = _int(get("scene", "boxes"), "[scene] boxes")
    if get("scene", "cameras") is not None:
        kwargs["scene_cameras"] = _int(get("scene", "cameras"), "[scene] cameras")
    if get("scene", "image") is not None:
        kwargs["scene_image"] = _ints(get("scene", "image"), 2, "[scene] image")
    if get("scene", "features") is not None:
        kwargs["scene_features"] = _ints(get("scene", "features"), 2, "[scene] features")
    if get("scene", "focal") is not None:
        kwargs["scene_focal"] = _float(get("scene", "focal"), "[scene] focal")
    if get("scene", "march_step") is not None:
        kwargs["scene_march_step"] = _float(get("scene", "march_step"), "[scene] march_step")
    if get("scene", "speed") is not None:
        kwargs["scene_speed"] = _float(get("scene", "speed"), "[scene] speed")
    if get("scene", "yaw_rate") is not None:
        kwargs["scene_yaw_rate"] = _float(get("scene", "yaw_rate"), "[scene] yaw_rate")

    try:
        return replace(default_config(), **kwargs)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None
