"""Plain-text pipeline configuration.

Files use ``[section]`` / ``key = value`` syntax with ``#`` comments. Each
key is one row of ``_KEYS`` and has a default, so an empty file is a valid
desk-scale configuration; unknown sections or keys are errors, as are values
that break cross-module shape constraints.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .reparam import check_fit, default_branch_extents
from .scene import SceneSpec
from .tensor import effective_extents
from .view import GridSpec


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
        branch_entries = [n for ext, dil in self.branches or () for n in ext + dil]
        for key, value, low in (
            ("[depth] bins", self.depth_bins, 1),
            ("[temporal] queue", self.queue_len, 1),
            ("[channels] base", self.channels, 1),
            ("[channels] refined", self.refined_channels, 1),
            ("[scene] frames", self.scene_frames, 1),
            ("[pipeline] seed", self.seed, 0),
            ("[scene] seed", self.scene_seed, 0),
            ("[reparam] kernel entries", min(self.kernel), 1),
            ("[scene] image entries", min(self.scene_image), 1),
            ("[scene] features entries", min(self.scene_features), 1),
            ("[scene] cameras", self.scene_cameras, 1),
            ("[scene] boxes", self.scene_boxes, 0),
            ("[reparam] branches entries", min(branch_entries, default=1), 1),
        ):
            if value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        # Each branch must merge into the kernel: reparam's fit-and-parity
        # rule. Default branches always do.
        for ext, dil in self.branches or ():
            try:
                check_fit(effective_extents(ext, dil), self.kernel)
            except ValueError as e:
                raise ConfigError(f"[reparam] branches: {e}") from None
        for key, value in (
            ("[scene] focal", self.scene_focal),
            ("[scene] march_step", self.scene_march_step),
        ):
            if not value > 0:
                raise ConfigError(f"{key} must be > 0, got {value}")
        if not self.d_max > self.d_min > 0:
            raise ConfigError(
                f"[depth] min and max: need 0 < depth min < max, got {self.d_min}, {self.d_max}"
            )
        nx, ny, nz = self.grid.counts
        # BEV work runs at half resolution and the 2D encoder downsamples
        # twice more, so the horizontal counts must be divisible by 8 and the
        # height count by 2.
        if nx % 8 or ny % 8:
            raise ConfigError(
                f"[grid] counts: horizontal voxel counts must be divisible by 8, got ({nx}, {ny})"
            )
        if nz % 2:
            raise ConfigError(f"[grid] counts: height voxel count must be even, got {nz}")
        if self.depth_provider not in ("gt", "stub"):
            raise ConfigError(
                f"[pipeline] depth_provider must be 'gt' or 'stub', got {self.depth_provider!r}"
            )

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
    grid = GridSpec((-19.2, -19.2, -1.0), (19.2, 19.2, 2.2), (96, 96, 8))
    return PipelineConfig(grid=grid)


def _finite(kind, values) -> bool:
    return kind is not float or all(math.isfinite(v) for v in values)


def _scalar(kind, noun: str):
    def parse(value: str, where: str):
        try:
            out = kind(value)
        except ValueError:
            raise ConfigError(f"{where} must be {noun}, got {value!r}") from None
        if not _finite(kind, [out]):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        return out
    return parse


def _vector(kind, n: int, noun: str):
    def parse(value: str, where: str):
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != n:
            raise ConfigError(f"{where} needs {n} comma-separated values, got {value!r}")
        try:
            out = tuple(kind(p) for p in parts)
        except ValueError:
            raise ConfigError(f"{where} has a {noun} entry: {value!r}") from None
        if not _finite(kind, out):
            raise ConfigError(f"{where} has a non-finite entry: {value!r}")
        return out
    return parse


_int, _float = _scalar(int, "an integer"), _scalar(float, "a number")


def _parse_triple(text: str, where: str) -> tuple[int, int, int]:
    parts = text.split("x")
    if len(parts) != 3:
        raise ConfigError(f"{where} must look like AxBxC, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{where} has a non-integer entry: {text!r}") from None


def _parse_branches(value: str, where: str):
    """Branch list syntax: ``5x5x1@2x2x1, 3x3x1@3`` (extents@dilation)."""
    if value.strip() == "default":
        return None
    branches = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            raise ConfigError(f"{where}: empty branch entry in {value!r}")
        ext_s, sep, dil_s = item.partition("@")
        ext = _parse_triple(ext_s.strip(), f"{where}: branch extents")
        if not sep:
            dil = (1, 1, 1)
        elif "x" in dil_s:
            dil = _parse_triple(dil_s.strip(), f"{where}: branch dilation")
        else:
            d = _int(dil_s.strip(), f"{where}: branch dilation")
            dil = (d, d, d)
        branches.append((ext, dil))
    return tuple(branches)


# Each config key once, as {section: {key: (field, parser(value, where))}};
# [grid] fields are GridSpec's, all others PipelineConfig's.
_KEYS = {
    "grid": {
        "start": ("start", _vector(float, 3, "non-numeric")),
        "end": ("end", _vector(float, 3, "non-numeric")),
        "counts": ("counts", _vector(int, 3, "non-integer")),
    },
    "depth": {
        "bins": ("depth_bins", _int),
        "min": ("d_min", _float),
        "max": ("d_max", _float),
    },
    "temporal": {"queue": ("queue_len", _int)},
    "channels": {"base": ("channels", _int), "refined": ("refined_channels", _int)},
    "reparam": {
        "kernel": ("kernel", _parse_triple),
        "branches": ("branches", _parse_branches),
    },
    "pipeline": {
        "seed": ("seed", _int),
        "depth_provider": ("depth_provider", lambda value, _: value),
    },
    "scene": {
        "seed": ("scene_seed", _int),
        "frames": ("scene_frames", _int),
        "boxes": ("scene_boxes", _int),
        "cameras": ("scene_cameras", _int),
        "image": ("scene_image", _vector(int, 2, "non-integer")),
        "features": ("scene_features", _vector(int, 2, "non-integer")),
        "focal": ("scene_focal", _float),
        "march_step": ("scene_march_step", _float),
        "speed": ("scene_speed", _float),
        "yaw_rate": ("scene_yaw_rate", _float),
    },
}


def parse_config(path: str) -> PipelineConfig:
    """Load and validate a configuration file; unknown keys are errors."""
    cp = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",)
    )
    cp.optionxform = str
    try:
        with open(path, encoding="utf-8") as f:
            cp.read_file(f)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8 text: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"malformed config file {path}: {e}") from None

    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    grid_fields, fields = {}, {}
    for section, rows in _KEYS.items():
        for key, (field, parse) in rows.items():
            if cp.has_option(section, key):
                out = grid_fields if section == "grid" else fields
                out[field] = parse(cp[section][key], f"[{section}] {key}")
    try:
        grid = replace(default_config().grid, **grid_fields)
    except ValueError as e:
        raise ConfigError(f"invalid [grid]: {e}") from None
    try:
        return replace(default_config(), grid=grid, **fields)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None
