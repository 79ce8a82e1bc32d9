"""Plain-text pipeline configuration.

Files are in ``keyfile``'s ``[section]`` / ``key = value`` format. Each key
is one row of ``_KEYS`` and has a default, so an empty file is a valid
desk-scale configuration; unknown sections or keys are errors, as are values
that break cross-module shape constraints. The [grid], [depth] max and
[scene] rows are ``scene.SCENE_KEYS``'s: ``scene.build_spec`` builds them
into the config's one ``SceneSpec``, as it does a scene manifest's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import keyfile
from .keyfile import ConfigError, integer, number
from .reparam import check_fit, default_branch_extents
from .scene import SCENE_KEYS, SceneSpec, build_spec
from .tensor import effective_extents
from .view import GridSpec


@dataclass(frozen=True)
class PipelineConfig:
    scene: SceneSpec
    depth_bins: int = 16
    d_min: float = 1.0
    queue_len: int = 15
    channels: int = 32
    refined_channels: int = 32
    kernel: tuple[int, int, int] = (11, 11, 1)
    branches: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...] | None = None
    seed: int = 0
    depth_provider: str = "gt"

    def __post_init__(self):
        """The config's own keys and the rules across keys; ``scene`` checks its own."""
        branch_entries = [n for ext, dil in self.branches or () for n in ext + dil]
        for key, value, low in (
            ("[depth] bins", self.depth_bins, 1),
            ("[temporal] queue", self.queue_len, 1),
            ("[channels] base", self.channels, 1),
            ("[channels] refined", self.refined_channels, 1),
            ("[pipeline] seed", self.seed, 0),
            ("[reparam] kernel entries", min(self.kernel), 1),
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
        d_max = self.scene.d_max
        if not d_max > self.d_min > 0:
            raise ConfigError(
                f"[depth] min and max: need 0 < depth min < max, got {self.d_min}, {d_max}"
            )
        nx, ny, nz = self.scene.grid.counts
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

    def branch_extents(self):
        if self.branches is not None:
            return list(self.branches)
        return default_branch_extents(self.kernel)

    # Three perfbench reads of the scene; the program reads ``scene`` itself.
    grid = property(lambda self: self.scene.grid)  # perfbench/workloads.py
    scene_frames = property(lambda self: self.scene.n_frames)  # perfbench/run.py

    def scene_spec(self) -> SceneSpec:  # perfbench/workloads.py
        return self.scene


def default_config() -> PipelineConfig:
    """Desk-scale defaults: a 38.4m x 38.4m x 3.2m grid of 0.4m voxels,
    two cameras, and a 16-frame temporal window."""
    grid = GridSpec((-19.2, -19.2, -1.0), (19.2, 19.2, 2.2), (96, 96, 8))
    return PipelineConfig(scene=SceneSpec(seed=7, grid=grid, n_frames=16))


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
            d = integer(dil_s.strip(), f"{where}: branch dilation")
            dil = (d, d, d)
        branches.append((ext, dil))
    return tuple(branches)


# Each config key once, as a ``keyfile`` table: the ``SCENE_KEYS`` rows
# ([grid], [depth] max and [scene]) set the fields of the config's
# ``SceneSpec``, all others PipelineConfig's.
_KEYS = {
    "grid": SCENE_KEYS["grid"],
    "depth": {"bins": ("depth_bins", integer), "min": ("d_min", number), **SCENE_KEYS["depth"]},
    "temporal": {"queue": ("queue_len", integer)},
    "channels": {"base": ("channels", integer), "refined": ("refined_channels", integer)},
    "reparam": {
        "kernel": ("kernel", _parse_triple),
        "branches": ("branches", _parse_branches),
    },
    "pipeline": {
        "seed": ("seed", integer),
        "depth_provider": ("depth_provider", lambda value, _: value),
    },
    "scene": SCENE_KEYS["scene"],
}


def parse_config(path: str) -> PipelineConfig:
    """Load and validate a configuration file; unknown keys are errors."""
    values = keyfile.read(path, "config file", _KEYS)
    scene = build_spec(values, default_config().scene)
    fields = {field: v for section in values.values() for field, v in section.items()}
    return replace(default_config(), scene=scene, **fields)
