"""Run configuration: dataclasses with validation plus a small
``key = value`` file format.

Keys are dotted (``net.depth_bins``, ``train.lr``, ``scene.n_cars``,
``loss.lambda_depth``, ``eval.n_scenes``); values parse as JSON with a
bare-string fallback, so tuples are written as JSON lists.  Unknown keys
are rejected rather than ignored; a silently dropped override is the
kind of bug that costs an afternoon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .kitti import SyntheticSceneSpec
from .losses import LossWeights


class ConfigError(ValueError):
    """Invalid, inconsistent or unknown configuration."""


_ATTENTION_MODES = ("subtract", "multiply")
_COMBINE_MODES = ("subtract", "add", "concat")
_SAMPLING_MODES = ("KPS", "FPS")


@dataclass
class NetworkConfig:
    """Architecture knobs for the full two-stream detector.

    Defaults are the full-scale settings; ``desk()`` builds the scaled
    configuration every test and CLI run uses by default.
    """

    image_height: int = 384
    image_width: int = 1280
    encoder_channels: tuple = (8, 16, 32)
    encoder_strides: tuple = (2, 2, 1)
    feature_channels: int = 16
    depth_bins: int = 80
    depth_min: float = 0.0
    depth_max: float = 70.4

    n_foreground: int = 4096      # mask-selected pool fed to both branches
    n_raw: int = 1600             # LiDAR points entering the point stream
    n_pseudo: int = 480           # pseudo points lifted from the image
    raw_stages: tuple = (800, 400, 200, 100)
    pseudo_stages: tuple = (240, 120, 60, 30)
    stage_channels: tuple = (16, 32, 48, 64)
    l_group: int = 16             # neighbourhood size for grouping/attention

    pft_enabled: bool = True      # per-stage cross-modal links
    pft_final: bool = True        # fusion of the two decoder outputs
    attn_down: str = "subtract"
    attn_up: str = "subtract"
    attn_fusion: str = "multiply"
    combine_mode: str = "subtract"
    sampling_mode: str = "KPS"

    vote_hidden: int = 64
    head_hidden: int = 64
    score_threshold: float = 0.3
    nms_test: float = 0.85

    @classmethod
    def desk(cls) -> "NetworkConfig":
        return cls(
            image_height=32, image_width=64,
            encoder_channels=(6, 10), encoder_strides=(2, 2),
            feature_channels=8, depth_bins=24,
            n_foreground=256, n_raw=128, n_pseudo=48,
            raw_stages=(64, 32, 16, 8), pseudo_stages=(24, 16, 12, 8),
            stage_channels=(12, 16, 20, 24), l_group=8,
            vote_hidden=24, head_hidden=24,
        )

    @property
    def stride(self) -> int:
        s = 1
        for v in self.encoder_strides:
            s *= v
        return s

    def validate(self) -> None:
        if len(self.encoder_channels) != len(self.encoder_strides):
            raise ConfigError("encoder_channels and encoder_strides must pair up")
        if self.image_height % self.stride or self.image_width % self.stride:
            raise ConfigError(f"image {self.image_height}x{self.image_width} not divisible by stride {self.stride}")
        if not 0.0 <= self.depth_min < self.depth_max:
            raise ConfigError("need 0 <= depth_min < depth_max")
        if self.depth_bins < 2:
            raise ConfigError("depth_bins must be >= 2")
        if len(self.raw_stages) != len(self.stage_channels) or len(self.pseudo_stages) != len(self.stage_channels):
            raise ConfigError("stage size tuples must match stage_channels in length")
        for name, sizes, head in (("raw", self.raw_stages, self.n_raw),
                                  ("pseudo", self.pseudo_stages, self.n_pseudo)):
            prev = head
            for m in sizes:
                if not 1 <= m < prev:
                    raise ConfigError(f"{name} stage sizes must strictly decrease from {head}, got {sizes}")
                prev = m
            if self.l_group > sizes[-1]:
                raise ConfigError(f"l_group={self.l_group} exceeds smallest {name} stage {sizes[-1]}")
        if self.n_raw > self.n_foreground or self.n_pseudo > self.n_foreground:
            raise ConfigError("branch inputs cannot exceed the foreground pool")
        if self.attn_down not in _ATTENTION_MODES or self.attn_up not in _ATTENTION_MODES \
                or self.attn_fusion not in _ATTENTION_MODES:
            raise ConfigError(f"attention modes must be one of {_ATTENTION_MODES}")
        if self.combine_mode not in _COMBINE_MODES:
            raise ConfigError(f"combine_mode must be one of {_COMBINE_MODES}")
        if self.sampling_mode not in _SAMPLING_MODES:
            raise ConfigError(f"sampling_mode must be one of {_SAMPLING_MODES}")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ConfigError("score_threshold must lie in [0, 1]")
        if not 0.0 < self.nms_test <= 1.0:
            raise ConfigError("nms_test must lie in (0, 1]")


@dataclass
class TrainSettings:
    steps: int = 200
    lr: float = 0.01
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    log_every: int = 20

    def validate(self) -> None:
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.lr < 0.0:
            raise ConfigError("lr must be >= 0")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError("betas must lie in [0, 1)")
        if self.weight_decay < 0.0 or self.eps <= 0.0:
            raise ConfigError("weight_decay >= 0 and eps > 0 required")


@dataclass
class EvalSettings:
    n_scenes: int = 2
    overlap: str = "bev"          # bev or 3d box overlap for AP matching
    max_difficulty: int = 2

    def validate(self) -> None:
        if self.n_scenes < 1:
            raise ConfigError("n_scenes must be >= 1")
        if self.overlap not in ("bev", "3d"):
            raise ConfigError("overlap must be 'bev' or '3d'")
        if not 0 <= self.max_difficulty <= 3:
            raise ConfigError("max_difficulty must lie in [0, 3]")


@dataclass
class RunConfig:
    net: NetworkConfig = field(default_factory=NetworkConfig.desk)
    loss: LossWeights = field(default_factory=LossWeights)
    scene: SyntheticSceneSpec = field(default_factory=SyntheticSceneSpec)
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def validate(self) -> None:
        self.net.validate()
        self.train.validate()
        self.eval.validate()
        # every loss term is non-negative by construction only while its
        # weight is; `not v >= 0` also rejects NaN
        for f in fields(self.loss):
            v = getattr(self.loss, f.name)
            if f.name == "focal_alpha":
                if not 0.0 <= v <= 1.0:
                    raise ConfigError(f"loss.focal_alpha must lie in [0, 1], got {v}")
            elif not v >= 0.0:
                raise ConfigError(f"loss.{f.name} must be >= 0, got {v}")
        if (self.scene.image_height, self.scene.image_width) != (self.net.image_height, self.net.image_width):
            raise ConfigError(
                f"scene raster {self.scene.image_height}x{self.scene.image_width} must match "
                f"net input {self.net.image_height}x{self.net.image_width}")


_SECTIONS = ("net", "loss", "scene", "train", "eval")


def _parse_value(raw: str):
    try:
        v = json.loads(raw)
    except json.JSONDecodeError:
        return raw
    return tuple(v) if isinstance(v, list) else v


def apply_override(cfg: RunConfig, key: str, raw_value: str) -> None:
    """Set one dotted key, e.g. apply_override(cfg, 'train.lr', '0.02')."""
    section, _, name = key.partition(".")
    if section not in _SECTIONS or not name:
        raise ConfigError(f"unknown config key: {key!r}")
    target = getattr(cfg, section)
    valid = {f.name for f in fields(target)}
    if name not in valid:
        raise ConfigError(f"unknown config key: {key!r}")
    setattr(target, name, _typed(key, getattr(target, name), _parse_value(raw_value), raw_value))


_KINDS = {bool: (bool, "true/false"), int: (int, "an integer"), float: ((int, float), "a number")}


def _typed(key: str, current, value, raw_value: str):
    """value checked against the default ``current``'s type, a tuple's
    elements against its first's (every default tuple holds one type; a
    bool is no number); a number for a float becomes a float."""
    if isinstance(current, tuple):
        if not isinstance(value, tuple):
            raise ConfigError(f"{key} expects a JSON list, got {raw_value!r}")
        return tuple(_typed(f"{key}[{i}]", current[0], v, raw_value) for i, v in enumerate(value))
    if type(current) not in _KINDS:
        return value
    kind, want = _KINDS[type(current)]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{key} expects {want}, got {raw_value!r}")
    return float(value) if type(current) is float else value


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``key = value`` lines (# comments) on top of ``base``."""
    cfg = base if base is not None else RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        try:
            apply_override(cfg, key.strip(), raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return cfg


def flatten_config(cfg: RunConfig) -> dict:
    """Dotted-key dict of every setting, for run manifests."""
    out = {}
    for section in _SECTIONS:
        target = getattr(cfg, section)
        for f in fields(target):
            v = getattr(target, f.name)
            out[f"{section}.{f.name}"] = list(v) if isinstance(v, tuple) else v
    return out


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base)
