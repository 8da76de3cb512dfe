"""Parsers and serialisers that only the tests use.

The library writes KITTI calibration, scan and label files (``pointfuse
genscene``), detection rows and run configs, but reads none of them back.
The tests round-trip the writers through the readers here.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from pointfuse.boxes import Box3D, BoxError, DetectionResult, normalize_angle
from pointfuse.config import _SECTIONS, RunConfig
from pointfuse.geometry import Calibration, PointSet
from pointfuse.kitti import LabeledObject, difficulty_of


# -- KITTI files -------------------------------------------------------------------


class KittiParseError(ValueError):
    """Malformed calibration, scan or label input."""


_CALIB_KEYS = {"P2": 12, "R0_rect": 9, "Tr_velo_to_cam": 12}


def parse_calib(text: str) -> Calibration:
    """Parse 'KEY: v0 v1 ...' lines; P2, R0_rect and Tr_velo_to_cam are
    required, anything else is ignored.  Errors carry line numbers."""
    found = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or ":" not in line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in _CALIB_KEYS:
            continue
        try:
            vals = [float(v) for v in rest.split()]
        except ValueError as exc:
            raise KittiParseError(f"line {lineno}: bad float in {key}: {exc}") from exc
        if len(vals) != _CALIB_KEYS[key]:
            raise KittiParseError(f"line {lineno}: {key} needs {_CALIB_KEYS[key]} floats, got {len(vals)}")
        found[key] = np.array(vals)
    missing = sorted(set(_CALIB_KEYS) - set(found))
    if missing:
        raise KittiParseError(f"missing calibration keys: {missing}")
    return Calibration(found["P2"].reshape(3, 4), found["R0_rect"].reshape(3, 3),
                       found["Tr_velo_to_cam"].reshape(3, 4))


def read_velodyne(data: bytes) -> PointSet:
    """Little-endian float32 (x, y, z, intensity) quadruples -> PointSet
    with the intensity as a single feature column."""
    if len(data) % 16:
        raise KittiParseError(f"scan length {len(data)} not divisible by 16")
    arr = np.frombuffer(data, dtype="<f4").reshape(-1, 4).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise KittiParseError("non-finite values in scan")
    return PointSet(arr[:, :3], arr[:, 3:4])


# Row: type trunc occl alpha bbox(4) h w l x y z ry [score]
# Camera-frame location is the bottom face center; LiDAR boxes store the
# geometric center, so conversion lifts by h/2 along camera -y first.


def parse_labels(text: str, calib: Calibration) -> list[LabeledObject]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "DontCare":
            continue
        if len(parts) < 15:
            raise KittiParseError(f"line {lineno}: label row needs 15+ fields, got {len(parts)}")
        try:
            vals = [float(v) for v in parts[1:15]]
        except ValueError as exc:
            raise KittiParseError(f"line {lineno}: bad float: {exc}") from exc
        trunc, occl, alpha = vals[0], int(vals[1]), vals[2]
        bbox = np.array(vals[3:7])
        h, w, l = vals[7:10]
        loc_cam = np.array([vals[10], vals[11] - h / 2.0, vals[12]])
        ry = vals[13]
        center = calib.camera_to_lidar(loc_cam)
        yaw = normalize_angle(-ry - np.pi / 2.0)
        box = Box3D(center[0], center[1], center[2], l, w, h, yaw)
        diff = difficulty_of(bbox[3] - bbox[1], occl, trunc)
        out.append(LabeledObject(parts[0], box, trunc, occl, alpha, bbox, diff))
    return out


# -- detection rows ------------------------------------------------------------------


def parse_detection_row(line: str, scene: int = 0) -> DetectionResult:
    parts = line.split()
    if len(parts) != 9:
        raise BoxError(f"detection row needs 9 fields, got {len(parts)}: {line!r}")
    box = Box3D(*[float(v) for v in parts[2:9]])
    return DetectionResult(box, float(parts[1]), parts[0], scene)


def read_detections(path: str, scene: int = 0) -> list[DetectionResult]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(parse_detection_row(line, scene))
    return out


# -- run configs ----------------------------------------------------------------------


def _format_value(v):
    if isinstance(v, tuple):
        return json.dumps(list(v))
    if isinstance(v, str):
        return v
    return json.dumps(v)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for section in _SECTIONS:
        target = getattr(cfg, section)
        for f in fields(target):
            lines.append(f"{section}.{f.name} = {_format_value(getattr(target, f.name))}")
    return "\n".join(lines) + "\n"
