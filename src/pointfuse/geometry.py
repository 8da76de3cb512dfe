"""Point-set geometry kernels: sampling, grouping, interpolation, depth
binning and camera/LiDAR coordinate transforms.

Everything here is plain numpy on float64 arrays.  Deterministic
tie-breaking is part of every contract: equal distances resolve to the
smaller index, so identical inputs give identical outputs bit for bit.

Frames: LiDAR x forward / y left / z up; rectified camera x right /
y down / z forward; image u along width, v along height.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Inputs violate a geometry contract."""


class CalibrationError(ValueError):
    """Malformed or singular calibration matrices."""


@dataclass
class PointSet:
    """coords [N, 3] plus an optional per-point feature block [N, C]."""

    coords: np.ndarray
    feats: np.ndarray | None = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise GeometryError(f"coords must be [N,3], got {self.coords.shape}")
        if self.feats is not None:
            self.feats = np.asarray(self.feats, dtype=np.float64)
            if self.feats.ndim != 2 or self.feats.shape[0] != self.coords.shape[0]:
                raise GeometryError(f"feats must be [N,C] aligned with coords, got {self.feats.shape}")

    def __len__(self):
        return self.coords.shape[0]


# -- sampling and grouping ---------------------------------------------------


def farthest_point_sampling(coords: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Greedy max-min sampling of m indices; ties go to the smaller index.

    The first pick is ``start`` (default 0) so results are reproducible
    without a random source.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if not 1 <= m <= n:
        raise GeometryError(f"need 1 <= m <= N, got m={m}, N={n}")
    if not 0 <= start < n:
        raise GeometryError(f"start index {start} out of range")
    cols = coords.T.copy()  # x, y, z as contiguous rows
    diff = np.empty_like(cols)
    d = np.empty(n)

    def sq_dist(i, out):
        # dx*dx + dy*dy + dz*dz: the terms and order of summing (c - c_i)**2 over xyz
        np.subtract(cols, cols[:, i:i + 1], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(diff[0], diff[1], out=out)
        return np.add(out, diff[2], out=out)

    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = start
    best = sq_dist(start, np.empty(n))
    for i in range(1, m):
        nxt = int(best.argmax())  # argmax takes the first max: smaller index
        chosen[i] = nxt
        np.minimum(best, sq_dist(nxt, d), out=best)
    return chosen


# Up to this many query-candidate pairs a full stable sort is cheaper
# than selection.
_KNN_SORT_MAX_PAIRS = 2048


def knn_group(queries: np.ndarray, coords: np.ndarray, k: int) -> np.ndarray:
    """[Mq, k] indices of the k nearest coords per query, each row sorted
    ascending by (distance, index), exactly as a full stable sort orders
    them.

    Rows select their k nearest with a partition and sort only those.  A
    row with a tie at its k-th distance (more than k entries within it)
    takes the full stable sort instead, as do small inputs and k == N.
    """
    queries = np.asarray(queries, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if not 1 <= k <= n:
        raise GeometryError(f"need 1 <= k <= N, got k={k}, N={n}")
    # dx*dx + dy*dy + dz*dz over per-axis columns, in the same order as
    # summing (q - c)**2 over xyz.  One scratch buffer serves every step:
    # each fresh array of this size would cost its own page faults.
    d2 = np.subtract(queries[:, 0:1], coords[:, 0])
    np.multiply(d2, d2, out=d2)
    tmp = np.empty_like(d2)
    for axis in (1, 2):
        np.subtract(queries[:, axis:axis + 1], coords[:, axis], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(d2, tmp, out=d2)
    if k == n or d2.size <= _KNN_SORT_MAX_PAIRS:
        return np.argsort(d2, axis=1, kind="stable")[:, :k].astype(np.int64)
    np.copyto(tmp, d2)
    tmp.partition(k - 1, axis=1)
    within = d2 <= tmp[:, k - 1:k]
    clean = within.sum(axis=1) == k  # no tie at the k-th distance
    rows = np.flatnonzero(clean)
    tied = rows.size < d2.shape[0]
    if tied:
        within = within[rows]
    cols = (np.flatnonzero(within) % n).reshape(-1, k)  # ascending index per row
    order = np.argsort(d2[rows[:, None], cols], axis=1, kind="stable")
    picked = cols[np.arange(rows.size)[:, None], order]
    if not tied:
        return picked
    out = np.empty((d2.shape[0], k), dtype=np.int64)
    out[rows] = picked
    ties = np.flatnonzero(~clean)
    out[ties] = np.argsort(d2[ties], axis=1, kind="stable")[:, :k]
    return out


# -- LID depth binning ---------------------------------------------------------
#
# Bin widths grow linearly with depth: edge(i) = d_min + (d_max - d_min)
# * i*(i+1) / (D*(D+1)).  Near bins are fine, far bins are coarse.


@dataclass
class LidBinning:
    d_min: float = 0.0
    d_max: float = 70.4
    n_bins: int = 80
    edges: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (self.d_max > self.d_min and self.n_bins >= 1):
            raise GeometryError("need d_max > d_min and n_bins >= 1")
        i = np.arange(self.n_bins + 1, dtype=np.float64)
        self.edges = self.d_min + (self.d_max - self.d_min) * i * (i + 1) / (self.n_bins * (self.n_bins + 1))

    def width(self, b) -> np.ndarray:
        return self.edges[np.asarray(b) + 1] - self.edges[np.asarray(b)]


def lid_encode(depth, binning: LidBinning):
    """depth -> (bin index, fractional residual inside the bin).

    Depths outside [d_min, d_max] clamp (callers decide whether to flag).
    Bins are half-open except the last, which closes at d_max so the
    encode/decode round trip is exact across the whole range; there the
    residual reaches 1.0.
    """
    d = np.asarray(depth, dtype=np.float64)
    scalar = d.ndim == 0
    d = np.clip(np.atleast_1d(d), binning.d_min, binning.d_max)
    span = binning.d_max - binning.d_min
    s = (d - binning.d_min) / span * binning.n_bins * (binning.n_bins + 1)
    b = np.floor((-1.0 + np.sqrt(1.0 + 4.0 * s)) / 2.0).astype(np.int64)
    b = np.clip(b, 0, binning.n_bins - 1)
    # guard the quadratic inversion against float rounding at bin edges
    b = np.where(d < binning.edges[b], b - 1, b)
    b = np.clip(b, 0, binning.n_bins - 1)
    b = np.where(d >= binning.edges[b + 1], b + 1, b)
    b = np.clip(b, 0, binning.n_bins - 1)
    res = (d - binning.edges[b]) / binning.width(b)
    if scalar:
        return int(b[0]), float(res[0])
    return b, res


def lid_decode(b, residual, binning: LidBinning):
    """(bin, residual) -> depth, the exact inverse of lid_encode."""
    b_arr = np.asarray(b)
    if np.any(b_arr < 0) or np.any(b_arr >= binning.n_bins):
        raise GeometryError(f"bin index out of [0, {binning.n_bins})")
    out = binning.edges[b_arr] + np.asarray(residual, dtype=np.float64) * binning.width(b_arr)
    if np.isscalar(b) or (isinstance(b, np.ndarray) and b.ndim == 0):
        return float(out)
    return out


# -- calibration ------------------------------------------------------------------


def _homogeneous(mat34: np.ndarray) -> np.ndarray:
    out = np.eye(4)
    out[:3, :] = mat34
    return out


class Calibration:
    """KITTI-style projective calibration.

    p2             [3,4] rectified camera projection
    r0_rect        [3,3] reference-to-rectified rotation
    tr_velo_to_cam [3,4] LiDAR-to-reference-camera transform

    The inverse maps are precomputed; singular inputs fail here rather
    than at first use.
    """

    def __init__(self, p2, r0_rect, tr_velo_to_cam):
        self.p2 = np.asarray(p2, dtype=np.float64)
        self.r0_rect = np.asarray(r0_rect, dtype=np.float64)
        self.tr_velo_to_cam = np.asarray(tr_velo_to_cam, dtype=np.float64)
        if self.p2.shape != (3, 4) or self.r0_rect.shape != (3, 3) or self.tr_velo_to_cam.shape != (3, 4):
            raise CalibrationError(
                f"bad shapes: P2 {self.p2.shape}, R0 {self.r0_rect.shape}, Tr {self.tr_velo_to_cam.shape}")
        for name, arr in (("P2", self.p2), ("R0_rect", self.r0_rect), ("Tr_velo_to_cam", self.tr_velo_to_cam)):
            if not np.all(np.isfinite(arr)):
                raise CalibrationError(f"non-finite entries in {name}")
        try:
            r0_h = np.eye(4)
            r0_h[:3, :3] = self.r0_rect
            self._velo_to_rect = r0_h @ _homogeneous(self.tr_velo_to_cam)
            self._rect_to_velo = np.linalg.inv(self._velo_to_rect)
            self._k_inv = np.linalg.inv(self.p2[:, :3])
        except np.linalg.LinAlgError as exc:
            raise CalibrationError(f"singular calibration: {exc}") from exc

    @classmethod
    def identity(cls, fx: float = 1.0, fy: float = 1.0, cx: float = 0.0, cy: float = 0.0) -> "Calibration":
        p2 = np.array([[fx, 0.0, cx, 0.0], [0.0, fy, cy, 0.0], [0.0, 0.0, 1.0, 0.0]])
        return cls(p2, np.eye(3), np.hstack([np.eye(3), np.zeros((3, 1))]))

    @property
    def k_inv(self) -> np.ndarray:
        """Inverse of the left 3x3 of P2 (image -> rectified camera rays)."""
        return self._k_inv

    @property
    def rect_to_velo(self) -> np.ndarray:
        """[4,4] rectified camera -> LiDAR."""
        return self._rect_to_velo

    @property
    def velo_to_rect(self) -> np.ndarray:
        """[4,4] LiDAR -> rectified camera."""
        return self._velo_to_rect

    # points are [N,3] or [3]; single points come back with their shape

    def lidar_to_camera(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        single = pts.ndim == 1
        p = np.atleast_2d(pts)
        out = p @ self._velo_to_rect[:3, :3].T + self._velo_to_rect[:3, 3]
        return out[0] if single else out

    def camera_to_lidar(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        single = pts.ndim == 1
        p = np.atleast_2d(pts)
        out = p @ self._rect_to_velo[:3, :3].T + self._rect_to_velo[:3, 3]
        return out[0] if single else out

    def project_to_image(self, pts_cam: np.ndarray):
        """Rectified-camera points -> (uv [N,2], depth [N]).

        Raises for non-positive projective depth; use project_points for
        the masked bulk variant.
        """
        pts_cam = np.asarray(pts_cam, dtype=np.float64)
        single = pts_cam.ndim == 1
        p = np.atleast_2d(pts_cam)
        h = p @ self.p2[:, :3].T + self.p2[:, 3]
        depth = h[:, 2]
        if np.any(depth <= 0.0):
            raise GeometryError("point at or behind the image plane")
        uv = h[:, :2] / depth[:, None]
        if single:
            return uv[0], float(depth[0])
        return uv, depth

    def project_points(self, pts_lidar: np.ndarray):
        """LiDAR points -> (uv [N,2], depth [N], in-front mask).

        Rows with depth <= 0 carry zeros in uv and False in the mask.
        """
        cam = self.lidar_to_camera(np.atleast_2d(np.asarray(pts_lidar, dtype=np.float64)))
        h = cam @ self.p2[:, :3].T + self.p2[:, 3]
        depth = h[:, 2]
        ok = depth > 1e-9
        uv = np.zeros((cam.shape[0], 2))
        uv[ok] = h[ok, :2] / depth[ok, None]
        return uv, depth, ok

    def image_to_camera(self, uv: np.ndarray, depth) -> np.ndarray:
        """(u, v, projective depth) -> rectified-camera point; inverse of
        project_to_image."""
        uv = np.asarray(uv, dtype=np.float64)
        single = uv.ndim == 1
        uvm = np.atleast_2d(uv)
        d = np.atleast_1d(np.asarray(depth, dtype=np.float64))
        target = np.stack([uvm[:, 0] * d, uvm[:, 1] * d, d], axis=1) - self.p2[:, 3]
        out = target @ self._k_inv.T
        return out[0] if single else out

    def image_to_lidar(self, uv: np.ndarray, depth) -> np.ndarray:
        return self.camera_to_lidar(self.image_to_camera(uv, depth))


def lidar_to_camera(p: np.ndarray, calib: Calibration) -> np.ndarray:
    return calib.lidar_to_camera(p)


def camera_to_lidar(p: np.ndarray, calib: Calibration) -> np.ndarray:
    return calib.camera_to_lidar(p)


def project_to_image(p_cam: np.ndarray, calib: Calibration):
    return calib.project_to_image(p_cam)


# -- scene cropping ------------------------------------------------------------

SCENE_BOUNDS = ((0.0, 70.4), (-40.0, 40.0), (-3.0, 1.0))  # LiDAR x/y/z extents


def crop_points(points: PointSet, bounds=SCENE_BOUNDS):
    """Drop points outside the axis-aligned scene bounds.

    Returns (cropped PointSet, number removed); bounds are closed.
    """
    c = points.coords
    keep = np.ones(len(points), dtype=bool)
    for axis, (lo, hi) in enumerate(bounds):
        keep &= (c[:, axis] >= lo) & (c[:, axis] <= hi)
    removed = int((~keep).sum())
    feats = points.feats[keep] if points.feats is not None else None
    return PointSet(c[keep], feats), removed
