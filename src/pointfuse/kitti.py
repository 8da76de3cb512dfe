"""KITTI-format output and seeded synthetic scene generation.

Real-data side: scenes write out as KITTI calibration text, velodyne
binary scans and label files (LiDAR-frame boxes convert to the camera
frame through the calibration).  Synthetic side: a SyntheticSceneSpec
plus an Rng deterministically produces a scene whose points, silhouette
image, foreground mask and labels are all mutually consistent, at a size
a laptop handles comfortably.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import Box3D, BoxArrays, DEFAULT_ANCHORS, normalize_angle, pair_iou
from .geometry import Calibration, PointSet, SCENE_BOUNDS, crop_points
from .nn import Rng


class SceneError(ValueError):
    """Synthetic scene generation could not satisfy its constraints."""


# -- difficulty ------------------------------------------------------------------
# KITTI buckets: easy needs a tall, unoccluded, barely-truncated box;
# each step relaxes all three.  3 means beyond-hard (ignored in eval).
# The pixel thresholds assume the standard 375-pixel-tall frame.

_DIFFICULTY_RULES = (  # (min bbox height px, max occlusion, max truncation)
    (40.0, 0, 0.15),
    (25.0, 1, 0.30),
    (25.0, 2, 0.50),
)
_REFERENCE_IMAGE_HEIGHT = 375.0


def difficulty_of(bbox_height: float, occlusion: int, truncation: float) -> int:
    for level, (min_h, max_occ, max_trunc) in enumerate(_DIFFICULTY_RULES):
        if bbox_height >= min_h and occlusion <= max_occ and truncation <= max_trunc:
            return level
    return 3


@dataclass
class LabeledObject:
    klass: str
    box: Box3D                # LiDAR frame, center + dims + yaw
    truncation: float = 0.0
    occlusion: int = 0
    alpha: float = 0.0
    bbox: np.ndarray = field(default_factory=lambda: np.zeros(4))  # image-space left top right bottom
    difficulty: int = 0


# -- calibration files -------------------------------------------------------------


def write_calib(calib: Calibration) -> str:
    def row(name, arr):
        return name + ": " + " ".join(f"{v:.12e}" for v in np.asarray(arr).reshape(-1))
    return "\n".join([row("P2", calib.p2), row("R0_rect", calib.r0_rect),
                      row("Tr_velo_to_cam", calib.tr_velo_to_cam)]) + "\n"


# -- velodyne scans ------------------------------------------------------------------


def write_velodyne(points: PointSet) -> bytes:
    feats = points.feats if points.feats is not None else np.zeros((len(points), 1))
    arr = np.hstack([points.coords, feats[:, :1]]).astype("<f4")
    return arr.tobytes()


# -- label files ----------------------------------------------------------------------
#
# Row: type trunc occl alpha bbox(4) h w l x y z ry [score]
# Camera-frame location is the bottom face center; LiDAR boxes store the
# geometric center, so conversion lifts by h/2 along camera -y first.


def write_labels(objs: list[LabeledObject], calib: Calibration) -> str:
    rows = []
    for o in objs:
        loc_cam = calib.lidar_to_camera(o.box.center)
        loc_cam[1] += o.box.h / 2.0  # back to bottom-face center
        ry = normalize_angle(-o.box.yaw - np.pi / 2.0)
        fields = [o.klass, f"{o.truncation:.2f}", str(o.occlusion), f"{o.alpha:.6f}",
                  *(f"{v:.6f}" for v in o.bbox),
                  f"{o.box.h:.6f}", f"{o.box.w:.6f}", f"{o.box.l:.6f}",
                  *(f"{v:.6f}" for v in loc_cam), f"{ry:.6f}"]
        rows.append(" ".join(fields))
    return "\n".join(rows) + ("\n" if rows else "")


# -- synthetic scenes ----------------------------------------------------------------


@dataclass
class SyntheticSceneSpec:
    """All knobs of the seeded scene generator.

    Defaults describe the reference two-car scene used by the training
    smoke runs.  Image dimensions must match the network config in use.
    """

    n_cars: int = 2
    n_pedestrians: int = 0
    n_cyclists: int = 0
    points_per_box: int = 220
    background_points: int = 400
    image_height: int = 32
    image_width: int = 64
    focal: float = 55.0
    x_range: tuple = (10.0, 34.0)
    yaw_range: tuple = (-0.4, 0.4)
    ground_z: float = -1.65
    dim_jitter: float = 0.08
    min_gap: float = 1.0         # BEV clearance between boxes, meters

    def class_counts(self):
        return (("Car", self.n_cars), ("Pedestrian", self.n_pedestrians),
                ("Cyclist", self.n_cyclists))


@dataclass
class SceneSample:
    points: PointSet
    image: np.ndarray            # [H, W, 3] float
    calib: Calibration
    labels: list[LabeledObject]
    mask: np.ndarray             # [H, W] bool foreground
    n_cropped: int = 0


def make_camera(spec: SyntheticSceneSpec) -> Calibration:
    """Forward-looking camera: LiDAR +x becomes the optical axis."""
    tr = np.array([[0.0, -1.0, 0.0, 0.0],
                   [0.0, 0.0, -1.0, 0.0],
                   [1.0, 0.0, 0.0, 0.0]])
    p2 = np.array([[spec.focal, 0.0, spec.image_width / 2.0, 0.0],
                   [0.0, spec.focal, spec.image_height * 0.55, 0.0],
                   [0.0, 0.0, 1.0, 0.0]])
    return Calibration(p2, np.eye(3), tr)


def convex_hull(pts: np.ndarray) -> np.ndarray:
    """Monotone-chain hull of 2D points, counter-clockwise."""
    pts = np.unique(np.asarray(pts, dtype=np.float64), axis=0)
    if len(pts) < 3:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                a, b = out[-1] - out[-2], p - out[-2]
                if a[0] * b[1] - a[1] * b[0] > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def fill_convex(h: int, w: int, poly: np.ndarray) -> np.ndarray:
    """Boolean [h, w] mask of pixel centers inside a CCW convex polygon."""
    mask = np.ones((h, w), dtype=bool)
    if len(poly) < 3:
        return np.zeros((h, w), dtype=bool)
    yy, xx = np.mgrid[0:h, 0:w]
    px = xx + 0.5
    py = yy + 0.5
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        mask &= (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0]) >= 0.0
    return mask


def rasterize_foreground(labels: list[LabeledObject], calib: Calibration,
                         image_hw: tuple) -> np.ndarray:
    """Union of the projected box silhouettes at image resolution."""
    h, w = image_hw
    mask = np.zeros((h, w), dtype=bool)
    for obj in labels:
        corners = obj.box.corners()
        uv, _, ok = calib.project_points(corners)
        if not np.all(ok):
            continue
        mask |= fill_convex(h, w, convex_hull(uv))
    return mask


def _sample_box_surface(box: Box3D, n: int, rng: Rng) -> np.ndarray:
    """Uniform-by-area samples on the four side faces plus the top."""
    l, w, h = box.l, box.w, box.h
    faces = [  # (area, axis fixed, sign)
        (w * h, 0, +1), (w * h, 0, -1),
        (l * h, 1, +1), (l * h, 1, -1),
        (l * w, 2, +1),
    ]
    areas = np.array([f[0] for f in faces])
    counts = rng._gen.multinomial(n, areas / areas.sum())
    pts = []
    for (_, axis, sign), cnt in zip(faces, counts):
        if cnt == 0:
            continue
        p = np.stack([rng.uniform(-l / 2, l / 2, cnt),
                      rng.uniform(-w / 2, w / 2, cnt),
                      rng.uniform(-h / 2, h / 2, cnt)], axis=1)
        p[:, axis] = sign * (l / 2, w / 2, h / 2)[axis]
        pts.append(p)
    local = np.vstack(pts)
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return local @ rot.T + box.center


PLACEMENT_ATTEMPTS = 200


def place_boxes(spec: SyntheticSceneSpec, rng: Rng, half_fov: float) -> list[LabeledObject]:
    """Seeded labelled boxes for spec's class counts, class by class, each at
    least ``min_gap`` clear of those placed before it, inside ``x_range``
    and the camera's horizontal field of view.  Raises SceneError naming
    this step and the spec keys that bound the room when a box finds no
    spot in PLACEMENT_ATTEMPTS draws."""
    labels: list[LabeledObject] = []
    for klass, count in spec.class_counts():
        anchor = DEFAULT_ANCHORS[klass]
        for k in range(count):
            for _ in range(PLACEMENT_ATTEMPTS):
                dims = np.array(anchor) * (1.0 + rng.uniform(-spec.dim_jitter, spec.dim_jitter, 3))
                x = float(rng.uniform(*spec.x_range))
                y_lim = max(0.5, np.tan(half_fov) * x - max(dims[0], dims[1]))
                y = float(rng.uniform(-y_lim, y_lim))
                z = spec.ground_z + dims[2] / 2.0
                yaw = float(rng.uniform(*spec.yaw_range))
                cand = Box3D(x, y, z, dims[0], dims[1], dims[2], yaw)
                grown = Box3D(x, y, z, dims[0] + spec.min_gap, dims[1] + spec.min_gap, dims[2], yaw)
                # one pair_iou call: the grown candidate (row 0) against each placed box
                table = BoxArrays.of([grown] + [o.box for o in labels])
                placed = np.arange(1, len(labels) + 1)
                if not pair_iou(table, table, np.zeros_like(placed), placed).any():
                    break
            else:
                raise SceneError(
                    f"place_boxes: could not place {klass} {k + 1} of {count} clear of the "
                    f"{len(labels)} placed before it in {PLACEMENT_ATTEMPTS} attempts; "
                    f"x_range={list(spec.x_range)}, min_gap={spec.min_gap}, n_cars={spec.n_cars}, "
                    f"n_pedestrians={spec.n_pedestrians} and n_cyclists={spec.n_cyclists} "
                    f"leave too little room in the field of view")
            labels.append(LabeledObject(klass, cand))
    return labels


def generate_scene(spec: SyntheticSceneSpec, rng: Rng) -> SceneSample:
    """Deterministic synthetic scene: boxes, surface + ground points, a
    flat-shaded silhouette image and the matching foreground mask."""
    calib = make_camera(spec)
    h, w = spec.image_height, spec.image_width
    half_fov = np.arctan((w / 2.0 - 1.0) / spec.focal)

    labels = place_boxes(spec, rng, half_fov)
    boxes = [o.box for o in labels]

    pts, intensity = [], []
    for i, box in enumerate(boxes):
        p = _sample_box_surface(box, spec.points_per_box, rng)
        pts.append(p)
        intensity.append(np.full(len(p), 0.55 + 0.35 * ((i * 2654435761) % 97) / 97.0)
                         + rng.normal((len(p),), 0.02))
    if spec.background_points:
        gx = rng.uniform(spec.x_range[0] * 0.5, min(SCENE_BOUNDS[0][1], spec.x_range[1] * 1.5),
                         spec.background_points)
        gy = rng.uniform(-1.0, 1.0, spec.background_points) * np.tan(half_fov) * gx
        gz = spec.ground_z + rng.normal((spec.background_points,), 0.02)
        pts.append(np.stack([gx, gy, gz], axis=1))
        intensity.append(np.abs(rng.normal((spec.background_points,), 0.05)) + 0.05)
    coords = np.vstack(pts)
    feats = np.clip(np.concatenate(intensity), 0.0, 1.0)[:, None]
    points, n_cropped = crop_points(PointSet(coords, feats))

    # flat-shaded render, far boxes first so near ones overwrite
    image = np.zeros((h, w, 3))
    image[:] = np.linspace(0.25, 0.05, h)[:, None, None]
    order = np.argsort([-b.x for b in boxes])
    for i in order:
        uv, _, ok = calib.project_points(boxes[i].corners())
        if not np.all(ok):
            continue
        m = fill_convex(h, w, convex_hull(uv))
        shade = 0.4 + 0.55 * ((i * 40503) % 89) / 89.0
        image[m] = np.array([shade, shade * 0.9, shade * 0.8])

    for obj in labels:
        uv, _, ok = calib.project_points(obj.box.corners())
        if np.all(ok):
            lo = uv.min(axis=0)
            hi = uv.max(axis=0)
            obj.bbox = np.array([lo[0], lo[1], hi[0], hi[1]])
            visible_h = min(hi[1], float(h)) - max(lo[1], 0.0)
            obj.truncation = float(np.clip(1.0 - visible_h / max(hi[1] - lo[1], 1e-9), 0.0, 1.0))
            # rasters here stand in for full-resolution frames, so rescale
            # the height before bucketing or everything lands in "ignore"
            scaled_h = visible_h * _REFERENCE_IMAGE_HEIGHT / h
            obj.difficulty = difficulty_of(scaled_h, obj.occlusion, obj.truncation)

    mask = rasterize_foreground(labels, calib, (h, w))
    return SceneSample(points, image, calib, labels, mask, n_cropped)
