"""Procedural scene/sample generator with exact contact ground truth.

Each sample poses the template body (kinematic chain bends drawn from a
small set of base poses plus POSE_JITTER), orients it in one of three
placement modes (standing, leaning, lying), and drops it onto the support
envelope of a ground plane plus up to MAX_BOXES axis-aligned boxes so that
the closest vertex sits within CONTACT_EPSILON_CM.  Contact labels are
recomputable from the stored geometry: a vertex is in contact iff its
unsigned distance to the nearest scene surface is at most that epsilon.

Images are flat-shaded orthographic renders from a fixed oblique camera.
Each face is drawn in one material, which gives its pixels their colour,
semantic class and body-part id: materials 0..JOINTS-1 are the body
segments, color-coded so pose (and hence contact structure) is visible,
then come the ground, a box and the background.

Rasterizer contract: triangles are drawn in a fixed order (the ground, then
each box, then the body faces).  A pixel centre is covered by a triangle
when all three barycentric weights are >= 0.  Of the triangles covering a
pixel, the one with the largest interpolated depth is drawn there, and on
equal depth the earliest-drawn one; a NaN or -inf depth is never drawn.
Triangles whose clipped bounding box is empty or whose |edge determinant|
< 1e-12 are skipped.  All triangles are drawn in one batched numpy pass,
and the result is bit-identical to drawing them one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .backbone import BackboneConfig
from .errors import (ConfigError, ContractError, GenerationError, NumericsError, ShapeError,
                     _is_int)
from .mesh import JOINTS, MeshTemplate, _rotation, pose_vertices
from .tensorio import check_layout, read_tensor_file, write_tensor_file

SAMPLE_MAGIC = b"GCSMP1\x00"

SEM_BACKGROUND, SEM_GROUND, SEM_BOX, SEM_BODY = 0, 1, 2, 3

CONTACT_EPSILON_CM = 1.0  # a vertex this close to a scene surface is in contact
MAX_BOXES = 2
POSE_JITTER = 0.08  # std of the Gaussian added to each base-pose bend

_GROUND_COLOR = np.array([0.32, 0.42, 0.28])
_BOX_COLOR = np.array([0.62, 0.47, 0.25])
_BACKGROUND_COLOR = np.array([0.06, 0.06, 0.12])
_PART_PALETTE = np.array([
    [0.90, 0.10, 0.10],
    [0.95, 0.55, 0.05],
    [0.90, 0.90, 0.10],
    [0.15, 0.80, 0.15],
    [0.10, 0.85, 0.85],
    [0.15, 0.35, 0.95],
    [0.60, 0.15, 0.90],
    [0.95, 0.30, 0.70],
])

# Material ids: the JOINTS body segments, then these three.
_MAT_GROUND, _MAT_BOX, _MAT_BACKGROUND = JOINTS, JOINTS + 1, JOINTS + 2
_MATERIAL_RGB = np.vstack([_PART_PALETTE, _GROUND_COLOR, _BOX_COLOR, _BACKGROUND_COLOR])
_MATERIAL_SEM = np.array([SEM_BODY] * JOINTS + [SEM_GROUND, SEM_BOX, SEM_BACKGROUND],
                         dtype=np.int32)
_MATERIAL_BP = np.array([*range(1, JOINTS + 1), 0, 0, 0], dtype=np.int32)

# Fixed oblique orthographic camera: tilt about x, then drop depth.
_CAM_TILT = 0.6
_CAMERA = _rotation("x", _CAM_TILT).T  # world row vectors @ _CAMERA = camera coordinates
_VIEW_X = (-13.0, 13.0)
_VIEW_V = (-9.0, 17.0)

_GROUND = np.array([
    [-25.0, 0.0, -25.0], [25.0, 0.0, -25.0], [25.0, 0.0, 25.0], [-25.0, 0.0, 25.0],
])
_GROUND_FACES = np.array([[0, 1, 2], [0, 2, 3]])
# A box is lo + size * _UNIT_CUBE.
_UNIT_CUBE = np.array([[i >> 2, i >> 1 & 1, i & 1] for i in range(8)], dtype=np.float64)
_BOX_FACES = np.array([  # two triangles per side
    [0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5], [0, 4, 5], [0, 5, 1],
    [2, 3, 7], [2, 7, 6], [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3],
])

_BASE_POSES = np.array([
    [0.0] * 12,
    [0.0, 0.25, 0.45, 0.35, 0.1, 0.0, 0.0] + [0.0] * 5,  # C-bend
    [0.0, 0.0, 0.0, 0.9, 0.2, 0.0, 0.0] + [0.15, 0.0, 0.0, 0.0, 0.0],  # L-bend
    [0.0, -0.35, 0.3, 0.35, -0.3, 0.2, 0.0] + [0.0, 0.2, -0.2, 0.0, 0.0],  # S-bend
])

# Placement mode -> range of the tilt from upright drawn for it; lying is flat, with no draw.
_MODES = (("standing", (0.0, 0.12)), ("leaning", (0.45, 0.95)), ("lying", None))


@dataclass(frozen=True)
class SceneConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)  # image extents

    c_sem: ClassVar[int] = SEM_BODY + 1  # one class per SEM_* id
    c_bp: ClassVar[int] = JOINTS + 1  # background + one class per body segment

    def validate(self, template: MeshTemplate):
        if template.n_joints != JOINTS:
            raise ConfigError(f"the template has {template.n_joints} joints; "
                              f"scenes are drawn for {JOINTS}")


@dataclass
class Sample:
    image: np.ndarray  # (3, H, W) float64 in [0, 1]
    gt_vertices: np.ndarray  # (v_full, 3) cm
    gt_contacts: np.ndarray  # (v_full,) uint8
    sem_mask: np.ndarray  # (H, W) int32 class ids
    bp_mask: np.ndarray  # (H, W) int32 part ids (0 = background)
    sem_grid: np.ndarray  # (grid_side**2,) int32
    bp_grid: np.ndarray  # (grid_side**2,) int32
    pose: np.ndarray  # (12,) chain bends, a _BASE_POSES row plus jitter; for debugging
    boxes: np.ndarray  # (n_boxes, 6) min corner + sizes


# (dtype kind, shape, value range) of each Sample field in a sample file; see check_layout.
_SAMPLE_LAYOUT = {
    "image": ("f", (3, "H", "H"), (0.0, 1.0)),
    "gt_vertices": ("f", ("V", 3), None),
    "gt_contacts": ("u", ("V",), (0, 1)),
    "sem_mask": ("i", ("H", "H"), (0, SceneConfig.c_sem - 1)),
    "bp_mask": ("i", ("H", "H"), (0, SceneConfig.c_bp - 1)),
    "sem_grid": ("i", ("G",), (0, SceneConfig.c_sem - 1)),
    "bp_grid": ("i", ("G",), (0, SceneConfig.c_bp - 1)),
    "pose": ("f", (_BASE_POSES.shape[1],), None),
    "boxes": ("f", ("n_boxes", 6), None),
}


# ---------------------------------------------------------------------------
# geometry


def surface_distances(points: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Unsigned distance from each point to the nearest scene surface.

    The ground plane y=0 contributes |y|; each box contributes the usual
    Euclidean distance outside and the distance to the nearest face inside.
    """
    lo = boxes[:, :3]
    hi = lo + boxes[:, 3:]
    q = np.abs(points[:, None] - (lo + hi) / 2.0) - (hi - lo) / 2.0  # (points, boxes, 3)
    q_max = q.max(axis=2)
    to_box = np.where(q_max > 0.0, np.linalg.norm(np.maximum(q, 0.0), axis=2), -q_max)
    return np.column_stack([np.abs(points[:, 1]), to_box]).min(axis=1)


def contact_labels(points: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    return (surface_distances(points, boxes) <= CONTACT_EPSILON_CM).astype(np.uint8)


def _support_height(x, z, boxes):
    """Top of the highest box whose closed x/z footprint holds each point, else 0 (the ground)."""
    lo, hi = boxes[:, :3], boxes[:, :3] + boxes[:, 3:]
    under = ((x[:, None] >= lo[:, 0]) & (x[:, None] <= hi[:, 0])
             & (z[:, None] >= lo[:, 2]) & (z[:, None] <= hi[:, 2]))
    return np.max(np.where(under, hi[:, 1], 0.0), axis=1, initial=0.0)


# ---------------------------------------------------------------------------
# rasterizer


def _project(points: np.ndarray, image_size: int):
    """World points -> (px, py, depth) under the fixed oblique camera."""
    cam = points @ _CAMERA
    u, v, depth = cam[:, 0], cam[:, 1], cam[:, 2]
    px = (u - _VIEW_X[0]) / (_VIEW_X[1] - _VIEW_X[0]) * image_size
    py = (1.0 - (v - _VIEW_V[0]) / (_VIEW_V[1] - _VIEW_V[0])) * image_size
    return px, py, depth


def render(vertices, template, boxes, config: SceneConfig):
    """Rasterize scene + posed body; returns (image, sem_mask, bp_mask).

    A pixel takes the colour, semantic class and body-part id of the material
    of the face drawn there, or of the background.
    """
    n = config.backbone.image_size
    # (points, faces, material) per mesh, in draw order; a body face's material is its segment.
    meshes = [(_GROUND, _GROUND_FACES, _MAT_GROUND)]
    meshes += [(box[:3] + box[3:] * _UNIT_CUBE, _BOX_FACES, _MAT_BOX) for box in boxes]
    meshes.append((vertices, template.faces, template.segment_ids[template.faces[:, 0]]))
    corners, materials = [], []
    for points, faces, material in meshes:
        px, py, depth = _project(points, n)
        corners.append(np.stack([px[faces], py[faces], depth[faces]]))
        materials.append(np.broadcast_to(material, len(faces)))

    winner = _rasterize(*np.concatenate(corners, axis=1), n)
    # The background is the last material, which a winner of -1 reads.
    material = np.concatenate([*materials, [_MAT_BACKGROUND]]).take(winner)
    rgb = _MATERIAL_RGB.T.take(material, axis=1).reshape(3, n, n)
    return rgb, _MATERIAL_SEM[material].reshape(n, n), _MATERIAL_BP[material].reshape(n, n)


def _runs(starts, counts):
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i, concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _rasterize(px, py, depth, n):
    """Index of the triangle drawn at each of the n*n pixels, -1 where none is.

    `px`, `py`, `depth` are (T, 3) per-triangle vertex coordinates in draw
    order; the depth rule is the one in the module docstring.

    The candidate pixels are laid out triangle by triangle: each kept
    triangle's bounding-box rows from top to bottom, then the pixels of each
    row from left to right.  A per-triangle constant is one `np.repeat` over
    the box areas and a per-row one over the row widths.  The order of the
    candidates does not matter to the result: depth is resolved by
    `np.maximum.at` then `np.minimum.at`, which are exact and
    order-independent.
    """
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        raise NumericsError("render needs finite projected vertices")
    (xa, xb, xc), (ya, yb, yc) = px.T, py.T
    # Clipped to [0, n] and [-1, n - 1] so an off-screen box stays empty
    # and every bound fits an int64.
    x0 = np.clip(np.floor(np.minimum(np.minimum(xa, xb), xc)), 0, n).astype(np.int64)
    x1 = np.clip(np.ceil(np.maximum(np.maximum(xa, xb), xc)), -1, n - 1).astype(np.int64)
    y0 = np.clip(np.floor(np.minimum(np.minimum(ya, yb), yc)), 0, n).astype(np.int64)
    y1 = np.clip(np.ceil(np.maximum(np.maximum(ya, yb), yc)), -1, n - 1).astype(np.int64)
    a0 = yb - yc
    b0 = xc - xb
    a1 = yc - ya
    b1 = xa - xc
    denom = a0 * (xa - xc) + b0 * (ya - yc)
    keep = np.flatnonzero((x0 <= x1) & (y0 <= y1) & ~(np.abs(denom) < 1e-12))
    x0, x1, y0, y1, a0, b0, a1, b1, denom, xc, yc = (
        v[keep] for v in (x0, x1, y0, y1, a0, b0, a1, b1, denom, xc, yc))
    width = x1 - x0 + 1
    height = y1 - y0 + 1
    area = width * height

    # One entry per bounding-box row: y, and the y terms of the weights.
    ys = _runs(y0, height)
    dy = ys + 0.5 - np.repeat(yc, height)
    b0dy = np.repeat(b0, height) * dy
    b1dy = np.repeat(b1, height) * dy
    row_width = np.repeat(width, height)
    # One entry per candidate pixel.  Each weight is (a * dx + b * dy) / denom,
    # the same operations on the same operands as pixel by pixel.
    xs = _runs(np.repeat(x0, height), row_width)
    dx = xs + 0.5 - np.repeat(xc, area)
    den = np.repeat(denom, area)
    w0 = (np.repeat(a0, area) * dx + np.repeat(b0dy, row_width)) / den
    w1 = (np.repeat(a1, area) * dx + np.repeat(b1dy, row_width)) / den
    # Depth only where all three edge tests pass (w2 = 1 - w0 - w1).
    inside = np.flatnonzero((w0 >= 0) & (w1 >= 0) & (1.0 - w0 - w1 >= 0))
    t, w0, w1 = np.repeat(keep, area)[inside], w0[inside], w1[inside]
    z = w0 * depth[t, 0] + w1 * depth[t, 1] + (1.0 - w0 - w1) * depth[t, 2]
    hit = z > -np.inf
    t, z = t[hit], z[hit]
    pix = (xs[inside] + np.repeat(ys * n, row_width)[inside])[hit]
    # Per pixel, the largest z wins; on a tie, the earliest-drawn triangle.
    zbuf = np.full(n * n, -np.inf)
    np.maximum.at(zbuf, pix, z)
    top = z == zbuf[pix]
    winner = np.full(n * n, len(px))
    np.minimum.at(winner, pix[top], t[top])
    winner[winner == len(px)] = -1
    return winner


def downsample_mask(mask: np.ndarray, grid_side: int, n_classes: int) -> np.ndarray:
    """Majority class id in [0, n_classes) per grid cell; ties break toward the lowest id."""
    if not _is_int(grid_side):  # reshape takes only an integer side; a bool is not one
        raise ContractError(f"downsample_mask needs an integer grid side, got {grid_side!r}")
    if not _is_int(n_classes) or n_classes < 1:  # the count sizes the id bound and bincount
        raise ContractError(f"downsample_mask needs an integer class count >= 1, got {n_classes!r}")
    n_classes = int(n_classes)  # np.uint64 times the int64 cell offsets is float64
    if (mask.ndim != 2 or mask.shape[0] != mask.shape[1] or grid_side < 1
            or mask.shape[0] < grid_side or mask.shape[0] % grid_side):
        raise ShapeError(f"downsample_mask needs a grid side >= 1 and a square mask whose side "
                         f"is a multiple of it, got {grid_side} and shape {mask.shape}")
    if mask.dtype.kind not in "iu":  # bincount counts only integer ids
        raise ContractError(f"downsample_mask needs integer class ids, got dtype {mask.dtype}")
    lo, hi = mask.min(), mask.max()
    if lo < 0 or hi >= n_classes:
        raise ContractError(f"mask class id {lo if lo < 0 else hi} is outside [0, {n_classes})")
    cell = mask.shape[0] // grid_side
    # As intp: int64 + uint64 promotes to float64, which bincount rejects.
    blocks = (mask.astype(np.intp, copy=False).reshape(grid_side, cell, grid_side, cell)
              .transpose(0, 2, 1, 3).reshape(grid_side * grid_side, -1))
    counts = np.bincount((np.arange(len(blocks))[:, None] * n_classes + blocks).reshape(-1),
                         minlength=len(blocks) * n_classes)
    return counts.reshape(len(blocks), n_classes).argmax(axis=1).astype(np.int32)


# ---------------------------------------------------------------------------
# sample generation


def _sample_boxes(rng, n_boxes, body_xz_bounds):
    """Boxes on the ground, kept off the body footprint (1 cm margin).

    Placement picks a side region (beyond the body along x or z) that has
    room; a box is skipped when no side can hold it.
    """
    world = 11.0
    x_lo, x_hi, z_lo, z_hi = body_xz_bounds
    boxes = []
    for _ in range(n_boxes):
        size = rng.uniform([3.0, 2.0, 3.0], [8.0, 6.0, 8.0])
        # (axis, lo, hi) of each corner range beside the body, in the order the draw below
        # indexes: x then z, low side then high.
        sides = [
            (axis, lo, hi)
            for axis, body_lo, body_hi in ((0, x_lo, x_hi), (2, z_lo, z_hi))
            for lo, hi in ((-world, body_lo - 1.0 - size[axis]),
                           (body_hi + 1.0, world - size[axis]))
            if lo < hi
        ]
        if not sides:
            continue
        axis, lo, hi = sides[rng.integers(len(sides))]
        other = 2 - axis
        corner = {axis: rng.uniform(lo, hi)}
        corner[other] = rng.uniform(-world, world - size[other])
        boxes.append([corner[0], 0.0, corner[2], *size])
    return np.asarray(boxes) if boxes else np.zeros((0, 6))


def generate_sample(config: SceneConfig, template: MeshTemplate, rng) -> Sample:
    """One fully labeled scene; deterministic given (config, template, rng state)."""
    config.validate(template)

    base = _BASE_POSES[rng.integers(len(_BASE_POSES))]
    pose = base + rng.normal(0.0, POSE_JITTER, size=base.size)
    posed = pose_vertices(template, pose)

    _, tilt_range = _MODES[rng.integers(len(_MODES))]
    roll = rng.uniform(0.0, 2.0 * math.pi)
    yaw = rng.uniform(0.0, 2.0 * math.pi)
    tilt = rng.uniform(*tilt_range) if tilt_range else math.pi / 2.0
    rot = _rotation("y", yaw) @ _rotation("z", tilt) @ _rotation("y", roll)
    verts = posed @ rot.T
    verts[:, 0] += rng.uniform(-3.0, 3.0)
    verts[:, 2] += rng.uniform(-3.0, 3.0)

    span = (verts[:, 0].min(), verts[:, 0].max(), verts[:, 2].min(), verts[:, 2].max())
    n_boxes = int(rng.integers(0, MAX_BOXES + 1))
    boxes = _sample_boxes(rng, n_boxes, span)

    # Drop onto the support envelope so the closest vertex is within epsilon.
    support = _support_height(verts[:, 0], verts[:, 2], boxes)
    clearance = verts[:, 1] - support
    verts[:, 1] -= clearance.min() - rng.uniform(0.15, 0.7) * CONTACT_EPSILON_CM

    contacts = contact_labels(verts, boxes)
    if not contacts.any():
        raise GenerationError("drop placement produced no contacts")

    image, sem_mask, bp_mask = render(verts, template, boxes, config)
    return Sample(
        image=image,
        gt_vertices=verts,
        gt_contacts=contacts,
        sem_mask=sem_mask,
        bp_mask=bp_mask,
        sem_grid=downsample_mask(sem_mask, config.backbone.grid_side, config.c_sem),
        bp_grid=downsample_mask(bp_mask, config.backbone.grid_side, config.c_bp),
        pose=pose,
        boxes=boxes,
    )


# ---------------------------------------------------------------------------
# sample files
#
# A sample file holds one Sample's tensors.  `_SAMPLE_LAYOUT` above is the one
# place for what a valid file holds: `check_layout` checks every kind, shape
# and value range it gives.  A set of samples is a seed range, regenerated
# with `generate_sample(config, template, default_rng([seed, i]))`, not a file.


def write_sample(s: Sample, path):
    """Write `s`, checked as `read_sample` checks it, so a written file reads back."""
    tensors = {f.name: np.asarray(getattr(s, f.name)) for f in fields(Sample)}
    check_layout(path, tensors, _SAMPLE_LAYOUT)
    write_tensor_file(path, SAMPLE_MAGIC, tensors)


def read_sample(path) -> Sample:
    tensors = read_tensor_file(path, SAMPLE_MAGIC)
    check_layout(path, tensors, _SAMPLE_LAYOUT)
    return Sample(**tensors)
