"""Procedural scene/sample generator with exact contact ground truth.

Each sample poses the template body (kinematic chain bends drawn from a
small set of base poses plus POSE_JITTER), orients it in one of three
placement modes (standing, leaning, lying), and drops it onto the support
envelope of a ground plane plus up to MAX_BOXES axis-aligned boxes so that
the closest vertex sits within CONTACT_EPSILON_CM.  Contact labels are
recomputable from the stored geometry: a vertex is in contact iff its
unsigned distance to the nearest scene surface is at most that epsilon.

Images are flat-shaded orthographic renders from a fixed oblique camera;
body segments are color-coded so pose (and hence contact structure) is
visible, and the rasterizer's id buffers provide semantic and body-part
masks at image and feature-grid resolution.

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
from .errors import (ConfigError, ContractError, DataError, GenerationError, NumericsError,
                     ShapeError)
from .mesh import JOINTS, MeshTemplate, _rot_x, _rot_z, pose_vertices
from .tensorio import check_layout, read_tensor_file, write_tensor_file

SAMPLE_MAGIC = b"GCSMP1\x00"
DATASET_MAGIC = b"GCSET2\x00"

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

# Fixed oblique orthographic camera: tilt about x, then drop depth.
_CAM_TILT = 0.6
_VIEW_X = (-13.0, 13.0)
_VIEW_V = (-9.0, 17.0)

_GROUND = np.array([
    [-25.0, 0.0, -25.0], [25.0, 0.0, -25.0], [25.0, 0.0, 25.0], [-25.0, 0.0, 25.0],
])
_GROUND_FACES = np.array([[0, 1, 2], [0, 2, 3]])

_BASE_POSES = np.array([
    [0.0] * 12,
    [0.0, 0.25, 0.45, 0.35, 0.1, 0.0, 0.0] + [0.0] * 5,  # C-bend
    [0.0, 0.0, 0.0, 0.9, 0.2, 0.0, 0.0] + [0.15, 0.0, 0.0, 0.0, 0.0],  # L-bend
    [0.0, -0.35, 0.3, 0.35, -0.3, 0.2, 0.0] + [0.0, 0.2, -0.2, 0.0, 0.0],  # S-bend
])

_MODES = ("standing", "leaning", "lying")


@dataclass(frozen=True)
class SceneConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)  # image extents

    c_sem: ClassVar[int] = 4  # background/ground/box/body
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

# The same tensors with a leading "N" axis, boxes padded; see "sample and dataset files".
_DATASET_LAYOUT = {
    **{name: (kind, ("N", *dims), bounds)
       for name, (kind, dims, bounds) in _SAMPLE_LAYOUT.items()},
    "boxes": ("f", ("N", "max_boxes", 6), None),
    "n_boxes": ("i", ("N",), (0, "max_boxes")),
}


# ---------------------------------------------------------------------------
# geometry


def surface_distances(points: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Unsigned distance from each point to the nearest scene surface.

    The ground plane y=0 contributes |y|; each box contributes the usual
    Euclidean distance outside and the distance to the nearest face inside.
    """
    d = np.abs(points[:, 1])
    for box in boxes:
        lo = box[:3]
        hi = box[:3] + box[3:]
        center = (lo + hi) / 2.0
        half = (hi - lo) / 2.0
        q = np.abs(points - center) - half
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = -q.max(axis=1)  # depth below the nearest face when interior
        d = np.minimum(d, np.where(q.max(axis=1) > 0.0, outside, inside))
    return d


def contact_labels(points: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    return (surface_distances(points, boxes) <= CONTACT_EPSILON_CM).astype(np.uint8)


def _support_height(x, z, boxes):
    h = np.zeros_like(x)
    for box in boxes:
        lo, size = box[:3], box[3:]
        inside = (x >= lo[0]) & (x <= lo[0] + size[0]) & (z >= lo[2]) & (z <= lo[2] + size[2])
        h = np.where(inside, np.maximum(h, lo[1] + size[1]), h)
    return h


def _rot_y(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


# ---------------------------------------------------------------------------
# rasterizer


def _project(points: np.ndarray, image_size: int):
    """World points -> (px, py, depth) under the fixed oblique camera."""
    cam = points @ _rot_x(_CAM_TILT).T
    u, v, depth = cam[:, 0], cam[:, 1], cam[:, 2]
    px = (u - _VIEW_X[0]) / (_VIEW_X[1] - _VIEW_X[0]) * image_size
    py = (1.0 - (v - _VIEW_V[0]) / (_VIEW_V[1] - _VIEW_V[0])) * image_size
    return px, py, depth


def _box_mesh(box):
    lo, size = box[:3], box[3:]
    corners = np.array([
        lo + size * np.array([dx, dy, dz])
        for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)
    ])
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
        (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3),
    ]
    faces = []
    for a, b, c, d in quads:
        faces.append((a, b, c))
        faces.append((a, c, d))
    return corners, np.asarray(faces)


def render(vertices, template, boxes, config: SceneConfig):
    """Rasterize scene + posed body; returns (image, sem_mask, bp_mask)."""
    n = config.backbone.image_size
    face_seg = template.segment_ids[template.faces[:, 0]]
    # (points, faces, color, semantic id, body-part id) per mesh, in draw order.
    meshes = [(_GROUND, _GROUND_FACES, _GROUND_COLOR, SEM_GROUND, 0)]
    meshes += [(*_box_mesh(box), _BOX_COLOR, SEM_BOX, 0) for box in boxes]
    meshes.append((vertices, template.faces, _PART_PALETTE[face_seg],
                   SEM_BODY, face_seg + 1))
    corners, colors, sem_ids, bp_ids = [], [], [], []
    for points, faces, color, sem_id, bp_id in meshes:
        px, py, depth = _project(points, n)
        corners.append(np.stack([px[faces], py[faces], depth[faces]]))
        colors.append(np.broadcast_to(color, (len(faces), 3)))
        sem_ids.append(np.broadcast_to(sem_id, len(faces)))
        bp_ids.append(np.broadcast_to(bp_id, len(faces)))

    winner = _rasterize(*np.concatenate(corners, axis=1), n)
    drawn = winner >= 0
    hit = winner[drawn]
    rgb = np.tile(_BACKGROUND_COLOR[:, None], (1, n * n))
    rgb[:, drawn] = np.concatenate(colors)[hit].T
    sem = np.full(n * n, SEM_BACKGROUND, dtype=np.int32)
    sem[drawn] = np.concatenate(sem_ids)[hit]
    bp = np.zeros(n * n, dtype=np.int32)
    bp[drawn] = np.concatenate(bp_ids)[hit]
    return rgb.reshape(3, n, n), sem.reshape(n, n), bp.reshape(n, n)


def _rasterize(px, py, depth, n):
    """Index of the triangle drawn at each of the n*n pixels, -1 where none is.

    `px`, `py`, `depth` are (T, 3) per-triangle vertex coordinates in draw
    order; the depth rule is the one in the module docstring.
    """
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        raise NumericsError("render needs finite projected vertices")
    # Clipped to [0, n] and [-1, n - 1] so an off-screen box stays empty
    # and every bound fits an int64.
    x0 = np.clip(np.floor(px.min(axis=1)), 0, n).astype(np.int64)
    x1 = np.clip(np.ceil(px.max(axis=1)), -1, n - 1).astype(np.int64)
    y0 = np.clip(np.floor(py.min(axis=1)), 0, n).astype(np.int64)
    y1 = np.clip(np.ceil(py.max(axis=1)), -1, n - 1).astype(np.int64)
    a0 = py[:, 1] - py[:, 2]
    b0 = px[:, 2] - px[:, 1]
    a1 = py[:, 2] - py[:, 0]
    b1 = px[:, 0] - px[:, 2]
    denom = a0 * (px[:, 0] - px[:, 2]) + b0 * (py[:, 0] - py[:, 2])
    keep = np.flatnonzero((x0 <= x1) & (y0 <= y1) & ~(np.abs(denom) < 1e-12))

    # Expand every bounding-box pixel of every kept triangle, row-major:
    # pixel k of triangle t lies at (x0 + k % width, y0 + k // width).
    width = x1[keep] - x0[keep] + 1
    area = width * (y1[keep] - y0[keep] + 1)
    t = np.repeat(keep, area)
    k = np.arange(area.sum()) - np.repeat(np.cumsum(area) - area, area)
    w = np.repeat(width, area)
    ys = y0[t] + k // w
    xs = x0[t] + k % w
    dx = xs + 0.5 - px[t, 2]
    dy = ys + 0.5 - py[t, 2]
    w0 = (a0[t] * dx + b0[t] * dy) / denom[t]
    w1 = (a1[t] * dx + b1[t] * dy) / denom[t]
    w2 = 1.0 - w0 - w1
    z = w0 * depth[t, 0] + w1 * depth[t, 1] + w2 * depth[t, 2]
    hit = (w0 >= 0) & (w1 >= 0) & (w2 >= 0) & (z > -np.inf)
    t, z, pix = t[hit], z[hit], (ys * n + xs)[hit]
    # Per pixel, the largest z wins; on a tie, the earliest-drawn triangle.
    zbuf = np.full(n * n, -np.inf)
    np.maximum.at(zbuf, pix, z)
    top = z == zbuf[pix]
    winner = np.full(n * n, len(px))
    np.minimum.at(winner, pix[top], t[top])
    winner[winner == len(px)] = -1
    return winner


def downsample_mask(mask: np.ndarray, grid_side: int) -> np.ndarray:
    """Majority class id per grid cell; ties break toward the lowest id."""
    if (mask.ndim != 2 or mask.shape[0] != mask.shape[1] or mask.shape[0] < grid_side
            or mask.shape[0] % grid_side):
        raise ShapeError(f"downsample_mask needs a square mask whose side is a positive "
                         f"multiple of {grid_side}, got shape {mask.shape}")
    cell = mask.shape[0] // grid_side
    blocks = (mask.reshape(grid_side, cell, grid_side, cell)
              .transpose(0, 2, 1, 3).reshape(grid_side * grid_side, -1))
    if blocks.min() < 0:
        raise ContractError(f"mask class ids must be >= 0, got {blocks.min()}")
    k = int(blocks.max()) + 1
    counts = np.bincount((np.arange(len(blocks))[:, None] * k + blocks).reshape(-1),
                         minlength=len(blocks) * k)
    return counts.reshape(len(blocks), k).argmax(axis=1).astype(np.int32)


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
        sides = []
        if (x_lo - 1.0) - size[0] > -world:
            sides.append(("x", -world, x_lo - 1.0 - size[0]))
        if x_hi + 1.0 < world - size[0]:
            sides.append(("x", x_hi + 1.0, world - size[0]))
        if (z_lo - 1.0) - size[2] > -world:
            sides.append(("z", -world, z_lo - 1.0 - size[2]))
        if z_hi + 1.0 < world - size[2]:
            sides.append(("z", z_hi + 1.0, world - size[2]))
        if not sides:
            continue
        axis, lo, hi = sides[rng.integers(len(sides))]
        if axis == "x":
            corner_x = rng.uniform(lo, hi)
            corner_z = rng.uniform(-world, world - size[2])
        else:
            corner_z = rng.uniform(lo, hi)
            corner_x = rng.uniform(-world, world - size[0])
        boxes.append([corner_x, 0.0, corner_z, size[0], size[1], size[2]])
    return np.asarray(boxes) if boxes else np.zeros((0, 6))


def generate_sample(config: SceneConfig, template: MeshTemplate, rng) -> Sample:
    """One fully labeled scene; deterministic given (config, template, rng state)."""
    config.validate(template)

    base = _BASE_POSES[rng.integers(len(_BASE_POSES))]
    pose = base + rng.normal(0.0, POSE_JITTER, size=base.size)
    posed = pose_vertices(template, pose)

    mode = _MODES[rng.integers(len(_MODES))]
    roll = rng.uniform(0.0, 2.0 * math.pi)
    yaw = rng.uniform(0.0, 2.0 * math.pi)
    if mode == "standing":
        tilt = rng.uniform(0.0, 0.12)
    elif mode == "leaning":
        tilt = rng.uniform(0.45, 0.95)
    else:
        tilt = math.pi / 2.0
    rot = _rot_y(yaw) @ _rot_z(tilt) @ _rot_y(roll)
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
        sem_grid=downsample_mask(sem_mask, config.backbone.grid_side),
        bp_grid=downsample_mask(bp_mask, config.backbone.grid_side),
        pose=pose,
        boxes=boxes,
    )


def generate_dataset(config: SceneConfig, template: MeshTemplate, count: int, seed: int):
    """Samples from per-index derived RNG streams; independent of generation order."""
    return [
        generate_sample(config, template, np.random.default_rng([seed, i]))
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# sample and dataset files
#
# A sample file holds one Sample's tensors.  A dataset file holds N samples,
# each tensor stacked on a leading N axis.  Box counts differ between
# samples, so `boxes` is zero-padded to (N, max_boxes, 6), max_boxes being
# the largest count, and the int32 `n_boxes` gives each sample's own count.
# The layout tables above are the one place for what a valid file holds:
# `check_layout` checks every kind, shape and value range they give.


def _sample_tensors(s: Sample, path) -> dict:
    """The tensors of `s`, checked as `read_sample` checks them, so a written file reads back."""
    tensors = {f.name: np.asarray(getattr(s, f.name)) for f in fields(Sample)}
    check_layout(path, tensors, _SAMPLE_LAYOUT)
    return tensors


def write_sample(s: Sample, path):
    write_tensor_file(path, SAMPLE_MAGIC, _sample_tensors(s, path))


def read_sample(path) -> Sample:
    tensors = read_tensor_file(path, SAMPLE_MAGIC)
    check_layout(path, tensors, _SAMPLE_LAYOUT)
    return Sample(**tensors)


def _stack(path, per_sample, name):
    try:
        return np.stack([t[name] for t in per_sample])
    except ValueError as exc:
        shapes = sorted({t[name].shape for t in per_sample})
        raise ShapeError(f"{path}: {name!r} differs in shape between samples: {shapes}") from exc


def write_dataset(samples, path):
    """One tensor file holding the samples in order (see `_DATASET_LAYOUT`)."""
    if not samples:
        raise ContractError("write_dataset needs at least one sample")
    per_sample = [_sample_tensors(s, path) for s in samples]
    tensors = {name: _stack(path, per_sample, name) for name in per_sample[0] if name != "boxes"}
    n_boxes = np.array([len(s.boxes) for s in samples], dtype=np.int32)
    boxes = np.zeros((len(samples), n_boxes.max(), 6))
    for padded, s in zip(boxes, samples):
        padded[: len(s.boxes)] = s.boxes
    tensors.update(boxes=boxes, n_boxes=n_boxes)
    write_tensor_file(path, DATASET_MAGIC, tensors)


def read_dataset(path) -> list[Sample]:
    tensors = read_tensor_file(path, DATASET_MAGIC)
    extents = check_layout(path, tensors, _DATASET_LAYOUT)
    if extents["N"] < 1:
        raise DataError(f"{path}: a dataset holds at least one sample, got N = 0")
    n_boxes = tensors.pop("n_boxes")
    boxes = tensors.pop("boxes")
    return [Sample(**{name: t[i] for name, t in tensors.items()}, boxes=boxes[i, :n])
            for i, n in enumerate(n_boxes)]
