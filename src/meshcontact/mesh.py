"""Template body mesh: construction, upsampling, joint regression, geodesics.

The template is a procedurally generated body-like surface: a chain of
JOINTS tube segments (rings of RING_SIZE vertices around a vertical
centerline, closed by two cap vertices) whose per-segment radii and lengths
get a small seeded jitter.  A coarse version of the same chain, sharing every
ring-stride-th ring, provides the low-resolution vertex set the model
regresses; a fixed convex-weight matrix lifts coarse vertices back to the
full mesh.

Both meshes share one vertex layout: vertex 0 is the bottom cap, vertex
1 + k*RING_SIZE + j is slot j of ring k (rings numbered upward), and the top
cap is last.  Segment s owns its run of consecutive rings, so `segment_ids`
never decreases; the bottom cap belongs to the first segment and the top cap
to the last.

Units are centimeters throughout.  Edge lengths are quantized to 2^-20 cm
at construction, so they are dyadic and every shortest-path sum is exact in
double precision (any summation order yields the identical float).  That
keeps the geodesics, which come from scipy's Dijkstra over the edge graph,
bit-identical to any all-pairs oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (ConfigError, ContractError, NumericsError, ShapeError, _is_int,
                     check_int_fields)

JOINTS = 8  # chain segments; the radius plan, base poses and part palette are written for 8
RING_SIZE = 6  # vertices per ring
HEIGHT_CM = 16.0  # chain height before the seeded segment-length jitter
_LENGTH_QUANTUM = 2.0**-20
_INTERP_ANCHORS = 4  # coarse vertices each full vertex is interpolated from


@dataclass(frozen=True)
class MeshConfig:
    """Vertex counts of the full and the coarse capsule-chain template."""

    v_full: int = 386
    v_coarse: int = 98

    def __post_init__(self):
        check_int_fields(self)
        if self.coarse_rings < 1:
            raise ConfigError(f"need a coarse ring, got {self}")
        if self.v_coarse >= self.v_full:
            raise ConfigError(f"v_coarse {self.v_coarse} must be < v_full {self.v_full}")
        for name, v in (("v_full", self.v_full), ("v_coarse", self.v_coarse)):
            if (v - 2) % RING_SIZE:
                raise ConfigError(f"{name}={v} is not rings*{RING_SIZE}+2")
        rings = self.full_rings
        if rings % JOINTS:
            raise ConfigError(f"{rings} rings do not split into {JOINTS} segments")
        if rings % self.coarse_rings:
            raise ConfigError(f"coarse rings {self.coarse_rings} do not divide {rings}")

    @property
    def full_rings(self) -> int:
        return (self.v_full - 2) // RING_SIZE

    @property
    def coarse_rings(self) -> int:
        return (self.v_coarse - 2) // RING_SIZE


@dataclass
class MeshTemplate:
    """Immutable template mesh plus the fixed linear operators built on it."""

    rest_vertices: np.ndarray  # (v_full, 3) cm
    faces: np.ndarray  # (n_faces, 3) int32
    coarse_rest_vertices: np.ndarray  # (v_coarse, 3) cm
    coarse_faces: np.ndarray  # int32
    upsample_matrix: np.ndarray  # (v_full, v_coarse), rows sum to 1
    joint_regressor: np.ndarray  # (joints, v_full), rows sum to 1
    edges: np.ndarray  # (n_edges, 2) int32, u < v
    edge_lengths: np.ndarray  # (n_edges,) cm, dyadic rationals
    segment_ids: np.ndarray  # (v_full,) int32, body segment per vertex; never decreases
    rest_pivots: np.ndarray  # (joints, 3) chain pivot points in rest pose

    @property
    def v_full(self) -> int:
        return self.rest_vertices.shape[0]

    @property
    def v_coarse(self) -> int:
        return self.coarse_rest_vertices.shape[0]

    @property
    def n_joints(self) -> int:
        return self.joint_regressor.shape[0]


def _ring_profile(config: MeshConfig, rng: np.random.Generator):
    """Per-ring (height, radius) along the chain, with seeded segment jitter, and the
    height at which each segment starts."""
    per_seg = config.full_rings // JOINTS
    # Body-ish radius plan, one per segment: slim ends, bulging middle, rounded top.
    base = np.array([0.55, 0.8, 1.05, 1.3, 1.35, 1.15, 0.7, 1.0])
    seg_radius = base * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=JOINTS))
    seg_length = np.full(JOINTS, HEIGHT_CM / JOINTS) * (
        1.0 + 0.08 * rng.uniform(-1.0, 1.0, size=JOINTS)
    )
    seg_start = np.concatenate([[0.0], np.cumsum(seg_length)[:-1]])

    # Each segment's rings step from its start toward the next, the radius blending
    # toward the next segment's (the last segment keeps its own).
    t = np.arange(per_seg) / per_seg
    r0 = seg_radius[:, None]
    r1 = np.append(seg_radius[1:], seg_radius[-1])[:, None]
    heights = (seg_start[:, None] + t * seg_length[:, None]).reshape(-1)
    radii = ((1 - t) * r0 + t * r1).reshape(-1)
    return heights, radii, seg_start


def _chain_mesh(heights, radii):
    """Vertices and faces of one capped tube in the module's vertex layout."""
    rings = heights.size
    angles = 2.0 * np.pi * np.arange(RING_SIZE) / RING_SIZE
    ring_verts = np.stack([radii[:, None] * np.cos(angles),
                           np.broadcast_to(heights[:, None], (rings, RING_SIZE)),
                           radii[:, None] * np.sin(angles)], axis=-1)
    verts = np.concatenate([[[0.0, heights[0] - radii[0], 0.0]],
                            ring_verts.reshape(-1, 3),
                            [[0.0, heights[-1] + radii[-1], 0.0]]])

    ring = 1 + np.arange(rings * RING_SIZE).reshape(rings, RING_SIZE)
    nxt = np.roll(ring, -1, axis=1)  # the next slot around each ring
    bottom, top = np.full(RING_SIZE, 0), np.full(RING_SIZE, verts.shape[0] - 1)
    # Quad (k, j) is the two triangles (a, b, c) and (a, c, d), ring by ring.
    a, b, c, d = ring[:-1], nxt[:-1], nxt[1:], ring[1:]
    faces = np.concatenate([
        np.stack([bottom, nxt[0], ring[0]], axis=1),
        np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3),
        np.stack([top, ring[-1], nxt[-1]], axis=1),
    ])
    return verts, faces.astype(np.int32)


def _face_edges(faces) -> np.ndarray:
    """Sorted unique int32 (u, v) pairs of the faces' sides, u < v for nondegenerate faces."""
    pairs = np.sort(faces[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
    return np.unique(pairs, axis=0).astype(np.int32)


def _nearest_interp_matrix(targets, anchors):
    """Convex inverse-distance weights onto the <= _INTERP_ANCHORS nearest anchor points."""
    d = np.linalg.norm(targets[:, None, :] - anchors[None, :, :], axis=2)
    near = np.argsort(d, axis=1)[:, :_INTERP_ANCHORS]
    dist = np.take_along_axis(d, near, axis=1)
    with np.errstate(divide="ignore"):
        w = 1.0 / dist
    # A target on an anchor takes that anchor alone.
    w[dist[:, 0] < 1e-9] = np.eye(1, _INTERP_ANCHORS)
    mat = np.zeros((targets.shape[0], anchors.shape[0]))
    np.put_along_axis(mat, near, w / w.sum(axis=1, keepdims=True), axis=1)
    return mat


def build_template(config: MeshConfig, rng_seed: int) -> MeshTemplate:
    """Deterministically build the capsule-chain template for (config, seed)."""
    # True seeded as 1, and SeedSequence leaked a TypeError for 1.5 and a ValueError for -1.
    if not _is_int(rng_seed) or rng_seed < 0:
        raise ContractError(f"build_template needs an integer seed >= 0, got {rng_seed!r}")
    rng = np.random.default_rng(rng_seed)
    heights, radii, seg_start = _ring_profile(config, rng)

    verts, faces = _chain_mesh(heights, radii)
    stride = config.full_rings // config.coarse_rings
    coarse_verts, coarse_faces = _chain_mesh(heights[::stride], radii[::stride])

    edges = _face_edges(faces)
    edge_lengths = np.linalg.norm(verts[edges[:, 0]] - verts[edges[:, 1]], axis=1)
    edge_lengths = np.round(edge_lengths / _LENGTH_QUANTUM) * _LENGTH_QUANTUM

    per_seg = config.full_rings // JOINTS * RING_SIZE  # ring vertices per segment
    segment_ids = np.concatenate(
        [[0], np.repeat(np.arange(JOINTS), per_seg), [JOINTS - 1]]).astype(np.int32)
    members = (segment_ids == np.arange(JOINTS)[:, None]).astype(np.float64)

    zeros = np.zeros(JOINTS)
    return MeshTemplate(
        rest_vertices=verts,
        faces=faces,
        coarse_rest_vertices=coarse_verts,
        coarse_faces=coarse_faces,
        upsample_matrix=_nearest_interp_matrix(verts, coarse_verts),
        joint_regressor=members / members.sum(axis=1, keepdims=True),
        edges=edges,
        edge_lengths=edge_lengths,
        segment_ids=segment_ids,
        rest_pivots=np.stack([zeros, seg_start, zeros], axis=1),
    )


# ---------------------------------------------------------------------------
# differentiable linear operators


def upsample(coarse: Tensor, template: MeshTemplate) -> Tensor:
    """Lift per-coarse-vertex rows (v_coarse, k) to the full mesh via the fixed convex weights."""
    if coarse.ndim != 2 or coarse.shape[0] != template.v_coarse:
        raise ShapeError(f"upsample expects ({template.v_coarse}, k), got {coarse.shape}")
    return ad.matmul(Tensor(template.upsample_matrix), coarse)


def regress_joints(full_vertices: Tensor, template: MeshTemplate) -> Tensor:
    """Per-segment joint positions as fixed convex combinations of vertices."""
    if full_vertices.shape != (template.v_full, 3):
        raise ShapeError(
            f"regress_joints expects {(template.v_full, 3)}, got {full_vertices.shape}"
        )
    return ad.matmul(Tensor(template.joint_regressor), full_vertices)


# ---------------------------------------------------------------------------
# surface distances


def geodesic_distances(template: MeshTemplate, sources) -> Tensor:
    """Multi-source shortest-path distance (cm) over the mesh edge graph."""
    try:
        sources = list(sources)
    except TypeError as exc:
        raise ContractError(f"geodesic_distances needs `sources` to be an iterable of vertex "
                            f"indices, got {sources!r}") from exc
    if not sources:
        raise ContractError("geodesic_distances needs at least one source vertex")
    n = template.v_full
    for s in sources:
        if not _is_int(s):
            raise ContractError(f"source vertex {s!r} is not an integer index")
        if not 0 <= s < n:
            raise ContractError(f"source vertex {s} outside [0, {n})")
    # Imported here, not at module level: importing scipy.sparse.csgraph adds ~10 MB
    # of resident memory, which every process that never asks for a geodesic would pay.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    u, v = template.edges.T
    graph = csr_matrix((template.edge_lengths, (u, v)), shape=(n, n))
    return Tensor(dijkstra(graph, directed=False, indices=sources, min_only=True))


# ---------------------------------------------------------------------------
# posing (used by the scene generator)


def _rotation(axis: str, t) -> np.ndarray:
    """The right-handed rotation by `t` radians about `axis`, one of "x", "y" and "z"."""
    i, j = {"x": (1, 2), "y": (2, 0), "z": (0, 1)}[axis]  # the rotated plane, i toward j
    c, s = np.cos(t), np.sin(t)
    rot = np.eye(3)
    rot[i, i] = rot[j, j] = c
    rot[j, i], rot[i, j] = s, -s
    return rot


def pose_vertices(template: MeshTemplate, pose_params) -> np.ndarray:
    """Deform the rest mesh by per-joint rigid rotations along the chain.

    The pose is 1-D: the first joints-1 parameters bend about x at each
    internal pivot, the next joints-1 about z, and missing ones are 0.  A pose
    with a NaN or infinite entry raises NumericsError.
    """
    pose = np.asarray(pose_params, dtype=np.float64)
    nj = template.n_joints
    if pose.ndim != 1 or pose.size > 2 * (nj - 1):
        raise ShapeError(f"pose_vertices takes a 1-D pose of at most {2 * (nj - 1)} "
                         f"entries, got shape {pose.shape}")
    if not np.isfinite(pose).all():
        raise NumericsError(f"pose_vertices needs a finite pose, got {pose}")
    thx, thz = np.pad(pose, (0, 2 * (nj - 1) - pose.size)).reshape(2, nj - 1)

    verts = template.rest_vertices.copy()
    pivots = template.rest_pivots.copy()
    # segment_ids never decreases, so the vertices of segments j.. are the
    # tail verts[first[j]:].
    first = np.searchsorted(template.segment_ids, np.arange(nj))
    for j, tx, tz in zip(range(1, nj), thx, thz):
        if tx == 0.0 and tz == 0.0:
            continue
        rot = _rotation("x", tx) @ _rotation("z", tz)
        p = pivots[j]
        verts[first[j]:] = (verts[first[j]:] - p) @ rot.T + p
        pivots[j + 1:] = (pivots[j + 1:] - p) @ rot.T + p
    return verts


def coarse_adjacency(template: MeshTemplate) -> np.ndarray:
    """Row-normalized coarse-mesh adjacency with self-loops, rows sum to 1."""
    a = np.eye(template.v_coarse)
    u, v = _face_edges(template.coarse_faces).T
    a[u, v] = a[v, u] = 1.0
    return a / a.sum(axis=1, keepdims=True)
