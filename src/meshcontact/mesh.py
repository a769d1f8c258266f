"""Template body mesh: construction, upsampling, joint regression, geodesics.

The template is a procedurally generated body-like surface: a chain of
JOINTS tube segments (rings of RING_SIZE vertices around a vertical
centerline, closed by two cap vertices) whose per-segment radii and lengths
get a small seeded jitter.  A coarse version of the same chain, sharing every
ring-stride-th ring, provides the low-resolution vertex set the model
regresses; a fixed convex-weight matrix lifts coarse vertices back to the
full mesh.

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
from .errors import ConfigError, ContractError, ShapeError, check_int_fields

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
    segment_ids: np.ndarray  # (v_full,) int32, body segment per vertex
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
    """Per-ring (height, radius) along the chain, with seeded segment jitter."""
    rings = config.full_rings
    per_seg = rings // JOINTS
    # Body-ish radius plan, one per segment: slim ends, bulging middle, rounded top.
    base = np.array([0.55, 0.8, 1.05, 1.3, 1.35, 1.15, 0.7, 1.0])
    seg_radius = base * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=JOINTS))
    seg_length = np.full(JOINTS, HEIGHT_CM / JOINTS) * (
        1.0 + 0.08 * rng.uniform(-1.0, 1.0, size=JOINTS)
    )

    heights = np.zeros(rings)
    radii = np.zeros(rings)
    h = 0.0
    for j in range(JOINTS):
        r0 = seg_radius[j]
        r1 = seg_radius[min(j + 1, JOINTS - 1)]
        for k in range(per_seg):
            t = k / per_seg
            idx = j * per_seg + k
            heights[idx] = h + t * seg_length[j]
            radii[idx] = (1 - t) * r0 + t * r1
        h += seg_length[j]
    return heights, radii, seg_length


def _chain_mesh(heights, radii):
    """Vertices and faces of one capped tube: bottom cap, rings, top cap."""
    rings = heights.size
    angles = 2.0 * np.pi * np.arange(RING_SIZE) / RING_SIZE
    verts = [np.array([0.0, heights[0] - radii[0], 0.0])]
    for k in range(rings):
        for a in angles:
            verts.append(np.array([radii[k] * np.cos(a), heights[k], radii[k] * np.sin(a)]))
    verts.append(np.array([0.0, heights[-1] + radii[-1], 0.0]))
    verts = np.asarray(verts)

    def ring_idx(k, j):
        return 1 + k * RING_SIZE + (j % RING_SIZE)

    faces = []
    for j in range(RING_SIZE):
        faces.append((0, ring_idx(0, j + 1), ring_idx(0, j)))
    for k in range(rings - 1):
        for j in range(RING_SIZE):
            a, b = ring_idx(k, j), ring_idx(k, j + 1)
            c, d = ring_idx(k + 1, j + 1), ring_idx(k + 1, j)
            faces.append((a, b, c))
            faces.append((a, c, d))
    top = verts.shape[0] - 1
    for j in range(RING_SIZE):
        faces.append((top, ring_idx(rings - 1, j), ring_idx(rings - 1, j + 1)))
    return verts, np.asarray(faces, dtype=np.int32)


def _face_edges(faces) -> np.ndarray:
    """Sorted unique int32 (u, v) pairs of the faces' sides, u < v for nondegenerate faces."""
    pairs = np.sort(faces[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
    return np.unique(pairs, axis=0).astype(np.int32)


def _nearest_interp_matrix(targets, anchors):
    """Convex inverse-distance weights onto the <= _INTERP_ANCHORS nearest anchor points."""
    mat = np.zeros((targets.shape[0], anchors.shape[0]))
    for i, p in enumerate(targets):
        d = np.linalg.norm(anchors - p, axis=1)
        near = np.argsort(d)[:_INTERP_ANCHORS]
        if d[near[0]] < 1e-9:
            mat[i, near[0]] = 1.0
            continue
        w = 1.0 / d[near]
        mat[i, near] = w / w.sum()
    return mat


def build_template(config: MeshConfig, rng_seed: int) -> MeshTemplate:
    """Deterministically build the capsule-chain template for (config, seed)."""
    rng = np.random.default_rng(rng_seed)
    heights, radii, seg_length = _ring_profile(config, rng)

    verts, faces = _chain_mesh(heights, radii)
    stride = config.full_rings // config.coarse_rings
    coarse_verts, coarse_faces = _chain_mesh(heights[::stride], radii[::stride])

    edges = _face_edges(faces)
    edge_lengths = np.linalg.norm(verts[edges[:, 0]] - verts[edges[:, 1]], axis=1)
    edge_lengths = np.round(edge_lengths / _LENGTH_QUANTUM) * _LENGTH_QUANTUM

    upsample = _nearest_interp_matrix(verts, coarse_verts)

    per_seg = config.full_rings // JOINTS
    segment_ids = np.empty(verts.shape[0], dtype=np.int32)
    segment_ids[0] = 0
    segment_ids[-1] = JOINTS - 1
    for k in range(config.full_rings):
        seg = k // per_seg
        segment_ids[1 + k * RING_SIZE : 1 + (k + 1) * RING_SIZE] = seg

    regressor = np.zeros((JOINTS, verts.shape[0]))
    for j in range(JOINTS):
        members = segment_ids == j
        regressor[j, members] = 1.0 / members.sum()

    bounds = np.concatenate([[heights[0]], np.cumsum(seg_length)[:-1] + heights[0]])
    pivots = np.stack([np.zeros_like(bounds), bounds, np.zeros_like(bounds)], axis=1)

    return MeshTemplate(
        rest_vertices=verts,
        faces=faces,
        coarse_rest_vertices=coarse_verts,
        coarse_faces=coarse_faces,
        upsample_matrix=upsample,
        joint_regressor=regressor,
        edges=edges,
        edge_lengths=edge_lengths,
        segment_ids=segment_ids,
        rest_pivots=pivots,
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
    sources = list(sources)
    if not sources:
        raise ContractError("geodesic_distances needs at least one source vertex")
    n = template.v_full
    for s in sources:
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
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


def _rot_x(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _rot_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def pose_vertices(template: MeshTemplate, pose_params) -> np.ndarray:
    """Deform the rest mesh by per-joint rigid rotations along the chain.

    The first joints-1 parameters bend about x at each internal pivot, the
    following ones bend about z; extras are ignored.
    """
    pose = np.asarray(pose_params, dtype=np.float64).reshape(-1)
    nj = template.n_joints
    thx = np.zeros(nj)
    thz = np.zeros(nj)
    nx = min(pose.size, nj - 1)
    thx[1 : 1 + nx] = pose[:nx]
    nz = min(max(pose.size - (nj - 1), 0), nj - 1)
    thz[1 : 1 + nz] = pose[nj - 1 : nj - 1 + nz]

    verts = template.rest_vertices.copy()
    pivots = template.rest_pivots.copy()
    seg = template.segment_ids
    for j in range(1, nj):
        if thx[j] == 0.0 and thz[j] == 0.0:
            continue
        rot = _rot_x(thx[j]) @ _rot_z(thz[j])
        p = pivots[j]
        vmask = seg >= j
        verts[vmask] = (verts[vmask] - p) @ rot.T + p
        pmask = np.arange(nj) > j
        pivots[pmask] = (pivots[pmask] - p) @ rot.T + p
    return verts


def coarse_adjacency(template: MeshTemplate) -> np.ndarray:
    """Row-normalized coarse-mesh adjacency with self-loops, rows sum to 1."""
    a = np.eye(template.v_coarse)
    u, v = _face_edges(template.coarse_faces).T
    a[u, v] = a[v, u] = 1.0
    return a / a.sum(axis=1, keepdims=True)
