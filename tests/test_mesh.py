import collections
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meshcontact import autodiff as ad
from meshcontact import mesh, scenes
from meshcontact.errors import ConfigError, ContractError, NumericsError, ShapeError


@pytest.fixture(scope="module")
def template():
    return mesh.build_template(mesh.MeshConfig(), rng_seed=7)


def bfs_reachable(n, edges):
    adj = collections.defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = collections.deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def coarse_adjacency_loop(template):
    """Per-face loop oracle for `mesh.coarse_adjacency`."""
    n = template.v_coarse
    a = np.eye(n)
    for f in template.coarse_faces:
        for u, v in ((f[0], f[1]), (f[1], f[2]), (f[0], f[2])):
            a[u, v] = 1.0
            a[v, u] = 1.0
    return a / a.sum(axis=1, keepdims=True)


def rot_x(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def rot_y(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def pose_vertices_mask_loop(template, pose):
    """Boolean-mask oracle for `mesh.pose_vertices`: each bend gathers and scatters the
    vertices of segments >= j and the pivots after j."""
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
        rot = rot_x(thx[j]) @ rot_z(thz[j])
        p = pivots[j]
        vmask = seg >= j
        verts[vmask] = (verts[vmask] - p) @ rot.T + p
        pmask = np.arange(nj) > j
        pivots[pmask] = (pivots[pmask] - p) @ rot.T + p
    return verts


def floyd_warshall(n, edges, lengths):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in zip(edges, lengths):
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


# (v_full, v_coarse) of valid configs; None is the default config.
VALID_EXTENTS = [None, (50, 14), (194, 50)]
VALID_IDS = ["default", "50-14", "194-50"]


def build(extents):
    return mesh.build_template(mesh.MeshConfig(*extents or ()), rng_seed=7)


class TestBuildTemplate:
    def test_desk_extents(self, template):
        assert template.v_full == 386
        assert template.v_coarse == 98
        assert template.n_joints == 8

    def test_deterministic(self, template):
        again = mesh.build_template(mesh.MeshConfig(), rng_seed=7)
        assert np.array_equal(template.rest_vertices, again.rest_vertices)
        assert np.array_equal(template.faces, again.faces)
        assert np.array_equal(template.upsample_matrix, again.upsample_matrix)
        assert np.array_equal(template.edge_lengths, again.edge_lengths)

    def test_row_sums(self, template):
        assert np.abs(template.upsample_matrix.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(template.joint_regressor.sum(axis=1) - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("extents", VALID_EXTENTS, ids=VALID_IDS)
    def test_connected_by_bfs_oracle(self, extents):
        built = build(extents)
        assert bfs_reachable(built.v_full, built.edges)

    @pytest.mark.parametrize("extents", VALID_EXTENTS, ids=VALID_IDS)
    def test_no_degenerate_faces(self, extents):
        built = build(extents)
        for v, f in ((built.rest_vertices, built.faces),
                     (built.coarse_rest_vertices, built.coarse_faces)):
            areas = 0.5 * np.linalg.norm(
                np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]), axis=1
            )
            assert areas.min() > 1e-6

    @pytest.mark.parametrize("seed", [True, 1.5, -1], ids=["bool", "float", "negative"])
    def test_bad_seed_rejected(self, seed):
        # True seeded as 1 in silence; 1.5 and -1 leaked SeedSequence's TypeError and ValueError.
        with pytest.raises(ContractError, match="integer seed >= 0"):
            mesh.build_template(mesh.MeshConfig(), rng_seed=seed)

    def test_face_indices_in_range(self, template):
        assert template.faces.min() >= 0
        assert template.faces.max() < template.v_full

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            mesh.build_template(mesh.MeshConfig(v_full=387), rng_seed=0)
        with pytest.raises(ConfigError):
            mesh.build_template(mesh.MeshConfig(v_coarse=386), rng_seed=0)
        with pytest.raises(ConfigError, match="coarse ring"):
            mesh.MeshConfig(v_coarse=2)
        with pytest.raises(ConfigError, match="9 rings do not split into 8 segments"):
            mesh.MeshConfig(v_full=56, v_coarse=14)
        with pytest.raises(ConfigError, match="coarse rings 6 do not divide 32"):
            mesh.MeshConfig(v_full=194, v_coarse=38)


class TestUpsample:
    def test_constant_point_preserved(self, template):
        coarse = np.full((template.v_coarse, 3), 3.25)
        full = mesh.upsample(ad.Tensor(coarse), template)
        assert np.abs(full.data - 3.25).max() <= 1e-12

    def test_rest_pose_reconstruction_within_recorded_residual(self, template):
        """The default template's max |U @ coarse_rest - rest|, recorded when build_template
        still stored it, bounds the reconstruction error."""
        full = mesh.upsample(ad.Tensor(template.coarse_rest_vertices), template)
        err = np.abs(full.data - template.rest_vertices).max()
        assert err <= 1.3080331500838263 + 1e-12

    def test_rest_pose_exact_at_shared_vertices(self, template):
        """Every full vertex that is also a coarse vertex (all but the coarse top cap) is kept."""
        full = mesh.upsample(ad.Tensor(template.coarse_rest_vertices), template).data
        gaps = np.linalg.norm(
            template.rest_vertices[:, None] - template.coarse_rest_vertices[None], axis=2)
        shared = gaps.min(axis=1) == 0.0
        assert shared.sum() == template.v_coarse - 1
        assert np.array_equal(full[shared], template.rest_vertices[shared])

    def test_linearity(self, template):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(template.v_coarse, 3))
        b = rng.normal(size=(template.v_coarse, 3))
        lhs = mesh.upsample(ad.Tensor(a + b), template).data
        rhs = mesh.upsample(ad.Tensor(a), template).data + mesh.upsample(ad.Tensor(b), template).data
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_shape_mismatch(self, template):
        with pytest.raises(ShapeError):
            mesh.upsample(ad.Tensor(np.zeros((5, 3))), template)

    def test_gradient_is_transposed_matrix(self, template):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(template.v_full, 3))
        with ad.tape_scope():
            coarse = ad.Tensor(
                rng.normal(size=(template.v_coarse, 3)), requires_grad=True, name="c"
            )
            loss = ad.sum_(ad.mul(mesh.upsample(coarse, template), ad.Tensor(w)))
            grads = ad.backward(loss, {"c": coarse})
        assert np.allclose(grads["c"].data, template.upsample_matrix.T @ w, atol=1e-12)


class TestRegressJoints:
    def test_constant_point(self, template):
        verts = np.full((template.v_full, 3), -2.0)
        joints = mesh.regress_joints(ad.Tensor(verts), template)
        assert np.abs(joints.data + 2.0).max() <= 1e-12

    def test_translation_equivariance(self, template):
        rng = np.random.default_rng(2)
        verts = rng.normal(size=(template.v_full, 3))
        t = np.array([1.0, -2.0, 0.5])
        j0 = mesh.regress_joints(ad.Tensor(verts), template).data
        j1 = mesh.regress_joints(ad.Tensor(verts + t), template).data
        assert np.abs(j1 - (j0 + t)).max() <= 1e-12

    def test_rest_pose_matches_centroid_oracle(self, template):
        joints = mesh.regress_joints(ad.Tensor(template.rest_vertices), template).data
        for j in range(template.n_joints):
            members = template.segment_ids == j
            centroid = template.rest_vertices[members].mean(axis=0)
            assert np.abs(joints[j] - centroid).max() <= 1e-9

    def test_shape_mismatch(self, template):
        with pytest.raises(ShapeError, match=rf"regress_joints expects \({template.v_full}, 3\)"):
            mesh.regress_joints(ad.Tensor(np.zeros((5, 3))), template)


class TestGeodesics:
    def test_all_sources_zero(self, template):
        d = mesh.geodesic_distances(template, range(template.v_full))
        assert np.array_equal(d.data, np.zeros(template.v_full))

    def test_path_graph(self):
        tiny = _path_template(3)
        d = mesh.geodesic_distances(tiny, [0])
        assert np.array_equal(d.data, [0.0, 1.0, 2.0])

    def test_zero_length_edge(self):
        tiny = _path_template(4)
        tiny.edge_lengths[1] = 0.0
        assert np.array_equal(mesh.geodesic_distances(tiny, [0]).data, [0.0, 1.0, 1.0, 2.0])
        assert np.array_equal(mesh.geodesic_distances(tiny, [2]).data, [1.0, 0.0, 0.0, 1.0])

    def test_empty_sources(self, template):
        with pytest.raises(ContractError):
            mesh.geodesic_distances(template, [])

    def test_non_iterable_sources_rejected(self, template):
        # A bare index leaked TypeError("'int' object is not iterable").
        with pytest.raises(ContractError, match="`sources`.* got 3"):
            mesh.geodesic_distances(template, 3)

    @pytest.mark.parametrize("source", [1.5, 1.0, True, np.float64(1.0), "1"],
                             ids=["fraction", "whole-float", "bool", "numpy-float", "str"])
    def test_non_integer_source_rejected(self, template, source):
        # 1.5 and True both returned vertex 1's distances.
        with pytest.raises(ContractError, match="not an integer"):
            mesh.geodesic_distances(template, [0, source])

    @pytest.mark.parametrize("source", [-1, mesh.MeshConfig().v_full], ids=["negative", "v-full"])
    def test_source_outside_the_mesh_rejected(self, template, source):
        with pytest.raises(ContractError, match=rf"source vertex {source} outside \[0, "):
            mesh.geodesic_distances(template, [0, source])

    def test_matches_floyd_warshall_exactly(self, template):
        rng = np.random.default_rng(3)
        all_pairs = floyd_warshall(template.v_full, template.edges, template.edge_lengths)
        for _ in range(3):
            sources = rng.choice(template.v_full, size=5, replace=False)
            d = mesh.geodesic_distances(template, sources).data
            expected = all_pairs[sources].min(axis=0)
            assert np.array_equal(d, expected)

    def test_edge_triangle_inequality(self, template):
        d = mesh.geodesic_distances(template, [0]).data
        for (u, v), w in zip(template.edges, template.edge_lengths):
            assert abs(d[u] - d[v]) <= w + 1e-9


class TestRotation:
    @pytest.mark.parametrize("axis, literal", [("x", rot_x), ("y", rot_y), ("z", rot_z)])
    def test_matches_literal_matrix_bit_for_bit(self, axis, literal):
        # rot_y is the scene generator's former math.cos/math.sin copy; x and z used np.cos.
        angles = [0.0, math.pi / 2, -math.pi / 2, math.pi,
                  *np.random.default_rng(11).uniform(-2 * math.pi, 2 * math.pi, 200)]
        for t in angles:
            assert mesh._rotation(axis, t).tobytes() == literal(t).tobytes(), (axis, t)


class TestPose:
    def test_zero_pose_is_rest(self, template):
        posed = mesh.pose_vertices(template, np.zeros(12))
        assert np.array_equal(posed, template.rest_vertices)

    def test_rigid_per_segment(self, template):
        pose = np.zeros(12)
        pose[3] = 0.7
        posed = mesh.pose_vertices(template, pose)
        for j in range(template.n_joints):
            members = template.segment_ids == j
            rest = template.rest_vertices[members]
            bent = posed[members]
            d_rest = np.linalg.norm(rest[0] - rest[-1])
            d_bent = np.linalg.norm(bent[0] - bent[-1])
            assert abs(d_rest - d_bent) <= 1e-9

    def test_longest_pose_bends_the_last_pivot_about_z(self, template):
        pose = np.zeros(2 * (template.n_joints - 1))
        pose[-1] = 0.5
        moved = (mesh.pose_vertices(template, pose) != template.rest_vertices).any(axis=1)
        assert np.array_equal(moved, template.segment_ids == template.n_joints - 1)

    @pytest.mark.parametrize("shape", [(3, 4), (15,), ()], ids=["2-d", "too-long", "0-d"])
    def test_bad_pose_shape_rejected(self, template, shape):
        # A (3, 4) pose was flattened and the entries past the 14th were dropped in silence.
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            mesh.pose_vertices(template, np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", [2, 9], ids=["x-bend", "z-bend"])
    def test_non_finite_pose_rejected(self, template, entry, value):
        # A NaN bend returned NaN coordinates in silence; an infinite one warned from cos.
        pose = np.zeros(2 * (template.n_joints - 1))
        pose[entry] = value
        with pytest.raises(NumericsError, match="finite pose"):
            mesh.pose_vertices(template, pose)

    @pytest.mark.parametrize("extents", [None, (98, 26)], ids=["default", "98-26"])
    def test_segment_ids_never_decrease(self, extents):
        """`pose_vertices` rotates the tail verts[first[j]:] for segments >= j."""
        assert (np.diff(build(extents).segment_ids) >= 0).all()

    @pytest.mark.parametrize("extents", [None, (98, 26)], ids=["default", "98-26"])
    def test_matches_mask_loop_bit_for_bit(self, extents):
        built = build(extents)
        rng = np.random.default_rng(5)
        poses = [np.zeros(scenes._BASE_POSES.shape[1])]
        poses += [base + rng.normal(0.0, scenes.POSE_JITTER, size=base.size)
                  for base in scenes._BASE_POSES for _ in range(3)]
        for pose in poses:
            assert np.array_equal(mesh.pose_vertices(built, pose),
                                  pose_vertices_mask_loop(built, pose))


class TestCoarseAdjacency:
    def test_rows_sum_to_one(self, template):
        a = mesh.coarse_adjacency(template)
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-9

    def test_support_symmetric(self, template):
        a = mesh.coarse_adjacency(template)
        assert np.array_equal(a > 0, (a > 0).T)

    def test_matches_face_loop_oracle(self, template):
        assert np.array_equal(mesh.coarse_adjacency(template), coarse_adjacency_loop(template))


def template_digest(built):
    """SHA-256 over each field's name, dtype, shape and bytes."""
    digest = hashlib.sha256()
    for name in ("rest_vertices", "faces", "coarse_rest_vertices", "coarse_faces",
                 "upsample_matrix", "joint_regressor", "edges", "edge_lengths",
                 "segment_ids", "rest_pivots"):
        array = getattr(built, name)
        for part in (name, str(array.dtype), str(array.shape)):
            digest.update(part.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestTemplateBytes:
    """The built arrays' bytes are pinned: a template is never stored, so these digests
    are what fix it across changes."""

    def test_default_template_bytes_pinned(self, template):
        assert template_digest(template) == (
            "c49588847f2450f90bde489b6e32f5a76a1a7006b10622ac074e71afb31ad9f7")

    @pytest.mark.parametrize("extents, expected", [
        ((98, 26), "1511efed9dca6001961430d55041eccf8607ecdb2564f297f753ef929d8037a7"),
        ((194, 50), "dc38808d2c5b7fc93f22a574c0674c3991d681a58bc6b007258353c79ed4a320"),
    ], ids=["98-26", "194-50"])
    def test_other_template_bytes_pinned(self, extents, expected):
        """(98, 26) is the benchmark's second mesh."""
        assert template_digest(build(extents)) == expected


def test_package_does_not_load_csgraph():
    """Geodesics import scipy.sparse.csgraph lazily: loading it adds ~10 MB of resident memory."""
    script = """
import importlib, pkgutil, sys
import numpy as np
import meshcontact
from meshcontact import mesh, scenes
for info in pkgutil.iter_modules(meshcontact.__path__):
    importlib.import_module("meshcontact." + info.name)
template = mesh.build_template(mesh.MeshConfig(), rng_seed=7)
scenes.generate_sample(scenes.SceneConfig(), template, np.random.default_rng(0))
print("scipy.sparse.csgraph" in sys.modules)
"""
    src = str(Path(mesh.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def _path_template(n):
    """Minimal template stub: an n-vertex path with unit 1 cm edges."""
    verts = np.stack([np.arange(n, dtype=float), np.zeros(n), np.zeros(n)], axis=1)
    edges = np.asarray([(i, i + 1) for i in range(n - 1)], dtype=np.int32)
    return mesh.MeshTemplate(
        rest_vertices=verts,
        faces=np.zeros((0, 3), dtype=np.int32),
        coarse_rest_vertices=verts[:1],
        coarse_faces=np.zeros((0, 3), dtype=np.int32),
        upsample_matrix=np.ones((n, 1)),
        joint_regressor=np.ones((2, n)) / n,
        edges=edges,
        edge_lengths=np.ones(n - 1),
        segment_ids=np.zeros(n, dtype=np.int32),
        rest_pivots=np.zeros((2, 3)),
    )
