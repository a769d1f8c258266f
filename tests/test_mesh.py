import collections
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meshcontact import autodiff as ad
from meshcontact import mesh
from meshcontact.errors import ConfigError, ContractError, DataError, ShapeError
from meshcontact.tensorio import read_tensor_file, write_tensor_file


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


def floyd_warshall(n, edges, lengths):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in zip(edges, lengths):
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def set_entry(name, index, value):
    """A table edit that replaces one entry of tensor `name` in a copy."""
    def edit(tensors):
        array = tensors[name].copy()
        array[index] = value
        tensors[name] = array
    return edit


# (v_full, v_coarse, joints, ring_size) of valid configs; None is the default config.
VALID_EXTENTS = [None, (26, 8, 4, 3), (98, 50, 4, 6)]
VALID_IDS = ["default", "26-8-4-3", "98-50-4-6"]


def build(extents):
    names = ("v_full", "v_coarse", "joints", "ring_size")
    return mesh.build_template(mesh.MeshConfig(**dict(zip(names, extents or ()))), rng_seed=7)


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

    def test_face_indices_in_range(self, template):
        assert template.faces.min() >= 0
        assert template.faces.max() < template.v_full

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            mesh.build_template(mesh.MeshConfig(joints=1), rng_seed=0)
        with pytest.raises(ConfigError):
            mesh.build_template(mesh.MeshConfig(v_full=387), rng_seed=0)
        with pytest.raises(ConfigError):
            mesh.build_template(mesh.MeshConfig(v_coarse=386), rng_seed=0)
        # Ring sizes 1 and 2 build degenerate faces and self-loop edges.
        with pytest.raises(ConfigError, match="ring_size >= 3"):
            mesh.build_template(mesh.MeshConfig(10, 6, 2, 1), rng_seed=0)
        with pytest.raises(ConfigError, match="ring_size >= 3"):
            mesh.build_template(mesh.MeshConfig(18, 10, 2, 2), rng_seed=0)
        # A NaN height builds NaN vertices, a zero height zero-length edges.
        for height in (np.nan, np.inf, 0.0, -16.0):
            with pytest.raises(ConfigError, match="height_cm must be finite and > 0"):
                mesh.build_template(mesh.MeshConfig(height_cm=height), rng_seed=0)


class TestUpsample:
    def test_constant_point_preserved(self, template):
        coarse = np.full((template.v_coarse, 3), 3.25)
        full = mesh.upsample(ad.Tensor(coarse), template)
        assert np.abs(full.data - 3.25).max() <= 1e-12

    def test_rest_pose_reconstruction_within_recorded_residual(self, template):
        full = mesh.upsample(ad.Tensor(template.coarse_rest_vertices), template)
        err = np.abs(full.data - template.rest_vertices).max()
        assert err <= template.upsample_residual + 1e-12

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
            grads = ad.backward(loss)
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


class TestCoarseAdjacency:
    def test_rows_sum_to_one(self, template):
        a = mesh.coarse_adjacency(template)
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-9

    def test_support_symmetric(self, template):
        a = mesh.coarse_adjacency(template)
        assert np.array_equal(a > 0, (a > 0).T)

    def test_matches_face_loop_oracle(self, template):
        assert np.array_equal(mesh.coarse_adjacency(template), coarse_adjacency_loop(template))


class TestSerialization:
    def test_round_trip_bit_exact(self, template, tmp_path):
        path = tmp_path / "body.mesh"
        mesh.write_template(template, path)
        back = mesh.read_template(path)
        assert np.array_equal(back.rest_vertices, template.rest_vertices)
        assert np.array_equal(back.faces, template.faces)
        assert np.array_equal(back.coarse_rest_vertices, template.coarse_rest_vertices)
        assert np.array_equal(back.coarse_faces, template.coarse_faces)
        assert np.array_equal(back.upsample_matrix, template.upsample_matrix)
        assert np.array_equal(back.joint_regressor, template.joint_regressor)
        assert np.array_equal(back.edges, template.edges)
        assert np.array_equal(back.edge_lengths, template.edge_lengths)
        assert np.array_equal(back.segment_ids, template.segment_ids)
        assert np.array_equal(back.rest_pivots, template.rest_pivots)
        assert back.upsample_residual == template.upsample_residual
        assert back.config == template.config
        assert back.seed == template.seed

    def test_default_template_bytes_pinned(self, template, tmp_path):
        path = tmp_path / "body.mesh"
        mesh.write_template(template, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "0078fd4cf5f176db9f1302be3fac4aeb6e8080ec336da0ee77ac237ab2487c86")

    def test_failed_write_keeps_the_old_file(self, template, tmp_path):
        path = tmp_path / "body.mesh"
        mesh.write_template(template, path)
        good = path.read_bytes()
        with pytest.raises(DataError, match="'seed'.*int32 range"):
            mesh.write_template(dataclasses.replace(template, seed=2**31), path)
        assert path.read_bytes() == good

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mesh"
        path.write_bytes(b"NOTMESH0" + b"\x00" * 64)
        with pytest.raises(Exception, match="magic"):
            mesh.read_template(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.update(seed=np.float64(7.0)), "'seed' is float64"),  # int code -> float
        (lambda t: t.update({"config.height_cm": np.int32(16)}), "'config.height_cm' is int32"),
        (lambda t: t.update(seed=np.array([7])), "'seed' is int32 of shape \\(1,\\)"),
        (lambda t: t.update({"config.ring_size": np.int32(0)}), "invalid template config"),
        (lambda t: t.update({"config.joints": np.int32(4)}), "do not follow from"),
        (lambda t: t.update(upsample_matrix=t["upsample_matrix"].T), "'upsample_matrix'"),
        (lambda t: t.update(segment_ids=t["segment_ids"][1:]), "'segment_ids'"),
        (lambda t: t.pop("edges"), "expected tensors"),
        (lambda t: t.update(extra=np.zeros(1)), "expected tensors"),
        (set_entry("faces", (0, 0), 386), "'faces' has entries outside \\[0, 386\\)"),
        (set_entry("faces", (0, 0), -1), "'faces' has entries outside"),
        (set_entry("coarse_faces", (0, 1), 98), "'coarse_faces' has entries outside \\[0, 98\\)"),
        (set_entry("segment_ids", 0, 8), "'segment_ids' has entries outside \\[0, 8\\)"),
        (set_entry("edges", (0, 1), 5000), "'edges' are not"),
        (lambda t: set_entry("edges", 1, t["edges"][0])(t), "'edges' are not"),
        (set_entry("edge_lengths", 0, -1.0), "'edge_lengths' has negative"),
        (set_entry("edge_lengths", 0, np.nan), "'edge_lengths' has non-finite"),
        (set_entry("edge_lengths", 0, np.inf), "'edge_lengths' has non-finite"),
        (set_entry("rest_vertices", (0, 0), np.nan), "'rest_vertices' has non-finite"),
        (set_entry("coarse_rest_vertices", (0, 0), np.inf),
         "'coarse_rest_vertices' has non-finite"),
        (set_entry("upsample_matrix", (0, 0), np.nan), "'upsample_matrix' has non-finite"),
        (set_entry("upsample_matrix", (0, 0), -0.5), "'upsample_matrix' rows must be >= 0"),
        (lambda t: set_entry("joint_regressor", 0, t["joint_regressor"][0] * 5.98)(t),
         "'joint_regressor' rows must be >= 0 and sum to 1 within 1e-09"),
        (set_entry("rest_pivots", (0, 0), np.nan), "'rest_pivots' has non-finite"),
        (lambda t: t.update(upsample_residual=np.float64(np.nan)),
         "'upsample_residual' has non-finite"),
    ], ids=["float_seed", "int_height", "seed_not_0d", "bad_config", "config_vs_arrays",
            "transposed", "short_array", "missing", "extra", "face_past_v_full",
            "negative_face", "coarse_face_past_v_coarse", "segment_past_joints",
            "edge_past_v_full", "duplicated_edge", "negative_length", "nan_length",
            "inf_length", "nan_vertex", "inf_coarse_vertex", "nan_upsample_weight",
            "negative_upsample_weight", "regressor_row_sum", "nan_pivot", "nan_residual"])
    def test_malformed_table_rejected(self, template, tmp_path, edit, message):
        path = tmp_path / "body.mesh"
        mesh.write_template(template, path)
        tensors = read_tensor_file(path, mesh.MESH_MAGIC)
        edit(tensors)
        write_tensor_file(path, mesh.MESH_MAGIC, tensors)
        with pytest.raises(DataError, match=message):
            mesh.read_template(path)


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
        config=mesh.MeshConfig(),
        seed=0,
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
        upsample_residual=0.0,
    )
