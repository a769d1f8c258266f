import dataclasses
import hashlib
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from meshcontact import mesh, scenes
from meshcontact.backbone import BackboneConfig
from meshcontact.errors import (ConfigError, ContractError, DataError, NumericsError,
                               ShapeError)
from meshcontact.tensorio import read_tensor_file, write_tensor_file

# SHA-256 of the write_sample bytes of generate_sample(SceneConfig(), the
# rng_seed=7 template, default_rng([2024, i])) for i in range(32), recorded
# from the per-triangle rasterizer that the batched one replaced.
DATASET_SHA256 = (
    "5c1d5c9eba83d01577e7ca31e3db485bfe49e67f2f8ae6865e8d221be287a4e5",
    "12ab3ebcda1cb27a950249e2d65f808fce9165e6100a6f9243f05e58ef2a336c",
    "7543894896949c62c54bd45d6cc584a7f70f110e1f8dcc851ad192730d395b41",
    "cd04e0c1d4bd3dd2687d2788b117fb1b972acf715062a75af3f6c32d84b29798",
    "ebae2f5036a93f7ec10c7c6b973f7e47420047a2d332dc499b30ab1e473cd46e",
    "8060fbb2bbe348ea90570e4aa9f2de9d5f0677ed5414a8f59fc968d06b4d09a8",
    "4f841adb0243f206d85c723d04af5f9952f9b68974f94304047bc44c60ed34d7",
    "2bd3b628bd3e368ff04139a9885066d8320a4446775ce4eb6a340d59915cb5e0",
    "c969dbce939433f6452e78160bd07695ad2280c395ff2fb16ab4c9cf87d03e0c",
    "7fd80892aadf7f04b15cbd30ea226e9af828fcf083b80033e1aa2a85a31b8778",
    "6327bcb10e9eb04749ac152f6f5fd25b024d641a81c8bc6e81adedaead524e1b",
    "1f17659b1a67681ab4304d5a61dc5d7e61041a6bd8ffd87b35d65904bc6d0bc9",
    "c312b9c20a26aa36747121e6188614803ef0cb8048daf1c443cf171bea3c10ae",
    "12ffe6b0fe2700364069281a92f308c47f0a9da7647efa18c5794746be89bee5",
    "2991226ebc9c86b35db73902f92cc6cbedcad45f9702956b5cf07062e70e9ede",
    "edcddd5517e918b0496a7d175afc55a694383ae03a98e5a56b78155dc35b0794",
    "9c81f4c5b7859ab81756a3f9c15e9d2834801f6a841959ffce242473d09af871",
    "6a3acf6681ed610f1e959dd79b187a2760011cb5977a707921ef80ddcafe7b80",
    "100735406bfb993b9138578988ed99eb01172e500fea6cdce2b00646c3748c20",
    "c34b2092d6115f3e445f1f8a4e012255d6705779c145b0868aea4674febf3e38",
    "c39151c00992895bf95be68922dfe393e3ad6ee76908bbd8bb91233c8e41f067",
    "21e2d2660d1c5e428f629b0aea94cc28730a60edc933a6e2dc03b828932a1ddc",
    "5950a6c20aa03ffe3f97e41d7c3964a07ae057a4b342c2bfdbff0cf9aa8b67c1",
    "b45537a0eac5833720926b7b8ead45b95892899ed18d620178760abc3069ae38",
    "a8ee6bb68bb073c5c0e8df7ee29633fd5dea4ba6afc234134bf0c73ad7bcc0ca",
    "d7f2ac5f518bd41d15b1187ec9714b7bd39d59d5c2379a75802283cbae22ed9c",
    "1bb47eea5353077c3cb9a3e16ae94317ed66a927bf598c1af7ab84d6ef64d2cb",
    "72b724cdf1c17093dbc6f63e54fc34386c2afb9ce2412237f3f1c2e6aee52cfb",
    "4aa38ec2a90d9c33368bd8fb31678af67c7cf9fcf4d04fd5ea73c5b9baf141aa",
    "48180eb49761ce226793a8a793a35bbe22bd6151f2989776f9d39949b344515a",
    "c229b2d6961a2a352e6a648511a69c8025460c2eda0cc11b415bf4bb6f470538",
    "92da2e93c39df8c3d0f42bc82d912770b223829d766e6f971f0b78940c16d6b2",
)


@pytest.fixture(scope="module")
def template():
    return mesh.build_template(mesh.MeshConfig(), rng_seed=7)


@pytest.fixture(scope="module")
def config():
    return scenes.SceneConfig()


def brute_force_distance(point, boxes):
    """Independent scalar implementation of point-to-scene distance."""
    best = abs(point[1])
    for box in boxes:
        lo = box[:3]
        hi = box[:3] + box[3:]
        if all(lo[i] <= point[i] <= hi[i] for i in range(3)):
            d = min(min(point[i] - lo[i], hi[i] - point[i]) for i in range(3))
        else:
            d = math.sqrt(sum(
                max(lo[i] - point[i], 0.0, point[i] - hi[i]) ** 2 for i in range(3)
            ))
        best = min(best, d)
    return best


class ScalarRaster:
    """Independent per-triangle rasterizer: one triangle at a time, in draw order."""

    def __init__(self, image_size):
        self.size = image_size
        self.rgb = np.tile(scenes._BACKGROUND_COLOR[:, None, None], (1, image_size, image_size))
        self.zbuf = np.full((image_size, image_size), -np.inf)
        self.sem = np.zeros((image_size, image_size), dtype=np.int32)
        self.bp = np.zeros((image_size, image_size), dtype=np.int32)

    def triangle(self, px, py, depth, color, sem_id, bp_id):
        n = self.size
        x0 = max(int(math.floor(px.min())), 0)
        x1 = min(int(math.ceil(px.max())), n - 1)
        y0 = max(int(math.floor(py.min())), 0)
        y1 = min(int(math.ceil(py.max())), n - 1)
        if x0 > x1 or y0 > y1:
            return
        denom = (py[1] - py[2]) * (px[0] - px[2]) + (px[2] - px[1]) * (py[0] - py[2])
        if abs(denom) < 1e-12:
            return
        ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
        cx = xs + 0.5
        cy = ys + 0.5
        w0 = ((py[1] - py[2]) * (cx - px[2]) + (px[2] - px[1]) * (cy - py[2])) / denom
        w1 = ((py[2] - py[0]) * (cx - px[2]) + (px[0] - px[2]) * (cy - py[2])) / denom
        w2 = 1.0 - w0 - w1
        z = w0 * depth[0] + w1 * depth[1] + w2 * depth[2]
        hit = (w0 >= 0) & (w1 >= 0) & (w2 >= 0) & (z > self.zbuf[y0 : y1 + 1, x0 : x1 + 1])
        if not hit.any():
            return
        win = (slice(y0, y1 + 1), slice(x0, x1 + 1))
        self.zbuf[win][hit] = z[hit]
        for c in range(3):
            plane = self.rgb[c][win]
            plane[hit] = color[c]
        self.sem[win][hit] = sem_id
        self.bp[win][hit] = bp_id

    def mesh(self, vertices, faces, colors, sem_ids, bp_ids):
        px, py, depth = scenes._project(vertices, self.size)
        for f, color, sem_id, bp_id in zip(faces, colors, sem_ids, bp_ids):
            self.triangle(px[f], py[f], depth[f], color, sem_id, bp_id)


def scalar_render(vertices, template, boxes, config):
    """`scenes.render` drawn by `ScalarRaster`: ground, then boxes, then body."""
    r = ScalarRaster(config.backbone.image_size)
    r.mesh(scenes._GROUND, scenes._GROUND_FACES, [scenes._GROUND_COLOR] * 2,
           [scenes.SEM_GROUND] * 2, [0] * 2)
    for box in boxes:
        r.mesh(box[:3] + box[3:] * scenes._UNIT_CUBE, scenes._BOX_FACES,
               [scenes._BOX_COLOR] * 12, [scenes.SEM_BOX] * 12, [0] * 12)
    face_seg = template.segment_ids[template.faces[:, 0]]
    colors = scenes._PART_PALETTE[face_seg % len(scenes._PART_PALETTE)]
    r.mesh(vertices, template.faces, colors, [scenes.SEM_BODY] * len(template.faces),
           (face_seg + 1).tolist())
    return np.clip(r.rgb, 0.0, 1.0), r.sem, r.bp


def loop_downsample(mask, grid_side):
    """Per-cell bincount majority, one cell at a time."""
    cell = mask.shape[0] // grid_side
    out = np.zeros(grid_side * grid_side, dtype=np.int32)
    for gy in range(grid_side):
        for gx in range(grid_side):
            block = mask[gy * cell : (gy + 1) * cell, gx * cell : (gx + 1) * cell]
            out[gy * grid_side + gx] = np.bincount(block.reshape(-1)).argmax()
    return out


def world_from_pixels(px, py, depth, image_size=64):
    """World points that `scenes._project` maps (up to rounding) to the given pixels."""
    u = np.asarray(px, dtype=float) / image_size * 26.0 - 13.0
    v = (1.0 - np.asarray(py, dtype=float) / image_size) * 26.0 - 9.0
    cam = np.stack([u, v, np.asarray(depth, dtype=float)], axis=1)
    c, s = np.cos(scenes._CAM_TILT), np.sin(scenes._CAM_TILT)
    return cam @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])  # the camera's x tilt


def triangle_soup(triangles, segments):
    """(vertices, template) drawing each (3, 3) world triangle as a body face."""
    vertices = np.concatenate(triangles)
    faces = np.arange(len(vertices)).reshape(-1, 3)
    return vertices, SimpleNamespace(faces=faces, segment_ids=np.repeat(segments, 3))


def assert_renders_match(vertices, template, boxes, config):
    got = scenes.render(vertices, template, boxes, config)
    want = scalar_render(vertices, template, boxes, config)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
    return got


class TestGenerateSample:
    def test_deterministic(self, config, template):
        a = scenes.generate_sample(config, template, np.random.default_rng([3, 1]))
        b = scenes.generate_sample(config, template, np.random.default_rng([3, 1]))
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.gt_vertices, b.gt_vertices)
        assert np.array_equal(a.gt_contacts, b.gt_contacts)
        assert np.array_equal(a.sem_mask, b.sem_mask)
        assert np.array_equal(a.bp_grid, b.bp_grid)

    def test_contacts_match_brute_force_oracle(self, config, template):
        for i in range(4):
            s = scenes.generate_sample(config, template, np.random.default_rng([4, i]))
            expected = np.array([
                brute_force_distance(p, s.boxes) <= scenes.CONTACT_EPSILON_CM
                for p in s.gt_vertices
            ], dtype=np.uint8)
            assert np.array_equal(s.gt_contacts, expected)

    def test_lifted_body_has_zero_contacts(self, config, template):
        s = scenes.generate_sample(config, template, np.random.default_rng([5, 0]))
        lifted = s.gt_vertices.copy()
        lifted[:, 1] += 10.0 * scenes.CONTACT_EPSILON_CM + s.gt_vertices[:, 1].max()
        assert scenes.contact_labels(lifted, s.boxes).sum() == 0

    def test_at_least_one_contact(self, config, template):
        for i in range(8):
            s = scenes.generate_sample(config, template, np.random.default_rng([6, i]))
            assert s.gt_contacts.sum() >= 1

    def test_image_range_and_shape(self, config, template):
        s = scenes.generate_sample(config, template, np.random.default_rng([7, 0]))
        assert s.image.shape == (3, 64, 64)
        assert np.isfinite(s.image).all()
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_body_class_region_equals_union_of_parts(self, config, template):
        for i in range(4):
            s = scenes.generate_sample(config, template, np.random.default_rng([8, i]))
            assert np.array_equal(s.sem_mask == scenes.SEM_BODY, s.bp_mask > 0)

    def test_mask_ids_within_class_counts(self, config, template):
        s = scenes.generate_sample(config, template, np.random.default_rng([9, 0]))
        assert 0 <= s.sem_mask.min() and s.sem_mask.max() < config.c_sem
        assert 0 <= s.bp_mask.min() and s.bp_mask.max() < config.c_bp
        assert s.sem_grid.shape == (16,)
        assert s.bp_grid.shape == (16,)

    def test_bad_configs(self, config, template):
        three_joints = dataclasses.replace(template, joint_regressor=template.joint_regressor[:3])
        with pytest.raises(ConfigError, match="3 joints"):
            scenes.generate_sample(config, three_joints, np.random.default_rng(0))
        # A stub built from scratch, one joint short of the 8 the poses and the palette are for.
        n, joints = 4, mesh.JOINTS - 1
        verts = np.stack([np.arange(n, dtype=float), np.zeros(n), np.zeros(n)], axis=1)
        seven_joints = mesh.MeshTemplate(
            rest_vertices=verts,
            faces=np.zeros((0, 3), dtype=np.int32),
            coarse_rest_vertices=verts[:1],
            coarse_faces=np.zeros((0, 3), dtype=np.int32),
            upsample_matrix=np.ones((n, 1)),
            joint_regressor=np.ones((joints, n)) / n,
            edges=np.asarray([(i, i + 1) for i in range(n - 1)], dtype=np.int32),
            edge_lengths=np.ones(n - 1),
            segment_ids=np.zeros(n, dtype=np.int32),
            rest_pivots=np.zeros((joints, 3)),
        )
        with pytest.raises(ConfigError, match="the template has 7 joints; scenes are drawn for 8"):
            scenes.generate_sample(config, seven_joints, np.random.default_rng(0))

    def test_box_with_no_room_beside_the_body_is_skipped(self, config, template, monkeypatch):
        # Seed [7, 1137] draws 2 boxes, and no side of the body has room for one of them.
        drawn = []
        sample_boxes = scenes._sample_boxes

        def recording(rng, n_boxes, body_xz_bounds):
            drawn.append(n_boxes)
            return sample_boxes(rng, n_boxes, body_xz_bounds)

        monkeypatch.setattr(scenes, "_sample_boxes", recording)
        s = scenes.generate_sample(config, template, np.random.default_rng([7, 1137]))
        assert drawn == [2] and s.boxes.shape == (1, 6)

    def test_skipped_box_takes_only_its_size_draw(self):
        # A body spanning the whole +-11 world leaves no side for any box; the skip must draw
        # nothing past the box's size, so every later draw of the sample stays where it was.
        rng, reference = np.random.default_rng(4), np.random.default_rng(4)
        boxes = scenes._sample_boxes(rng, 1, (-11.0, 11.0, -11.0, 11.0))
        reference.uniform([3.0, 2.0, 3.0], [8.0, 6.0, 8.0])
        assert boxes.shape == (0, 6) and boxes.dtype == np.float64
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_body_part_count_is_a_constant(self):
        assert scenes.SceneConfig.c_bp == scenes.SceneConfig().c_bp == mesh.JOINTS + 1
        assert [f.name for f in dataclasses.fields(scenes.SceneConfig)] == ["backbone"]
        with pytest.raises(TypeError):
            scenes.SceneConfig(c_bp=4)


def scalar_support_height(x, z, boxes):
    """Top of the highest box whose closed x/z footprint holds each point, else 0 (the ground)."""
    heights = []
    for xi, zi in zip(x, z):
        h = 0.0
        for lo_x, lo_y, lo_z, size_x, size_y, size_z in boxes:
            if lo_x <= xi <= lo_x + size_x and lo_z <= zi <= lo_z + size_z:
                h = max(h, lo_y + size_y)
        heights.append(h)
    return np.array(heights)


# Box sets with integer corners and sizes: none, one, and three that overlap pairwise.
# The first two share the footprint [2, 4] x [2, 4], where the second's top is higher.
BOX_SETS = [
    np.zeros((0, 6)),
    np.array([[0.0, 0.0, 0.0, 4.0, 2.0, 4.0]]),
    np.array([[0.0, 0.0, 0.0, 4.0, 2.0, 4.0], [2.0, 1.0, 2.0, 4.0, 4.0, 4.0],
              [1.0, 0.0, 3.0, 2.0, 6.0, 3.0]]),
]


class TestGeometry:
    # Every integer point of [-2, 7]^3: the faces, edges and corners of every box in
    # BOX_SETS, and points inside them, outside them and below the ground.
    GRID = np.stack(np.meshgrid(*[np.arange(-2.0, 8.0)] * 3, indexing="ij"), -1).reshape(-1, 3)

    def test_surface_distances_match_brute_force(self):
        rng = np.random.default_rng(0)
        for boxes in BOX_SETS:
            # Grid arithmetic is exact, so the two formulas agree to the bit.
            assert np.array_equal(scenes.surface_distances(self.GRID, boxes),
                                  [brute_force_distance(p, boxes) for p in self.GRID])
            points = rng.uniform(-2.0, 7.0, size=(500, 3))
            np.testing.assert_allclose(scenes.surface_distances(points, boxes),
                                       [brute_force_distance(p, boxes) for p in points],
                                       rtol=0, atol=1e-12)

    def test_support_height_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        # Integer points lie on the closed edges of every footprint.
        xz = np.vstack([self.GRID[:, [0, 2]], rng.uniform(-2.0, 7.0, size=(500, 2))])
        x, z = xz[:, 0].copy(), xz[:, 1].copy()
        for boxes in BOX_SETS:
            got = scenes._support_height(x, z, boxes)
            assert got.dtype == np.float64 and got.shape == x.shape
            assert np.array_equal(got, scalar_support_height(x, z, boxes))
        corners = np.array([0.0, 2.0, 4.0, 6.0, 6.5])
        assert np.array_equal(scenes._support_height(corners, corners, BOX_SETS[2][:2]),
                              [2.0, 5.0, 5.0, 5.0, 0.0])


class TestContactPrevalence:
    def test_average_prevalence_in_band(self, config, template):
        samples = [scenes.generate_sample(config, template, np.random.default_rng([123, i]))
                   for i in range(64)]
        rates = [s.gt_contacts.mean() for s in samples]
        avg = float(np.mean(rates))
        assert 0.02 <= avg <= 0.30, f"average contact prevalence {avg:.3f} outside [2%, 30%]"


class TestDownsample:
    def test_majority_with_low_id_tiebreak(self):
        mask = np.zeros((4, 4), dtype=np.int32)
        mask[:2, :2] = 3
        mask[0, 2] = 2
        mask[0, 3] = 2
        mask[1, 2:] = 1  # cell (0,1): two 2s and two 1s -> tie -> 1
        out = scenes.downsample_mask(mask, 2, 4)
        assert out[0] == 3
        assert out[1] == 1
        assert out[2] == 0 and out[3] == 0

    @pytest.mark.parametrize("grid_side", [1, 2, 4, 8])
    def test_matches_loop(self, grid_side):
        rng = np.random.default_rng(grid_side)
        for _ in range(20):
            mask = rng.integers(0, rng.integers(1, 10), size=(64, 64)).astype(np.int32)
            assert np.array_equal(scenes.downsample_mask(mask, grid_side, 10),
                                  loop_downsample(mask, grid_side))

    def test_negative_id_rejected(self):
        mask = np.zeros((4, 4), dtype=np.int32)
        mask[3, 3] = -1
        with pytest.raises(ContractError, match=r"id -1 is outside \[0, 4\)"):
            scenes.downsample_mask(mask, 2, 4)

    @pytest.mark.parametrize("bad", [4, 5])
    def test_id_from_n_classes_rejected(self, bad):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[3, 3] = bad
        with pytest.raises(ContractError, match=rf"id {bad} is outside \[0, 4\)"):
            scenes.downsample_mask(mask, 2, 4)

    def test_huge_id_rejected_without_counting(self):
        # Counts sized by the largest id made one pixel of 10**6 cost a 128 MB peak.
        mask = np.zeros((64, 64), dtype=np.int32)
        mask[5, 7] = 10**6
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match="1000000"):
                scenes.downsample_mask(mask, 16, scenes.SceneConfig.c_sem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32,
                                       np.uint32, np.int64, np.uint64])
    def test_every_integer_width_matches_int32(self, dtype):
        # A uint64 mask leaked numpy's cast TypeError: int64 + uint64 promotes to float64.
        mask = np.random.default_rng(12).integers(0, 9, size=(64, 64)).astype(np.int32)
        assert np.array_equal(scenes.downsample_mask(mask.astype(dtype), 16, 9),
                              scenes.downsample_mask(mask, 16, 9))

    @pytest.mark.parametrize("grid_side", [2.0, True], ids=["float", "bool"])
    def test_non_integer_grid_side_rejected(self, grid_side):
        # Each leaked a bare TypeError.
        with pytest.raises(ContractError, match="integer grid side"):
            scenes.downsample_mask(np.zeros((8, 8), dtype=np.int32), grid_side, 4)

    @pytest.mark.parametrize("n_classes", [np.uint64(4), np.int32(4)], ids=["uint64", "int32"])
    def test_numpy_integer_class_count_matches_int(self, n_classes):
        # np.uint64(4) promoted the cell offsets to float64 and leaked numpy's cast TypeError.
        mask = np.random.default_rng(13).integers(0, 4, size=(8, 8)).astype(np.int32)
        out = scenes.downsample_mask(mask, 2, n_classes)
        assert out.dtype == np.int32
        assert np.array_equal(out, scenes.downsample_mask(mask, 2, 4))

    @pytest.mark.parametrize("n_classes", [4.0, 4.5, True, 0, -1],
                             ids=["float", "fraction", "bool", "zero", "negative"])
    def test_bad_class_count_rejected(self, n_classes):
        # 4.0 and 4.5 leaked numpy's cast TypeError, True "an integer is required".
        with pytest.raises(ContractError, match=re.escape(f"integer class count >= 1, "
                                                          f"got {n_classes!r}")):
            scenes.downsample_mask(np.zeros((8, 8), dtype=np.int32), 2, n_classes)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_], ids=["float", "bool"])
    def test_non_integer_mask_rejected(self, dtype):
        # A float mask leaked numpy's TypeError from the int cast in bincount.
        with pytest.raises(ContractError, match=np.dtype(dtype).name):
            scenes.downsample_mask(np.zeros((8, 8), dtype=dtype), 2, 4)

    @pytest.mark.parametrize("shape, grid_side", [((8, 10), 2), ((10, 8), 2), ((2, 2), 4),
                                                  ((16,), 2), ((6, 6), 4), ((8, 8), 0),
                                                  ((8, 8), -4)],
                             ids=["wide", "tall", "smaller-than-grid", "1-d", "not-a-multiple",
                                  "zero-grid", "negative-grid"])
    def test_bad_mask_shape_rejected(self, shape, grid_side):
        # A wide mask, and a square one whose side the grid does not divide, were cropped in
        # silence; a zero grid side leaked ZeroDivisionError, and the others numpy's ValueError.
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            scenes.downsample_mask(np.zeros(shape, dtype=np.int32), grid_side, 4)


def edit_sample(edit):
    """A corruption that rewrites a sample file's tensor table after `edit`."""
    def corrupt(path):
        tensors = read_tensor_file(path, scenes.SAMPLE_MAGIC)
        edit(tensors)
        write_tensor_file(path, scenes.SAMPLE_MAGIC, tensors)
    return corrupt


def set_first(name, value):
    """An edit that sets the first entry of tensor `name`."""
    def edit(tensors):
        tensors[name].flat[0] = value
    return edit


def other_magic(path):
    """A corruption that gives the file another format's magic."""
    path.write_bytes(b"GCSET2\x00" + path.read_bytes()[len(scenes.SAMPLE_MAGIC):])


class TestDatasetIO:
    def test_round_trip_bit_exact(self, config, template, tmp_path):
        for i in range(3):
            s = scenes.generate_sample(config, template, np.random.default_rng([11, i]))
            scenes.write_sample(s, tmp_path / "s.bin")
            back = scenes.read_sample(tmp_path / "s.bin")
            for f in dataclasses.fields(scenes.Sample):
                x, y = getattr(s, f.name), getattr(back, f.name)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        assert back.boxes.shape == (0, 6) and back.boxes.dtype == np.float64  # [11, 2]: no box

    @pytest.mark.parametrize("corrupt, message", [
        (edit_sample(lambda t: t.update({k: np.zeros(2) for k in t})),
         "'image' is float64 of shape"),
        (edit_sample(lambda t: t.update(image=t["image"][0])), "'image'"),
        (edit_sample(lambda t: t.update(sem_mask=t["sem_mask"][:, 1:])), "'sem_mask'"),
        (edit_sample(lambda t: t.update(bp_mask=t["bp_mask"].astype(np.float64))),
         "'bp_mask' is float64"),
        (edit_sample(lambda t: t.update(gt_contacts=t["gt_contacts"][1:])), "'gt_contacts'"),
        (edit_sample(lambda t: t.update(gt_contacts=t["gt_contacts"].astype(np.int32))),
         "'gt_contacts'"),
        (edit_sample(lambda t: t.update(bp_grid=t["bp_grid"][1:])), "'bp_grid'"),
        (edit_sample(lambda t: t.update(pose=t["pose"][None])), "'pose'"),
        (edit_sample(lambda t: t.update(boxes=np.zeros((1, 5)))), "'boxes'"),
        (edit_sample(lambda t: t.pop("pose")), "expected tensors"),
        (edit_sample(set_first("pose", np.inf)), "'pose' has non-finite"),
        (edit_sample(lambda t: t.update(boxes=np.full((1, 6), np.nan))),
         "'boxes' has non-finite"),
        (edit_sample(set_first("image", -0.5)), "'image' has entries outside"),
        (edit_sample(set_first("sem_grid", scenes.SceneConfig.c_sem)),
         "'sem_grid' has entries outside"),
        (edit_sample(set_first("bp_mask", -1)), "'bp_mask' has entries outside"),
        (edit_sample(set_first("bp_mask", scenes.SceneConfig.c_bp)),
         "'bp_mask' has entries outside"),
        (edit_sample(set_first("bp_grid", scenes.SceneConfig.c_bp)),
         "'bp_grid' has entries outside"),
        (edit_sample(lambda t: t.update(pose=t["pose"][:3])), "'pose'"),
        (edit_sample(set_first("gt_contacts", 9)), "'gt_contacts' has entries outside \\[0, 1\\]"),
        (edit_sample(set_first("sem_mask", -4)), "'sem_mask' has entries outside"),
        (edit_sample(set_first("gt_vertices", np.nan)), "'gt_vertices' has non-finite"),
        (other_magic, "bad magic"),
    ], ids=["all_float_pairs", "image_rank", "mask_extent", "float_mask", "contacts_extent",
            "int_contacts", "grid_extent", "pose_rank", "box_width", "missing", "inf_pose",
            "nan_boxes", "negative_image", "class_past_c_sem", "negative_part",
            "mask_part_past_c_bp", "grid_part_past_c_bp", "pose_length_3", "contact_label_9",
            "negative_class", "nan_vertex", "other_magic"])
    def test_malformed_sample_rejected(self, config, template, tmp_path, corrupt, message):
        path = tmp_path / "sample.bin"
        scenes.write_sample(scenes.generate_sample(config, template, np.random.default_rng(0)),
                            path)
        corrupt(path)
        with pytest.raises(DataError, match=message):
            scenes.read_sample(path)

    @pytest.mark.parametrize("corrupt, message", [
        (edit_sample(lambda t: t.update(sem_mask=t["sem_mask"][1:])), "'sem_mask'"),
        (edit_sample(set_first("image", 7.0)), "'image' has entries outside"),
        (edit_sample(set_first("bp_grid", -1)), "'bp_grid' has entries outside"),
        (edit_sample(set_first("bp_grid", 9)), "'bp_grid' has entries outside \\[0, 8\\]"),
        (edit_sample(set_first("bp_mask", 9)), "'bp_mask' has entries outside \\[0, 8\\]"),
        (edit_sample(lambda t: t.update(pose=t["pose"][:3])), "'pose'"),
    ], ids=["mask_extent", "image_above_one", "negative_part", "grid_part_9", "mask_part_9",
            "pose_length_3"])
    def test_malformed_sample_set_rejected(self, config, template, tmp_path, corrupt, message):
        # A sample set is a seed range, one file per sample, each read alone; the
        # corruption is caught in every file of it, the box-free [11, 2] included.
        for i in range(3):
            path = tmp_path / f"{i}.bin"
            scenes.write_sample(
                scenes.generate_sample(config, template, np.random.default_rng([11, i])), path)
            corrupt(path)
            with pytest.raises(DataError, match=message):
                scenes.read_sample(path)

    @pytest.mark.parametrize("name, edit, message", [
        ("image", lambda x: np.full_like(x, 2.0), "'image' has entries outside"),
        ("boxes", lambda x: np.zeros(0), "'boxes' is float64 of shape \\(0,\\)"),
        ("gt_contacts", lambda x: x[1:], "'gt_contacts'"),
        ("pose", lambda x: np.r_[np.nan, x[1:]], "'pose' has non-finite"),
        ("pose", lambda x: x[:3], "'pose' is float64 of shape \\(3,\\)"),
        ("bp_mask", lambda x: np.full_like(x, 9), "'bp_mask' has entries outside \\[0, 8\\]"),
        ("bp_grid", lambda x: np.full_like(x, 9), "'bp_grid' has entries outside \\[0, 8\\]"),
        # These two were written, and read back as int32 and float64.
        ("sem_mask", lambda x: x.astype(np.int64), "'sem_mask' has unsupported dtype int64"),
        ("image", lambda x: x.astype(np.float32), "'image' has unsupported dtype float32"),
    ], ids=["image_above_one", "flat_boxes", "contacts_extent", "nan_pose", "pose_length_3",
            "mask_part_9", "grid_part_9", "int64_mask", "float32_image"])
    def test_unreadable_sample_not_written(self, config, template, tmp_path, name, edit,
                                           message):
        # write_sample wrote these, and read_sample rejected the file.
        s = scenes.generate_sample(config, template, np.random.default_rng(0))
        s = dataclasses.replace(s, **{name: edit(getattr(s, name))})
        with pytest.raises(DataError, match=message):
            scenes.write_sample(s, tmp_path / "out.bin")
        assert not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize("name", ["missing.bin", "."], ids=["missing", "directory"])
    def test_unreadable_path_rejected(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(DataError, match="cannot read") as info:
            scenes.read_sample(path)
        assert str(path) in str(info.value)
        assert isinstance(info.value.__cause__, OSError)

    @pytest.mark.parametrize("name", [".", "missing/s.bin"], ids=["directory", "missing-parent"])
    def test_unwritable_path_rejected(self, config, template, tmp_path, name):
        # IsADirectoryError and FileNotFoundError leaked from the write.
        path = tmp_path / name
        s = scenes.generate_sample(config, template, np.random.default_rng(0))
        with pytest.raises(DataError, match="cannot write") as info:
            scenes.write_sample(s, path)
        assert str(path) in str(info.value)
        assert isinstance(info.value.__cause__, OSError)

    def test_truncated_sample_reports_offset(self, config, template, tmp_path):
        path = tmp_path / "sample.bin"
        s = scenes.generate_sample(config, template, np.random.default_rng([14, 0]))
        scenes.write_sample(s, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(DataError, match="offset"):
            scenes.read_sample(path)


class TestRasterizer:
    @pytest.mark.parametrize("depth", [1, 4096])
    def test_equal_depth_tie_keeps_the_earlier_triangle(self, config, depth):
        tri = world_from_pixels([10, 40, 12], [10, 15, 45], [depth] * 3)
        coplanar = world_from_pixels([20, 50, 30], [20, 25, 55], [depth] * 3)
        vertices, template = triangle_soup([tri, tri.copy(), coplanar], [0, 1, 2])
        _, sem, bp = assert_renders_match(vertices, template, np.zeros((0, 6)), config)
        assert (bp == 1).any() and (bp == 3).any()
        assert not (bp == 2).any()  # the identical later copy never wins a pixel
        assert np.array_equal(sem == scenes.SEM_BODY, bp > 0)

    def test_degenerate_triangles(self, config):
        p, q = world_from_pixels([10, 40], [10, 30], [50, 50])
        collinear = world_from_pixels([10, 20, 30], [10, 20, 30], [50, 50, 50])
        vertices, template = triangle_soup([np.stack([q, p, p]), collinear], [0, 1])
        _, _, bp = assert_renders_match(vertices, template, np.zeros((0, 6)), config)
        assert not (bp == 1).any()  # exactly zero area: skipped

    def test_off_screen_triangles(self, config):
        partly = world_from_pixels([-30, 30, 0], [10, 20, 90], [50, 50, 50])
        wholly = world_from_pixels([100, 120, 110], [10, 10, 30], [50, 50, 50])
        left = world_from_pixels([-50, -40, -45], [10, 10, 30], [50, 50, 50])
        far = np.array([[1e15, 0.0, 0.0], [1e15, 1e15, 0.0], [-1e15, 1e15, 1e15]])
        # Clipped bounding boxes: one pixel (the bottom-right corner), one row (the
        # bottom edge), one column (the right edge), and one clipped at the left and
        # top edges; drawn in front of `partly`.
        pixel = world_from_pixels([63.3, 80, 63.3], [63.3, 63.3, 80], [60, 60, 60])
        row = world_from_pixels([10, 50, 30], [63.2, 63.2, 90], [60, 60, 60])
        column = world_from_pixels([63.2, 63.2, 90], [10, 50, 30], [60, 60, 60])
        corner = world_from_pixels([-20, 20, -10], [-15, -5, 25], [60, 60, 60])
        vertices, template = triangle_soup(
            [partly, wholly, left, far, pixel, row, column, corner], range(8))
        _, _, bp = assert_renders_match(vertices, template, np.zeros((0, 6)), config)
        assert (bp == 1).any()
        assert not np.isin(bp, [2, 3]).any()
        assert np.array_equal(np.argwhere(bp == 5), [[63, 63]])
        assert set(np.flatnonzero((bp == 6).any(axis=1))) == {63}
        assert set(np.flatnonzero((bp == 7).any(axis=0))) == {63}
        assert bp[0, 0] == 8

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_rejected(self, config, bad):
        tri = world_from_pixels([10, 40, 12], [10, 15, 45], [50, 50, 50])
        tri[1, 0] = bad
        vertices, template = triangle_soup([tri], [0])
        with pytest.raises(NumericsError):
            scenes.render(vertices, template, np.zeros((0, 6)), config)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_and_minus_inf_depths_are_never_drawn(self):
        px = np.array([[10, 40, 12], [2, 60, 5], [30, 62, 35], [20, 30, 22], [20, 30, 22]],
                      dtype=float)
        py = np.array([[10, 15, 45], [2, 5, 60], [30, 35, 62], [20, 22, 30], [20, 22, 30]],
                      dtype=float)
        depth = np.array([50.0, np.nan, -np.inf, np.inf, np.inf])[:, None].repeat(3, axis=1)
        winner = scenes._rasterize(px, py, depth, 64)
        oracle = ScalarRaster(64)
        for i in range(len(px)):
            oracle.triangle(px[i], py[i], depth[i], np.zeros(3), 0, i + 1)
        assert np.array_equal(winner.reshape(64, 64) + 1, oracle.bp)
        assert set(np.unique(winner)) == {-1, 0, 3}  # +inf draws; the later copy ties

    def test_no_triangle_kept(self):
        """Every triangle degenerate or off-screen: no candidate pixel, nothing drawn."""
        px = np.array([[10, 20, 30], [5, 5, 5], [-9, -5, -1], [70, 90, 80], [10, 40, 12]],
                      dtype=float)
        py = np.array([[10, 20, 30], [5, 9, 40], [10, 20, 15], [10, 20, 15], [70, 75, 90]],
                      dtype=float)
        winner = scenes._rasterize(px, py, np.full((5, 3), 50.0), 64)
        oracle = ScalarRaster(64)
        for i in range(len(px)):
            oracle.triangle(px[i], py[i], np.full(3, 50.0), np.zeros(3), 0, i + 1)
        assert np.array_equal(winner, np.full(64 * 64, -1))
        assert not oracle.bp.any()

    def test_box_faces_cover_each_cube_side_with_two_triangles(self):
        sides = {}
        for face in scenes._BOX_FACES:
            corners = scenes._UNIT_CUBE[face]
            # The one coordinate all three corners share names the side.
            (axis,) = np.flatnonzero((corners == corners[0]).all(axis=0))
            sides.setdefault((axis, corners[0, axis]), []).append(set(face))
        assert sorted(sides) == [(axis, v) for axis in range(3) for v in (0.0, 1.0)]
        for first, second in sides.values():
            assert len(first) == len(second) == 3
            assert len(first | second) == 4  # together they span the side's four corners

    @pytest.mark.parametrize("seed", [1, 21, 97, 4096])
    def test_overlapping_triangle_soups_match_scalar_oracle(self, config, seed):
        """Overlapping soups of 80 triangles, one per seed, match the scalar oracle."""
        rng = np.random.default_rng(seed)
        centres = rng.uniform(-5.0, 69.0, size=(80, 1, 2))
        corners = centres + rng.uniform(-15.0, 15.0, size=(80, 3, 2))
        triangles = [world_from_pixels(c[:, 0], c[:, 1], rng.uniform(25.0, 60.0, 3))
                     for c in corners]
        vertices, template = triangle_soup(triangles, np.arange(80) % 8)
        boxes = np.array([[-4.0, 0.0, -3.0, 6.0, 5.0, 4.0]])
        assert_renders_match(vertices, template, boxes, config)

    def test_128px_scene_matches_oracle(self, template):
        big = scenes.SceneConfig(backbone=BackboneConfig(image_size=128))
        s = scenes.generate_sample(big, template, np.random.default_rng([2, 0]))
        assert_renders_match(s.gt_vertices, template, s.boxes, big)

    def test_generated_scenes_match_scalar_oracle(self, config, template):
        for i in range(3):
            s = scenes.generate_sample(config, template, np.random.default_rng([10, i]))
            image, _, _ = assert_renders_match(s.gt_vertices, template, s.boxes, config)
            assert np.array_equal(image, s.image)

    def test_seeded_sample_bytes_unchanged(self, config, template, tmp_path):
        samples = [scenes.generate_sample(config, template, np.random.default_rng([2024, i]))
                   for i in range(32)]
        digests = []
        for i, s in enumerate(samples):
            scenes.write_sample(s, tmp_path / f"{i}.bin")
            digests.append(hashlib.sha256((tmp_path / f"{i}.bin").read_bytes()).hexdigest())
        assert tuple(digests) == DATASET_SHA256

