import dataclasses
import hashlib
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from meshcontact import mesh, scenes
from meshcontact.backbone import BackboneConfig
from meshcontact.errors import (ConfigError, ContractError, DataError, NumericsError,
                               ShapeError)
from meshcontact.tensorio import read_tensor_file, write_tensor_file

# SHA-256 of the write_sample bytes of generate_dataset(SceneConfig(), the
# rng_seed=7 template, 32, seed=2024), recorded from the per-triangle
# rasterizer that the batched one replaced.
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
        corners, bfaces = scenes._box_mesh(box)
        r.mesh(corners, bfaces, [scenes._BOX_COLOR] * len(bfaces),
               [scenes.SEM_BOX] * len(bfaces), [0] * len(bfaces))
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
    return cam @ mesh._rot_x(scenes._CAM_TILT)


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

    def test_body_part_count_is_a_constant(self):
        assert scenes.SceneConfig.c_bp == scenes.SceneConfig().c_bp == mesh.JOINTS + 1
        assert [f.name for f in dataclasses.fields(scenes.SceneConfig)] == ["backbone"]
        with pytest.raises(TypeError):
            scenes.SceneConfig(c_bp=4)


class TestContactPrevalence:
    def test_average_prevalence_in_band(self, config, template):
        samples = scenes.generate_dataset(config, template, 64, seed=123)
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
        out = scenes.downsample_mask(mask, 2)
        assert out[0] == 3
        assert out[1] == 1
        assert out[2] == 0 and out[3] == 0

    @pytest.mark.parametrize("grid_side", [1, 2, 4, 8])
    def test_matches_loop(self, grid_side):
        rng = np.random.default_rng(grid_side)
        for _ in range(20):
            mask = rng.integers(0, rng.integers(1, 10), size=(64, 64)).astype(np.int32)
            assert np.array_equal(scenes.downsample_mask(mask, grid_side),
                                  loop_downsample(mask, grid_side))

    def test_negative_id_rejected(self):
        mask = np.zeros((4, 4), dtype=np.int32)
        mask[3, 3] = -1
        with pytest.raises(ContractError):
            scenes.downsample_mask(mask, 2)

    @pytest.mark.parametrize("shape, grid_side", [((8, 10), 2), ((10, 8), 2), ((2, 2), 4),
                                                  ((16,), 2), ((6, 6), 4)],
                             ids=["wide", "tall", "smaller-than-grid", "1-d", "not-a-multiple"])
    def test_bad_mask_shape_rejected(self, shape, grid_side):
        # A wide mask, and a square one whose side the grid does not divide, were cropped in
        # silence; the others leaked numpy's ValueError.
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            scenes.downsample_mask(np.zeros(shape, dtype=np.int32), grid_side)


def edit_dataset(edit):
    """A corruption that rewrites a dataset file's tensor table after `edit`."""
    def corrupt(path):
        tensors = read_tensor_file(path, scenes.DATASET_MAGIC)
        edit(tensors)
        write_tensor_file(path, scenes.DATASET_MAGIC, tensors)
    return corrupt


def set_first(name, value):
    """An edit that sets the first entry of tensor `name`."""
    def edit(tensors):
        tensors[name].flat[0] = value
    return edit


class TestDatasetIO:
    def test_round_trip_bit_exact(self, config, template, tmp_path):
        samples = scenes.generate_dataset(config, template, 3, seed=11)
        scenes.write_dataset(samples, tmp_path / "ds.bin")
        back = scenes.read_dataset(tmp_path / "ds.bin")
        assert len(back) == 3
        for a, b in zip(samples, back):
            for f in dataclasses.fields(scenes.Sample):
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        assert back[2].boxes.shape == (0, 6)  # the largest count is 2: this one is all padding

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="at least one sample"):
            scenes.write_dataset([], tmp_path / "ds.bin")
        assert not (tmp_path / "ds.bin").exists()

    @pytest.mark.parametrize("corrupt, message", [
        (edit_dataset(set_first("n_boxes", -1)), "'n_boxes' has entries outside \\[0, 2\\]"),
        (edit_dataset(set_first("n_boxes", 3)), "'n_boxes' has entries outside \\[0, 2\\]"),
        (edit_dataset(lambda t: t.update(pose=t["pose"][:-1])), "'pose'"),
        (edit_dataset(lambda t: t.update(sem_mask=t["sem_mask"][:, :, 1:])), "'sem_mask'"),
        (edit_dataset(lambda t: t.pop("n_boxes")), "expected tensors"),
        (lambda path: scenes.write_sample(scenes.read_dataset(path)[0], path), "bad magic"),
        (edit_dataset(lambda t: t.update({k: v[:0] for k, v in t.items()})),
         "at least one sample"),
        (edit_dataset(set_first("gt_vertices", np.nan)), "'gt_vertices' has non-finite"),
        (edit_dataset(set_first("image", 7.0)), "'image' has entries outside"),
        (edit_dataset(set_first("gt_contacts", 9)), "'gt_contacts' has entries outside"),
        (edit_dataset(set_first("sem_mask", -4)), "'sem_mask' has entries outside"),
        (edit_dataset(set_first("bp_grid", -1)), "'bp_grid' has entries outside"),
        (edit_dataset(set_first("bp_grid", 9)), "'bp_grid' has entries outside \\[0, 8\\]"),
        (edit_dataset(set_first("bp_mask", 9)), "'bp_mask' has entries outside \\[0, 8\\]"),
        (edit_dataset(lambda t: t.update(pose=t["pose"][:, :3])), "'pose'"),
    ], ids=["negative_count", "count_past_max_boxes", "sample_count_mismatch", "mask_extent",
            "missing_counts", "sample_file", "no_samples", "nan_vertex", "image_above_one",
            "contact_label_9", "negative_class", "negative_part", "grid_part_9", "mask_part_9",
            "pose_length_3"])
    def test_malformed_dataset_rejected(self, config, template, tmp_path, corrupt, message):
        path = tmp_path / "ds.bin"
        scenes.write_dataset(scenes.generate_dataset(config, template, 3, seed=11), path)
        corrupt(path)
        with pytest.raises(DataError, match=message):
            scenes.read_dataset(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.update({k: np.zeros(2) for k in t}), "'image' is float64 of shape"),
        (lambda t: t.update(image=t["image"][0]), "'image'"),
        (lambda t: t.update(sem_mask=t["sem_mask"][:, 1:]), "'sem_mask'"),
        (lambda t: t.update(bp_mask=t["bp_mask"].astype(np.float64)), "'bp_mask' is float64"),
        (lambda t: t.update(gt_contacts=t["gt_contacts"][1:]), "'gt_contacts'"),
        (lambda t: t.update(gt_contacts=t["gt_contacts"].astype(np.int32)), "'gt_contacts'"),
        (lambda t: t.update(bp_grid=t["bp_grid"][1:]), "'bp_grid'"),
        (lambda t: t.update(pose=t["pose"][None]), "'pose'"),
        (lambda t: t.update(boxes=np.zeros((1, 5))), "'boxes'"),
        (lambda t: t.pop("pose"), "expected tensors"),
        (set_first("pose", np.inf), "'pose' has non-finite"),
        (lambda t: t.update(boxes=np.full((1, 6), np.nan)), "'boxes' has non-finite"),
        (set_first("image", -0.5), "'image' has entries outside"),
        (set_first("sem_grid", scenes.SceneConfig.c_sem), "'sem_grid' has entries outside"),
        (set_first("bp_mask", -1), "'bp_mask' has entries outside"),
        (set_first("bp_mask", scenes.SceneConfig.c_bp), "'bp_mask' has entries outside"),
        (set_first("bp_grid", scenes.SceneConfig.c_bp), "'bp_grid' has entries outside"),
        (lambda t: t.update(pose=t["pose"][:3]), "'pose'"),
    ], ids=["all_float_pairs", "image_rank", "mask_extent", "float_mask", "contacts_extent",
            "int_contacts", "grid_extent", "pose_rank", "box_width", "missing", "inf_pose",
            "nan_boxes", "negative_image", "class_past_c_sem", "negative_part",
            "mask_part_past_c_bp", "grid_part_past_c_bp", "pose_length_3"])
    def test_malformed_sample_rejected(self, config, template, tmp_path, edit, message):
        path = tmp_path / "sample.bin"
        scenes.write_sample(scenes.generate_sample(config, template, np.random.default_rng(0)),
                            path)
        tensors = read_tensor_file(path, scenes.SAMPLE_MAGIC)
        edit(tensors)
        write_tensor_file(path, scenes.SAMPLE_MAGIC, tensors)
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
    ], ids=["image_above_one", "flat_boxes", "contacts_extent", "nan_pose", "pose_length_3",
            "mask_part_9", "grid_part_9"])
    @pytest.mark.parametrize("write", [scenes.write_sample,
                                       lambda s, path: scenes.write_dataset([s, s], path)],
                             ids=["sample", "dataset"])
    def test_unreadable_sample_not_written(self, config, template, tmp_path, write, name, edit,
                                           message):
        # write_sample wrote these, and read_sample rejected the file.
        s = scenes.generate_sample(config, template, np.random.default_rng(0))
        s = dataclasses.replace(s, **{name: edit(getattr(s, name))})
        with pytest.raises(DataError, match=message):
            write(s, tmp_path / "out.bin")
        assert not (tmp_path / "out.bin").exists()

    def test_dataset_of_different_vertex_counts_rejected(self, config, template, tmp_path):
        # np.stack raised a bare ValueError naming no field.
        a = scenes.generate_sample(config, template, np.random.default_rng(0))
        b = dataclasses.replace(a, gt_vertices=a.gt_vertices[1:], gt_contacts=a.gt_contacts[1:])
        v = len(a.gt_vertices)
        with pytest.raises(ShapeError, match=f"'gt_vertices'.*\\({v - 1}, 3\\), \\({v}, 3\\)"):
            scenes.write_dataset([a, b], tmp_path / "ds.bin")
        assert not (tmp_path / "ds.bin").exists()

    @pytest.mark.parametrize("read", [scenes.read_sample, scenes.read_dataset])
    @pytest.mark.parametrize("name", ["missing.bin", "."], ids=["missing", "directory"])
    def test_unreadable_path_rejected(self, tmp_path, read, name):
        path = tmp_path / name
        with pytest.raises(DataError, match="cannot read") as info:
            read(path)
        assert str(path) in str(info.value)
        assert isinstance(info.value.__cause__, OSError)

    def test_truncated_sample_reports_offset(self, config, template, tmp_path):
        path = tmp_path / "ds.bin"
        scenes.write_dataset(scenes.generate_dataset(config, template, 1, seed=14), path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(DataError, match="offset"):
            scenes.read_dataset(path)

    def test_same_seed_identical_datasets(self, config, template, tmp_path):
        a = scenes.generate_dataset(config, template, 2, seed=77)
        b = scenes.generate_dataset(config, template, 2, seed=77)
        scenes.write_dataset(a, tmp_path / "a.bin")
        scenes.write_dataset(b, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


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
        vertices, template = triangle_soup([partly, wholly, left, far], [0, 1, 2, 3])
        _, _, bp = assert_renders_match(vertices, template, np.zeros((0, 6)), config)
        assert (bp == 1).any()
        assert not np.isin(bp, [2, 3]).any()

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

    @pytest.mark.parametrize("seed", [1, 21, 97, 4096])
    def test_many_chunks(self, config, seed):
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

    def test_seeded_dataset_bytes_unchanged(self, config, template, tmp_path):
        samples = scenes.generate_dataset(config, template, 32, seed=2024)
        scenes.write_dataset(samples, tmp_path / "ds.bin")
        for written in (samples, scenes.read_dataset(tmp_path / "ds.bin")):
            digests = []
            for i, s in enumerate(written):
                scenes.write_sample(s, tmp_path / f"{i}.bin")
                digests.append(hashlib.sha256((tmp_path / f"{i}.bin").read_bytes()).hexdigest())
            assert tuple(digests) == DATASET_SHA256

