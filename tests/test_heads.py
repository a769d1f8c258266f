import math

import numpy as np
import pytest

from meshcontact import autodiff as ad
from meshcontact import heads, mesh
from meshcontact.errors import ConfigError, ContractError, NumericsError, ShapeError


@pytest.fixture(scope="module")
def template():
    return mesh.build_template(mesh.MeshConfig(), rng_seed=7)


def make_params(seed=0, token_dim=32, c_sem=4, c_bp=9):
    raw = heads.init_head_params(token_dim, c_sem, c_bp, np.random.default_rng(seed))
    return {k: ad.Tensor(v, requires_grad=True, name=k) for k, v in raw.items()}


class TestContactHead:
    def test_zero_params_give_half_probs(self, template):
        params = make_params()
        params["heads.contact.w"] = ad.Tensor(np.zeros((32, 1)))
        params["heads.contact.b"] = ad.Tensor(np.zeros(1))
        feats = ad.Tensor(np.random.default_rng(1).normal(size=(template.v_coarse, 32)))
        pred = heads.contact_head(feats, template, params)
        assert np.array_equal(pred.probs.data, np.full(template.v_full, 0.5))

    def test_probs_strictly_inside_unit_interval(self, template):
        params = make_params()
        feats = ad.Tensor(np.random.default_rng(2).normal(size=(template.v_coarse, 32)) * 50)
        pred = heads.contact_head(feats, template, params)
        assert (pred.probs.data > 0).all() and (pred.probs.data < 1).all()

    def test_constant_coarse_logit_lifts_to_constant(self, template):
        params = make_params()
        params["heads.contact.w"] = ad.Tensor(np.zeros((32, 1)))
        params["heads.contact.b"] = ad.Tensor(np.array([1.7]))
        feats = ad.Tensor(np.random.default_rng(3).normal(size=(template.v_coarse, 32)))
        pred = heads.contact_head(feats, template, params)
        assert np.abs(pred.logits.data - 1.7).max() <= 1e-9


class TestMeshHead:
    def test_zero_weights_give_rest_pose(self, template):
        params = make_params()
        params["heads.mesh.w"] = ad.Tensor(np.zeros((32, 3)))
        params["heads.mesh.b"] = ad.Tensor(np.zeros(3))
        feats = ad.Tensor(np.random.default_rng(4).normal(size=(template.v_coarse, 32)))
        verts = heads.mesh_head(feats, template, params)
        lifted_rest = template.upsample_matrix @ template.coarse_rest_vertices
        assert np.abs(verts.data - lifted_rest).max() <= 1e-12

    def test_translation_equivariance_of_upsample_stage(self, template):
        params = make_params()
        feats = ad.Tensor(np.random.default_rng(5).normal(size=(template.v_coarse, 32)))
        base = heads.mesh_head(feats, template, params).data
        params["heads.mesh.b"] = ad.Tensor(params["heads.mesh.b"].data + np.array([1.0, 2.0, 3.0]))
        shifted = heads.mesh_head(feats, template, params).data
        assert np.abs(shifted - (base + np.array([1.0, 2.0, 3.0]))).max() <= 1e-9

    def test_gradient_to_features(self, template):
        small = mesh.build_template(mesh.MeshConfig(v_full=98, v_coarse=26), 3)
        params = make_params(token_dim=4)
        rng = np.random.default_rng(6)
        gt = rng.normal(size=(small.v_full, 3))

        def f(p):
            verts = heads.mesh_head(p["feats"], small, {**params, **p})
            return heads.loss_mesh(verts, gt)

        probe = {"feats": ad.Tensor(rng.normal(size=(small.v_coarse, 4)),
                                    requires_grad=True, name="feats")}
        report = ad.gradient_check(f, probe)
        assert report.passed, report


class TestDecoders:
    def test_output_shapes(self):
        params = make_params()
        grid = ad.Tensor(np.random.default_rng(7).normal(size=(16, 32)))
        assert heads.semantic_decoder(grid, params).shape == (16, 4)
        assert heads.bodypart_decoder(grid, params).shape == (16, 9)

    def test_zero_params_uniform_distribution(self):
        params = make_params()
        params["heads.sem.w"] = ad.Tensor(np.zeros((32, 4)))
        params["heads.sem.b"] = ad.Tensor(np.zeros(4))
        grid = ad.Tensor(np.random.default_rng(8).normal(size=(16, 32)))
        logits = heads.semantic_decoder(grid, params)
        probs = ad.softmax(logits).data
        assert np.abs(probs - 0.25).max() <= 1e-12

    def test_class_count_validation(self):
        with pytest.raises(ConfigError):
            heads.init_head_params(8, 1, 9, np.random.default_rng(0))


class TestLosses:
    def test_mesh_loss_zero_and_unit(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(10, 3))
        assert heads.loss_mesh(ad.Tensor(v), v).item() == 0.0
        assert heads.loss_mesh(ad.Tensor(v + 1.0), v).item() == pytest.approx(1.0, abs=1e-12)

    def test_mesh_loss_matches_direct_summation(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(7, 3))
        expected = ((a - b) ** 2).sum() / a.size
        assert heads.loss_mesh(ad.Tensor(a), b).item() == pytest.approx(expected, rel=1e-12)

    def test_contact_loss_perfect_and_uniform(self):
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        perfect = ad.Tensor(labels.copy())
        assert heads.loss_contact(perfect, labels).item() <= 1e-6
        half = ad.Tensor(np.full(4, 0.5))
        assert heads.loss_contact(half, labels).item() == pytest.approx(math.log(2.0), rel=1e-12)

    def test_contact_loss_matches_formula_oracle(self):
        rng = np.random.default_rng(11)
        probs = rng.uniform(0.01, 0.99, size=20)
        labels = (rng.random(20) < 0.5).astype(float)
        expected = -np.mean(labels * np.log(probs) + (1 - labels) * np.log(1 - probs))
        got = heads.loss_contact(ad.Tensor(probs), labels).item()
        assert got == pytest.approx(expected, rel=1e-12)

    def test_mesh_loss_rejects_broadcasting_target(self):
        # A (3,) target broadcast against every vertex and gave a loss with no error.
        with pytest.raises(ShapeError, match=r"\(3,\).*\(5, 3\)"):
            heads.loss_mesh(ad.Tensor(np.zeros((5, 3))), np.zeros(3))

    def test_contact_loss_rejects_broadcasting_labels(self):
        # (V, 1) labels against (V,) probabilities took the mean of a (V, V) array.
        with pytest.raises(ShapeError, match=r"\(4, 1\).*\(4,\)"):
            heads.loss_contact(ad.Tensor(np.full(4, 0.5)), np.ones((4, 1)))

    def test_contact_loss_bits_on_binary_labels(self):
        # Pins the float64 bits of the loss for 0/1 labels, clamped probabilities included.
        rng = np.random.default_rng(12)
        probs = rng.uniform(size=50)
        labels = (rng.random(50) < 0.3).astype(np.uint8)
        assert heads.loss_contact(ad.Tensor(probs), labels).item().hex() == "0x1.0671b7f03459ap+0"
        probs[:5] = [0.0, 1.0, 1e-9, 1 - 1e-12, 0.5]
        assert heads.loss_contact(ad.Tensor(probs), labels).item().hex() == "0x1.a18bc93367e26p+0"

    @pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, np.nan], ids=["2", "-1", "half", "nan"])
    def test_contact_loss_rejects_non_binary_labels(self, bad):
        # A label of 2 gave 0.693 and NaN gave NaN, with no error.
        labels = np.array([0.0, 1.0, bad, 1.0])
        with pytest.raises(ContractError, match="contact labels must be 0 or 1"):
            heads.loss_contact(ad.Tensor(np.full(4, 0.5)), labels)

    def test_segmentation_uniform_is_log_c(self):
        logits = ad.Tensor(np.zeros((10, 4)))
        labels = np.random.default_rng(12).integers(0, 4, size=10)
        assert heads.loss_segmentation(logits, labels).item() == pytest.approx(
            math.log(4.0), rel=1e-12
        )

    def test_segmentation_correct_logits_approach_zero(self):
        labels = np.array([0, 1, 2])
        logits = np.full((3, 3), -30.0)
        logits[np.arange(3), labels] = 30.0
        assert heads.loss_segmentation(ad.Tensor(logits), labels).item() <= 1e-6

    def test_segmentation_matches_formula_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(8), labels].mean()
        got = heads.loss_segmentation(ad.Tensor(logits), labels).item()
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("labels", [[0.7, 1.2, 0, 1], np.array([0, 1, 0, 1.0]),
                                        np.array([True, False, True, True])],
                             ids=["fractions", "whole-floats", "bools"])
    def test_segmentation_non_integer_labels_rejected(self, labels):
        # The labels were cast to int64: 0.7 and 1.2 read as classes 0 and 1, and
        # zero logits gave log 3 with no error.
        with pytest.raises(ContractError, match="must be integers"):
            heads.loss_segmentation(ad.Tensor(np.zeros((4, 3))), labels)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_segmentation_label_outside_classes_rejected(self, label):
        # Without the check numpy indexing scores -1 as the last class.
        logits = ad.Tensor(np.random.default_rng(21).normal(size=(2, 3)))
        with pytest.raises(ShapeError, match="outside \\[0, 3\\)"):
            heads.loss_segmentation(logits, [0, label])


class TestAggregate:
    def _breakdown(self, values):
        return heads.LossBreakdown(*[ad.Tensor(v) for v in values])

    def test_unit_components_give_4_point_1(self):
        total = heads.aggregate_losses(self._breakdown([1.0] * 5), heads.LossWeights())
        assert total.item() == 4.1

    def test_zero_components(self):
        total = heads.aggregate_losses(self._breakdown([0.0] * 5), heads.LossWeights())
        assert total.item() == 0.0

    def test_weighted_sum_exact(self):
        rng = np.random.default_rng(14)
        vals = rng.uniform(0.0, 3.0, size=5)
        w = heads.LossWeights(mesh=0.5, cls_a=2.0, cls_b=0.1, sem=0.0, bp=1.5)
        total = heads.aggregate_losses(self._breakdown(vals), w)
        expected = 0.5 * vals[0] + 2.0 * vals[1] + 0.1 * vals[2] + 0.0 * vals[3] + 1.5 * vals[4]
        assert abs(total.item() - expected) <= 1e-12

    def test_sem_weight_zero_toggles_term_structurally(self):
        vals = [1.0, 1.0, 1.0, 123.0, 1.0]
        w = heads.LossWeights(sem=0.0)
        total = heads.aggregate_losses(self._breakdown(vals), w)
        assert total.item() == pytest.approx(3.1, abs=1e-12)

    def test_negative_component_rejected(self):
        with pytest.raises(ContractError):
            heads.aggregate_losses(self._breakdown([1.0, -0.1, 1.0, 1.0, 1.0]),
                                   heads.LossWeights())

    def test_non_finite_component_rejected(self):
        with pytest.raises(NumericsError):
            heads.aggregate_losses(self._breakdown([1.0, np.inf, 1.0, 1.0, 1.0]),
                                   heads.LossWeights())

    def test_gradient_through_composite_loss(self, template):
        small = mesh.build_template(mesh.MeshConfig(v_full=98, v_coarse=26), 3)
        rng = np.random.default_rng(15)
        gt_verts = rng.normal(size=(small.v_full, 3))
        gt_contacts = (rng.random(small.v_full) < 0.2).astype(float)
        sem_labels = rng.integers(0, 4, size=6)
        bp_labels = rng.integers(0, 9, size=6)
        raw = heads.init_head_params(4, 4, 9, np.random.default_rng(16))
        head_params = {k: ad.Tensor(v) for k, v in raw.items()}
        grid = ad.Tensor(rng.normal(size=(6, 4)))

        def f(p):
            feats = p["feats"]
            pred_a = heads.contact_head(feats, small, head_params, source="enc_a")
            pred_b = heads.contact_head(feats, small, head_params, source="enc_b")
            verts = heads.mesh_head(feats, small, head_params)
            breakdown = heads.LossBreakdown(
                l_mesh=heads.loss_mesh(verts, gt_verts),
                l_cls_a=heads.loss_contact(pred_a.probs, gt_contacts),
                l_cls_b=heads.loss_contact(pred_b.probs, gt_contacts),
                l_sem=heads.loss_segmentation(heads.semantic_decoder(grid, head_params), sem_labels),
                l_bp=heads.loss_segmentation(heads.bodypart_decoder(grid, head_params), bp_labels),
            )
            return heads.aggregate_losses(breakdown, heads.LossWeights())

        probe = {"feats": ad.Tensor(rng.normal(size=(small.v_coarse, 4)),
                                    requires_grad=True, name="feats")}
        report = ad.gradient_check(f, probe)
        assert report.passed, report
