import math
import re

import numpy as np
import pytest

from meshcontact import autodiff as ad
from meshcontact import multipath as mp
from meshcontact.errors import ConfigError, ContractError, ShapeError


def routing(w, d, rng=None):
    """Routing of d-wide features with score weights w; phi is the unit map unless rng draws it."""
    phi_weight = np.eye(d) if rng is None else rng.normal(size=(d, d))
    return mp.RoutingParams(w=ad.Tensor(w), phi_weight=ad.Tensor(phi_weight),
                            phi_bias=ad.Tensor(np.zeros(d)))


class TestPerturb:
    def test_identity_bit_identical(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.normal(size=(10, 4)))
        out = mp.perturb(x, "identity", rng)
        assert out is x

    def test_noise_is_centred_with_noise_sigma_spread(self):
        n = 40_000
        out = mp.perturb(ad.Tensor(np.zeros((n, 1))), "embedding_noise", np.random.default_rng(2))
        assert abs(out.data.mean()) <= 3.0 * mp.NOISE_SIGMA / math.sqrt(n)
        assert out.data.std() == pytest.approx(mp.NOISE_SIGMA, rel=0.02)

    @pytest.mark.parametrize("kind", mp.PATH_KINDS)
    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4), ()], ids=["1-d", "3-d", "scalar"])
    def test_features_not_tokens_by_dim_rejected(self, kind, shape):
        # (6,) features came back (6, 6): the (t, 1) keep column broadcast against them.
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            mp.perturb(ad.Tensor(np.ones(shape)), kind, np.random.default_rng(0))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            mp.perturb(ad.Tensor(np.zeros((2, 2))), "blur", np.random.default_rng(0))

    def test_dropout_unbiased_monte_carlo(self):
        # Inverted scaling keeps the expectation at the input value.
        p = mp.DROPOUT_RATE
        n = 100_000
        x = ad.Tensor(np.ones((n, 1)))
        out = mp.perturb(x, "spatial_dropout", np.random.default_rng(3))
        scale = 1.0 / (1.0 - p)
        var = p * (1.0 - p) * scale**2
        stderr = math.sqrt(var / n)
        assert abs(out.data.mean() - 1.0) <= 3.0 * stderr

    def test_dropout_zeroes_whole_tokens(self):
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.normal(size=(200, 8)))
        out = mp.perturb(x, "spatial_dropout", np.random.default_rng(5))
        zero_rows = np.abs(out.data).max(axis=1) == 0.0
        kept = ~zero_rows
        assert zero_rows.any()
        scale = 1.0 / (1.0 - mp.DROPOUT_RATE)
        assert np.allclose(out.data[kept], x.data[kept] * scale, atol=1e-15)

    def test_masking_replaces_ceil_fraction(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.normal(size=(20, 3)) + 5.0)
        out = mp.perturb(x, "token_masking", np.random.default_rng(7))
        masked = np.all(out.data == 0.0, axis=1)
        assert masked.sum() == math.ceil(mp.MASK_RATIO * 20)
        assert np.array_equal(out.data[~masked], x.data[~masked])

    def test_gradient_flows_through_perturbations(self):
        def f(params):
            total = None
            for kind in mp.PATH_KINDS:
                y = mp.perturb(params["x"], kind, np.random.default_rng(8))
                term = ad.sum_(ad.mul(y, y))
                total = term if total is None else ad.add(total, term)
            return total

        params = {"x": ad.Tensor(np.random.default_rng(9).normal(size=(6, 3)),
                                 requires_grad=True, name="x")}
        report = ad.gradient_check(f, params)
        assert report.passed, report


class TestMakePaths:
    def test_single_path_is_unperturbed_forward(self):
        rng = np.random.default_rng(10)
        x = ad.Tensor(rng.normal(size=(7, 3)))
        calls = []

        def forward(t):
            calls.append(t)
            return t

        out = mp.make_paths(x, mp.PathConfig(n_paths=1), np.random.default_rng(11), forward)
        assert len(out) == 1 and out[0] is x

    def test_path_i_applies_kind_i_on_stream_i(self):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.normal(size=(9, 4)))
        out = mp.make_paths(x, mp.PathConfig(n_paths=4), np.random.default_rng(13), lambda t: t)
        streams = np.random.default_rng(13).spawn(4)
        for p, kind, stream in zip(out, mp.PATH_KINDS, streams, strict=True):
            assert np.array_equal(p.data, mp.perturb(x, kind, stream).data)

    def test_reproducible_with_fixed_seed(self):
        rng = np.random.default_rng(14)
        x = ad.Tensor(rng.normal(size=(9, 4)))
        c = mp.PathConfig(n_paths=4)
        a = mp.make_paths(x, c, np.random.default_rng(99), lambda t: t)
        b = mp.make_paths(x, c, np.random.default_rng(99), lambda t: t)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.data, pb.data)

    def test_zero_paths_rejected(self):
        with pytest.raises(ConfigError):
            mp.make_paths(ad.Tensor(np.zeros((2, 2))), mp.PathConfig(n_paths=0),
                          np.random.default_rng(0), lambda t: t)


class TestFusePaths:
    def test_single_path_bit_identical(self):
        rng = np.random.default_rng(15)
        m = ad.Tensor(rng.normal(size=(5, 3)))
        params = routing(np.ones(3), 3)
        fused, alpha = mp.fuse_paths([m], params)
        assert np.array_equal(fused.data, m.data)
        assert np.array_equal(alpha.data, np.ones((5, 1)))

    def test_identical_paths_uniform_weights(self):
        rng = np.random.default_rng(16)
        m = ad.Tensor(rng.normal(size=(4, 3)))
        params = routing(rng.normal(size=3), 3)
        fused, alpha = mp.fuse_paths([m, m, m], params)
        assert np.abs(alpha.data - 1.0 / 3.0).max() <= 1e-12
        assert np.abs(fused.data - m.data).max() <= 1e-12

    def test_scalar_case_direct_evaluation(self):
        # Scalar features 0 and 1 with unit phi: GELU gives scores 0 and w * Phi(1) = ln 2.
        p0 = ad.Tensor([[0.0]])
        p1 = ad.Tensor([[1.0]])
        phi_of_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        params = routing([math.log(2.0) / phi_of_1], 1)
        fused, alpha = mp.fuse_paths([p0, p1], params)
        assert np.abs(alpha.data - [[1.0 / 3.0, 2.0 / 3.0]]).max() <= 1e-12
        assert abs(fused.data[0, 0] - 2.0 / 3.0) <= 1e-12

    def test_alpha_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(17)
        paths = [ad.Tensor(rng.normal(size=(6, 4))) for _ in range(4)]
        params = routing(rng.normal(size=4), 4, rng)
        _, alpha = mp.fuse_paths(paths, params)
        assert np.abs(alpha.data.sum(axis=1) - 1.0).max() <= 1e-12
        assert (alpha.data > 0).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(18)
        paths = [ad.Tensor(rng.normal(size=(5, 3))) for _ in range(3)]
        params = routing(rng.normal(size=3), 3)
        fused, alpha = mp.fuse_paths(paths, params)
        perm = [2, 0, 1]
        fused_p, alpha_p = mp.fuse_paths([paths[i] for i in perm], params)
        assert np.abs(alpha_p.data - alpha.data[:, perm]).max() <= 1e-15
        assert np.abs(fused_p.data - fused.data).max() <= 1e-12

    def test_per_vertex_score_shift_invariance(self):
        # Adding a per-vertex constant to all path scores leaves alpha unchanged.
        rng = np.random.default_rng(19)
        scores = rng.normal(size=(6, 3))
        shift = rng.normal(size=(6, 1))
        a1 = ad.softmax(ad.Tensor(scores)).data
        a2 = ad.softmax(ad.Tensor(scores + shift)).data
        assert np.abs(a1 - a2).max() <= 1e-12

    def test_shape_mismatch(self):
        params = routing(np.ones(3), 3)
        with pytest.raises(ShapeError):
            mp.fuse_paths([ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros((5, 3)))], params)

    def test_empty_paths(self):
        with pytest.raises(ContractError):
            mp.fuse_paths([], routing(np.ones(2), 2))

    def test_weighted_sum_of_no_paths(self):
        # Leaked IndexError.
        with pytest.raises(ContractError, match="at least one path"):
            mp.weighted_path_sum([], ad.Tensor(np.ones((3, 0))))

    def test_weighted_sum_of_paths_with_different_shapes(self):
        # A (1, 2) path broadcast against alpha's (3, 1) column, in silence.
        paths = [ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones((1, 2)))]
        with pytest.raises(ShapeError, match=r"path 1 has shape \(1, 2\)"):
            mp.weighted_path_sum(paths, ad.Tensor(np.full((3, 2), 0.5)))

    def test_weighted_sum_alpha_of_another_shape(self):
        paths = [ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones((3, 2)))]
        with pytest.raises(ShapeError, match=r"alpha shape \(3, 3\) does not match 2 paths"):
            mp.weighted_path_sum(paths, ad.Tensor(np.full((3, 3), 0.5)))

    def test_gradient_through_routing(self):
        rng = np.random.default_rng(20)
        probe = rng.normal(size=(3, 2))

        def f(p):
            paths = [p["m0"], p["m1"], p["m2"]]
            params = mp.RoutingParams(w=p["w"], phi_weight=p["phi_w"], phi_bias=p["phi_b"])
            fused, _ = mp.fuse_paths(paths, params)
            return ad.sum_(ad.mul(fused, ad.Tensor(probe)))

        params = {
            "m0": ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True, name="m0"),
            "m1": ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True, name="m1"),
            "m2": ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True, name="m2"),
            "w": ad.Tensor(rng.normal(size=4), requires_grad=True, name="w"),
            "phi_w": ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True, name="phi_w"),
            "phi_b": ad.Tensor(rng.normal(size=4), requires_grad=True, name="phi_b"),
        }
        report = ad.gradient_check(f, params)
        assert report.passed, report
