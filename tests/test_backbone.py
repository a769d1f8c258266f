import numpy as np
import pytest

from meshcontact import autodiff as ad
from meshcontact import backbone, mesh
from meshcontact.errors import ConfigError


@pytest.fixture(scope="module")
def template():
    return mesh.build_template(mesh.MeshConfig(), rng_seed=7)


@pytest.fixture(scope="module")
def config():
    return backbone.BackboneConfig()


def make_params(config, template, seed=11):
    raw = backbone.init_backbone_params(config, template, np.random.default_rng(seed))
    return {k: ad.Tensor(v, requires_grad=True, name=k) for k, v in raw.items()}


class TestExtractFeatures:
    def test_output_shapes(self, config, template):
        params = make_params(config, template)
        image = ad.Tensor(np.zeros((3, 64, 64)))
        grid, g = backbone.extract_features(image, params, config)
        assert grid.shape == (16, 32)
        assert g.shape == (1, 32)

    def test_zero_image_zero_biases_gives_zero_tokens(self, config, template):
        params = make_params(config, template)
        for k in list(params):
            if k.endswith(".b"):
                params[k] = ad.Tensor(np.zeros_like(params[k].data), name=k)
        grid, _ = backbone.extract_features(ad.Tensor(np.zeros((3, 64, 64))), params, config)
        assert np.abs(grid.data).max() == 0.0

    def test_extent_mismatch(self, config, template):
        params = make_params(config, template)
        with pytest.raises(ConfigError):
            backbone.extract_features(ad.Tensor(np.zeros((3, 60, 60))), params, config)

    def test_indivisible_stride_rejected(self, template):
        with pytest.raises(ConfigError):
            backbone.BackboneConfig(image_size=50)
        # Unchecked, this raised IndexError from the parameter init.
        with pytest.raises(ConfigError, match="need a conv layer"):
            backbone.init_backbone_params(backbone.BackboneConfig(conv_channels=()), template,
                                          np.random.default_rng(0))

    def test_gradient_through_conv_stack(self, template):
        cfg = backbone.BackboneConfig(image_size=16, conv_channels=(4, 8), token_dim=8)
        raw = backbone.init_backbone_params(cfg, template, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        image = ad.Tensor(rng.uniform(size=(3, 16, 16)))
        probe = rng.normal(size=(1, 8))

        def f(params):
            grid, g = backbone.extract_features(image, params, cfg)
            return ad.add(ad.sum_(ad.mul(grid, ad.Tensor(np.ones((1, 8))))), ad.sum_(ad.mul(g, ad.Tensor(probe))))

        params = {
            k: ad.Tensor(v, requires_grad=True, name=k)
            for k, v in raw.items()
            if k.startswith("backbone.conv") or k.startswith("backbone.global")
        }
        report = ad.gradient_check(f, params)
        assert report.passed, report


class TestTokenize:
    def test_desk_layout(self, config, template):
        params = make_params(config, template)
        rng = np.random.default_rng(3)
        grid = ad.Tensor(rng.normal(size=(16, 32)))
        g = ad.Tensor(rng.normal(size=(1, 32)))
        seq = backbone.tokenize(grid, g, template, params, config)
        assert seq.tokens.shape == (16 + 8 + 98, 32)
        assert seq.layout.total == 122
        assert seq.layout.vertex_start == 24

    def test_deterministic(self, config, template):
        params = make_params(config, template)
        rng = np.random.default_rng(4)
        grid = ad.Tensor(rng.normal(size=(16, 32)))
        g = ad.Tensor(rng.normal(size=(1, 32)))
        s1 = backbone.tokenize(grid, g, template, params, config)
        s2 = backbone.tokenize(grid, g, template, params, config)
        assert np.array_equal(s1.tokens.data, s2.tokens.data)

    def test_global_vector_isolated_to_query_segments(self, config, template):
        params = make_params(config, template)
        rng = np.random.default_rng(5)
        grid = ad.Tensor(rng.normal(size=(16, 32)))
        g = ad.Tensor(rng.normal(size=(1, 32)))
        zero_g = ad.Tensor(np.zeros((1, 32)))
        with_g = backbone.tokenize(grid, g, template, params, config).tokens.data
        without_g = backbone.tokenize(grid, zero_g, template, params, config).tokens.data
        assert np.array_equal(with_g[:16], without_g[:16])
        assert not np.array_equal(with_g[16:], without_g[16:])

    def test_template_mismatch_rejected(self, config, template):
        params = make_params(config, template)
        small = mesh.build_template(mesh.MeshConfig(v_full=194, v_coarse=50), 1)
        rng = np.random.default_rng(6)
        grid = ad.Tensor(rng.normal(size=(16, 32)))
        g = ad.Tensor(rng.normal(size=(1, 32)))
        with pytest.raises(ConfigError):
            backbone.tokenize(grid, g, small, params, config)

    def test_joint_embedding_mismatch_rejected(self, config, template):
        # A 5-row joint embedding gave 119 tokens under a layout of 122, with no error.
        params = make_params(config, template)
        params["backbone.joint_embed"] = ad.Tensor(params["backbone.joint_embed"].data[:5])
        rng = np.random.default_rng(6)
        grid = ad.Tensor(rng.normal(size=(16, 32)))
        g = ad.Tensor(rng.normal(size=(1, 32)))
        with pytest.raises(ConfigError, match="joint embedding rows 5 do not match .* count 8"):
            backbone.tokenize(grid, g, template, params, config)
