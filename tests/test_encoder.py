import numpy as np
import pytest

from meshcontact import autodiff as ad
from meshcontact import backbone, encoder, mesh
from meshcontact.errors import ConfigError, ContractError, ShapeError

SMALL = encoder.EncoderConfig(token_dim=8, heads=2, depth=1, mlp_hidden=16)


def make_params(config, seed=0, prefixes=("enc_a", "enc_b")):
    rng = np.random.default_rng(seed)
    raw = {}
    for p in prefixes:
        raw.update(encoder.init_encoder_params(p, config, rng))
    return {k: ad.Tensor(v, requires_grad=True, name=k) for k, v in raw.items()}


def zeroed(params, keys):
    out = dict(params)
    for k in list(out):
        if any(s in k for s in keys):
            out[k] = ad.Tensor(np.zeros_like(out[k].data), name=k)
    return out


class TestMhsa:
    def test_zero_query_key_gives_uniform_attention(self):
        params = make_params(SMALL, prefixes=("enc_a",))
        params = zeroed(params, [".attn.wq", ".attn.wk", ".attn.bq", ".attn.bo"])
        rng = np.random.default_rng(1)
        tokens = ad.Tensor(rng.normal(size=(5, 8)))
        out = encoder.mhsa(tokens, params, "enc_a.block0", SMALL.heads)
        wv = params["enc_a.block0.attn.wv"].data
        bv = params["enc_a.block0.attn.bv"].data
        wo = params["enc_a.block0.attn.wo"].data
        expected = np.tile(((tokens.data @ wv + bv).mean(axis=0) @ wo), (5, 1))
        assert np.abs(out.data - expected).max() <= 1e-12

    def test_single_token(self):
        params = make_params(SMALL, prefixes=("enc_a",))
        params = zeroed(params, [".attn.bq", ".attn.bv", ".attn.bo"])
        rng = np.random.default_rng(2)
        token = ad.Tensor(rng.normal(size=(1, 8)))
        out = encoder.mhsa(token, params, "enc_a.block0", SMALL.heads)
        wv = params["enc_a.block0.attn.wv"].data
        wo = params["enc_a.block0.attn.wo"].data
        assert np.abs(out.data - token.data @ wv @ wo).max() <= 1e-12

    def test_hand_evaluated_single_head(self):
        cfg = encoder.EncoderConfig(token_dim=2, heads=1, depth=1, mlp_hidden=4)
        params = make_params(cfg, prefixes=("enc_a",))
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.5, 0.0], [0.0, 0.5]])
        wv = np.array([[1.0, 1.0], [0.0, 1.0]])
        wo = np.array([[1.0, 0.0], [1.0, 1.0]])
        for name, w in [("wq", wq), ("wk", wk), ("wv", wv), ("wo", wo)]:
            params[f"enc_a.block0.attn.{name}"] = ad.Tensor(w)
        for name in ("bq", "bv", "bo"):
            params[f"enc_a.block0.attn.{name}"] = ad.Tensor(np.zeros(2))
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        out = encoder.mhsa(ad.Tensor(x), params, "enc_a.block0", 1)

        # Direct closed-form evaluation of scaled dot-product attention.
        q, k, v = x @ wq, x @ wk, x @ wv
        scores = q @ k.T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        expected = attn @ v @ wo
        assert np.abs(out.data - expected).max() <= 1e-12

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            encoder.EncoderConfig(token_dim=8, heads=3)

    @pytest.mark.parametrize("heads", [0, -1])
    def test_head_count_below_one(self, heads):
        with pytest.raises(ConfigError, match="head count"):
            encoder.EncoderConfig(token_dim=8, heads=heads)

    def test_head_count_checked_by_attention(self):
        params = make_params(SMALL, prefixes=("enc_a",))
        with pytest.raises(ShapeError, match="head count 3"):
            encoder.mhsa(ad.Tensor(np.zeros((4, 8))), params, "enc_a.block0", 3)

    def test_five_tape_entries_and_same_bits_without_tape(self):
        params = make_params(SMALL, prefixes=("enc_a",))
        tokens = ad.Tensor(np.random.default_rng(12).normal(size=(6, 8)))
        with ad.tape_scope() as tape:
            taped = encoder.mhsa(tokens, params, "enc_a.block0", SMALL.heads)
        assert [e.op for e in tape.entries] == ["linear", "matmul", "linear", "attention", "linear"]
        untaped = encoder.mhsa(tokens, params, "enc_a.block0", SMALL.heads)
        assert np.array_equal(taped.data, untaped.data)


class TestGraphResidual:
    def test_identity_adjacency_zero_weight(self):
        rng = np.random.default_rng(3)
        h = ad.Tensor(rng.normal(size=(4, 8)))
        out = encoder.graph_residual(h, np.eye(4), ad.Tensor(np.zeros((8, 8))))
        assert np.array_equal(out.data, h.data)

    def test_identity_adjacency_identity_weight(self):
        rng = np.random.default_rng(4)
        h = ad.Tensor(rng.normal(size=(4, 8)) * 0.01)
        out = encoder.graph_residual(h, np.eye(4), ad.Tensor(np.eye(8)))
        gelu_h = ad.gelu(h).data
        assert np.abs(out.data - (gelu_h + h.data)).max() <= 1e-15

    def test_matches_dense_oracle(self):
        template = mesh.build_template(mesh.MeshConfig(), rng_seed=7)
        layout = backbone.TokenLayout(n_image=16, n_joint=8, n_vertex=template.v_coarse)
        adjacency = encoder.token_adjacency(template, layout)
        rng = np.random.default_rng(5)
        h = rng.normal(size=(layout.total, 8))
        wg = rng.normal(size=(8, 8))
        out = encoder.graph_residual(ad.Tensor(h), adjacency, ad.Tensor(wg))
        pre = adjacency @ h @ wg
        expected = ad.gelu(ad.Tensor(pre)).data + h
        assert np.abs(out.data - expected).max() <= 1e-12

    @pytest.mark.parametrize("n_vertex", [26, 98])
    def test_token_adjacency_of_another_vertex_count(self, n_vertex):
        # numpy's broadcast ValueError leaked here.
        template = mesh.build_template(mesh.MeshConfig(v_full=194, v_coarse=50), rng_seed=7)
        layout = backbone.TokenLayout(n_image=16, n_joint=8, n_vertex=n_vertex)
        with pytest.raises(ShapeError, match=f"{n_vertex} vertex tokens, template 50 coarse"):
            encoder.token_adjacency(template, layout)

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            encoder.graph_residual(ad.Tensor(np.zeros((4, 8))), np.eye(5), ad.Tensor(np.eye(8)))

    def test_identity_adjacency_no_cross_token_mixing(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=(5, 8))
        wg = ad.Tensor(rng.normal(size=(8, 8)))
        base = encoder.graph_residual(ad.Tensor(h), np.eye(5), wg).data
        bumped = h.copy()
        bumped[2] += 1.0
        out = encoder.graph_residual(ad.Tensor(bumped), np.eye(5), wg).data
        rows = np.arange(5) != 2
        assert np.array_equal(out[rows], base[rows])


class TestEncoderBlock:
    def test_shape_preserved_and_deterministic(self):
        params = make_params(SMALL, prefixes=("enc_a",))
        rng = np.random.default_rng(7)
        tokens = ad.Tensor(rng.normal(size=(6, 8)))
        a = np.eye(6)
        o1 = encoder.encoder_block(tokens, a, params, "enc_a.block0", SMALL)
        o2 = encoder.encoder_block(tokens, a, params, "enc_a.block0", SMALL)
        assert o1.shape == tokens.shape
        assert np.array_equal(o1.data, o2.data)

    def test_tape_entries(self):
        params = make_params(SMALL, prefixes=("enc_a",))
        tokens = ad.Tensor(np.random.default_rng(13).normal(size=(6, 8)))
        with ad.tape_scope() as tape:
            encoder.encoder_block(tokens, np.eye(6), params, "enc_a.block0", SMALL)
        # layer_norm, mhsa (5), add, graph residual (matmul, matmul, gelu, add),
        # layer_norm, linear, gelu, linear, add
        assert len(tape.entries) == 16

    def test_gradient_through_block(self):
        params = make_params(SMALL, prefixes=("enc_a",))
        rng = np.random.default_rng(8)
        tokens = ad.Tensor(rng.normal(size=(4, 8)))
        a = np.full((4, 4), 0.25)
        probe = rng.normal(size=(4, 8))

        def f(p):
            out = encoder.encoder_block(tokens, a, p, "enc_a.block0", SMALL)
            return ad.sum_(ad.mul(out, ad.Tensor(probe)))

        report = ad.gradient_check(f, params)
        assert report.passed, report

    def test_dropped_rows_that_kept_rows_mix_with_rejected(self):
        params = make_params(SMALL, prefixes=("enc_a",))
        tokens = ad.Tensor(np.random.default_rng(15).normal(size=(6, 8)))
        with pytest.raises(ContractError, match="links rows from 2 on to rows before it"):
            encoder.encoder_block(tokens, np.full((6, 6), 1.0 / 6), params, "enc_a.block0",
                                  SMALL, start=2)

    @pytest.mark.parametrize("mesh_config", [mesh.MeshConfig(), mesh.MeshConfig(98, 26)],
                             ids=["386-98", "98-26"])
    def test_token_adjacency_lets_the_vertex_rows_stand_alone(self, mesh_config):
        template = mesh.build_template(mesh_config, rng_seed=0)
        layout = backbone.TokenLayout(n_image=16, n_joint=template.n_joints,
                                      n_vertex=template.v_coarse)
        adjacency = encoder.token_adjacency(template, layout)
        params = make_params(SMALL, prefixes=("enc_a",))
        tokens = ad.Tensor(np.random.default_rng(16).normal(size=(layout.total, 8)))
        full = encoder.encoder_block(tokens, adjacency, params, "enc_a.block0", SMALL)
        rows = encoder.encoder_block(tokens, adjacency, params, "enc_a.block0", SMALL,
                                     start=layout.vertex_start)
        assert rows.shape == (layout.n_vertex, 8)
        ref = full.data[layout.vertex_start:]
        assert np.abs(rows.data - ref).max() <= 1e-12 * np.abs(ref).max()


class TestDualEncode:
    def _sequence(self, rng, t=12, d=8, n_vertex=5, n_joint=3):
        layout = backbone.TokenLayout(n_image=t - n_joint - n_vertex, n_joint=n_joint,
                                      n_vertex=n_vertex)
        tokens = ad.Tensor(rng.normal(size=(t, d)))
        return backbone.TokenSequence(tokens=tokens, layout=layout)

    def test_fusion_linearity(self):
        rng = np.random.default_rng(9)
        seq = self._sequence(rng)
        params = make_params(SMALL)
        fused, m_a, m_b = encoder.dual_encode(seq, np.eye(12), params, SMALL)
        assert np.array_equal(fused.data, m_a.data + encoder.FUSION_WEIGHT_B * m_b.data)

    def test_tape_entries(self):
        config = encoder.EncoderConfig(token_dim=8, heads=2, depth=2, mlp_hidden=16)
        seq = self._sequence(np.random.default_rng(14))
        with ad.tape_scope() as tape:
            encoder.dual_encode(seq, np.eye(12), make_params(config), config)
        # 16 entries per block (TestEncoderBlock), two narrows per encoder (its last block
        # narrows the query rows and the residual rows to the vertex tokens), one mul and one add.
        assert len(tape.entries) == 2 * 16 * config.depth + 2 * 2 + 2 == 70
        assert [e.op for e in tape.entries[-2:]] == ["mul", "add"]

    def test_fused_from_constant_parts(self):
        ones = ad.Tensor(np.ones((4, 3)))
        wa, wb = 1.0, 0.1
        fused = ad.add(ad.mul(ad.Tensor(wa), ones), ad.mul(ad.Tensor(wb), ones))
        assert np.abs(fused.data - 1.1).max() <= 1e-12

    def test_paper_fusion_weights_default(self):
        assert encoder.FUSION_WEIGHT_B == 0.1

    def test_adjacency_layout_mismatch(self):
        rng = np.random.default_rng(10)
        seq = self._sequence(rng)
        params = make_params(SMALL)
        with pytest.raises(Exception, match="tokens"):
            encoder.dual_encode(seq, np.eye(11), params, SMALL)

    def test_full_dual_encoder_gradient_on_16_token_probe(self):
        rng = np.random.default_rng(11)
        seq = self._sequence(rng, t=16, d=8, n_vertex=6, n_joint=4)
        params = make_params(SMALL, seed=12)
        probe = rng.normal(size=(6, 8))
        adjacency = np.eye(16)
        adjacency[10:, 10:] = 1.0 / 6.0

        def f(p):
            fused, _, _ = encoder.dual_encode(seq, adjacency, p, SMALL)
            return ad.sum_(ad.mul(fused, ad.Tensor(probe)))

        report = ad.gradient_check(f, params)
        assert report.passed, report
