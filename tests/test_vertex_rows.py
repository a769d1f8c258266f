"""The last encoder block computes only the vertex rows, and that changes only rounding.

`dual_encode` runs the last block of each encoder on the vertex rows alone.
The reference here runs every block on all rows and narrows to the vertex
tokens afterwards, as `dual_encode` did before. Both are compared on the
package's model at two mesh sizes. Outputs and every parameter gradient agree
within `BOUND` times the largest magnitude of the compared array, the
inferred contact probabilities within `BOUND` relative, and the same bound
rejects a real change.
"""

import numpy as np
import pytest

from meshcontact import autodiff as ad
from meshcontact import encoder
from meshcontact import model as mc
from test_wired_tape import MESH_CONFIGS, MESH_IDS, _setup

# Fewer query rows change the attention's per-head max shift, and BLAS rounds a
# product differently by its row count; both move results by a few ulps.
BOUND = 1e-12


def full_rows_dual_encode(sequence, adjacency, params, config,
                          weight_b=encoder.FUSION_WEIGHT_B):
    """Both encoders with every block on all rows, then a narrow to the vertex tokens."""
    layout = sequence.layout
    vertex = []
    for prefix in ("enc_a", "enc_b"):
        x = sequence.tokens
        for b in range(config.depth):
            x = encoder.encoder_block(x, adjacency, params, f"{prefix}.block{b}", config)
        vertex.append(ad.narrow(x, 0, layout.vertex_start, layout.n_vertex))
    m_a, m_b = vertex
    return ad.add(m_a, ad.mul(ad.Tensor(weight_b), m_b)), m_a, m_b


def _within(x, ref):
    return np.abs(x - ref).max() <= BOUND * np.abs(ref).max()


def _encode_and_grads(model, P, image, encode):
    """(fused, m_a, m_b) and every parameter's gradient of a probed sum of all three."""
    with ad.tape_scope():
        _, seq = mc.tokenize_image(model, P, image)
        outs = encode(seq, model.adjacency, P, model.config.encoder)
        rng = np.random.default_rng(4)
        terms = [ad.sum_(ad.mul(o, ad.Tensor(rng.normal(size=o.shape)))) for o in outs]
        grads = ad.backward(ad.add(ad.add(terms[0], terms[1]), terms[2]), P)
    return [o.data for o in outs], {k: g.data for k, g in grads.items()}


@pytest.mark.parametrize("mesh_config", MESH_CONFIGS, ids=MESH_IDS)
def test_outputs_and_gradients_match_the_full_rows_reference(mesh_config):
    model, params, sample = _setup(mesh_config)
    outs, grads = _encode_and_grads(model, params, sample.image, encoder.dual_encode)
    ref_outs, ref_grads = _encode_and_grads(model, params, sample.image, full_rows_dual_encode)
    assert outs[0].shape == (model.layout.n_vertex, model.config.encoder.token_dim)
    for name, x, ref in zip(("fused", "m_a", "m_b"), outs, ref_outs):
        assert _within(x, ref), name
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert _within(g, ref_grads[name]), name
    assert any(np.abs(g).max() > 0 for name, g in grads.items() if name.startswith("enc_b"))


@pytest.mark.parametrize("mesh_config", MESH_CONFIGS, ids=MESH_IDS)
def test_inferred_probabilities_match_the_full_rows_reference(mesh_config, monkeypatch):
    model, P, sample = _setup(mesh_config)
    probs, vertices = mc.infer(model, P, sample.image)
    monkeypatch.setattr(encoder, "dual_encode", full_rows_dual_encode)
    ref_probs, ref_vertices = mc.infer(model, P, sample.image)
    assert (np.abs(probs - ref_probs) <= BOUND * ref_probs).all()
    assert _within(vertices, ref_vertices)


def test_bound_rejects_a_perturbed_fusion_weight():
    model, P, sample = _setup(MESH_CONFIGS[1])
    _, seq = mc.tokenize_image(model, P, sample.image)
    fused = encoder.dual_encode(seq, model.adjacency, P, model.config.encoder)[0].data

    def reference(weight_b):
        return full_rows_dual_encode(seq, model.adjacency, P, model.config.encoder,
                                     weight_b)[0].data

    assert _within(fused, reference(encoder.FUSION_WEIGHT_B))
    assert not _within(fused, reference(encoder.FUSION_WEIGHT_B * (1.0 + 1e-9)))
