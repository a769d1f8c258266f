"""The model the benchmark drives, wired from meshcontact's public modules.

meshcontact has no model assembly yet, so this file is the one place that
joins the modules:

    extract_features -> tokenize -> make_paths(dual_encode)
    -> fuse_paths / weighted_path_sum -> contact_head, mesh_head, decoders
    -> the five losses -> aggregate_losses -> backward -> Adam (plain numpy)

Single-path inference skips make_paths and the routing, which are the
identity at one path, and stops at the contact and mesh heads.

Every metric is defined on the calls into the package, not on this file,
so a later ``model.forward`` can replace ``infer``/``train_loss`` here
without redefining any metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from meshcontact import autodiff as ad
from meshcontact import backbone, encoder, heads, multipath
from meshcontact.autodiff import Tensor
from meshcontact.backbone import BackboneConfig, TokenLayout, TokenSequence
from meshcontact.encoder import EncoderConfig
from meshcontact.heads import LossBreakdown, LossWeights
from meshcontact.mesh import MeshConfig, MeshTemplate, build_template
from meshcontact.multipath import PathConfig, RoutingParams
from meshcontact.scenes import SceneConfig

# The package defaults for everything the benchmark does not vary.
PATHS = PathConfig()
SCENE = SceneConfig()
LOSS = LossWeights()
TEMPLATE_SEED = 0
LR = 1e-3
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class ModelConfig:
    """The extents of the wired model; the defaults are the package defaults."""

    mesh: MeshConfig = field(default_factory=MeshConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)


class Model:
    """The template and the fixed token graph that every forward shares."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.template: MeshTemplate = build_template(config.mesh, TEMPLATE_SEED)
        SCENE.validate(self.template)
        self.layout = TokenLayout(
            n_image=config.backbone.n_grid_tokens,
            n_joint=self.template.n_joints,
            n_vertex=self.template.v_coarse,
        )
        self.adjacency = encoder.token_adjacency(self.template, self.layout)


def init_params(model: Model, rng) -> dict:
    """Fresh parameter arrays for the backbone, both encoders, routing and heads."""
    cfg = model.config
    d = cfg.backbone.token_dim
    params = backbone.init_backbone_params(cfg.backbone, model.template, rng)
    params.update(encoder.init_encoder_params("enc_a", cfg.encoder, rng))
    params.update(encoder.init_encoder_params("enc_b", cfg.encoder, rng))
    params["route.phi.w"] = rng.normal(0.0, np.sqrt(1.0 / d), size=(d, d))
    params["route.phi.b"] = np.zeros(d)
    params["route.w"] = rng.normal(0.0, np.sqrt(1.0 / d), size=d)
    params.update(heads.init_head_params(d, SCENE.c_sem, SCENE.c_bp, rng))
    return params


def as_tensors(params: dict, requires_grad: bool) -> dict:
    """Wrap parameter arrays as named tensors.

    Training re-wraps on every step: a leaf recorded on one tape cannot
    be used on the next one.
    """
    return {k: Tensor(v, requires_grad=requires_grad, name=k) for k, v in params.items()}


def _routing(P: dict) -> RoutingParams:
    return RoutingParams(w=P["route.w"], phi_weight=P["route.phi.w"], phi_bias=P["route.phi.b"])


def _tokens(model: Model, P: dict, image: np.ndarray):
    """Backbone features and the token sequence: (grid tokens, TokenSequence)."""
    cfg = model.config
    grid, global_vec = backbone.extract_features(Tensor(image), P, cfg.backbone)
    return grid, backbone.tokenize(grid, global_vec, model.template, P, cfg.backbone)


def infer(model: Model, P: dict, image: np.ndarray):
    """Single-path forward: (contact probabilities [v_full], vertices [v_full x 3]).

    With one path the perturbation and the routing are the identity, so
    they are skipped: one dual encode feeds the heads directly.
    """
    _, seq = _tokens(model, P, image)
    fused, _, _ = encoder.dual_encode(seq, model.adjacency, P, model.config.encoder)
    contact = heads.contact_head(fused, model.template, P, "fused")
    vertices = heads.mesh_head(fused, model.template, P)
    return contact.probs.data, vertices.data


def train_loss(model: Model, P: dict, sample, rng) -> Tensor:
    """Total weighted training loss of one sample over PATHS.n_paths routed paths."""
    cfg = model.config
    grid, seq = _tokens(model, P, sample.image)

    def forward(tokens):
        return encoder.dual_encode(TokenSequence(tokens, seq.layout), model.adjacency, P,
                                   cfg.encoder)

    per_path = multipath.make_paths(seq.tokens, PATHS, rng, forward)
    fused, alpha = multipath.fuse_paths([p[0] for p in per_path], _routing(P))
    m_a = multipath.weighted_path_sum([p[1] for p in per_path], alpha)
    m_b = multipath.weighted_path_sum([p[2] for p in per_path], alpha)
    vertices = heads.mesh_head(fused, model.template, P)
    contact_a = heads.contact_head(m_a, model.template, P, "enc_a")
    contact_b = heads.contact_head(m_b, model.template, P, "enc_b")
    sem = heads.semantic_decoder(grid, P)
    bp = heads.bodypart_decoder(grid, P)
    breakdown = LossBreakdown(
        l_mesh=heads.loss_mesh(vertices, sample.gt_vertices),
        l_cls_a=heads.loss_contact(contact_a.probs, sample.gt_contacts),
        l_cls_b=heads.loss_contact(contact_b.probs, sample.gt_contacts),
        l_sem=heads.loss_segmentation(sem, sample.sem_grid),
        l_bp=heads.loss_segmentation(bp, sample.bp_grid),
    )
    return heads.aggregate_losses(breakdown, LOSS)


class Adam:
    """Plain numpy Adam (Kingma & Ba) updating the parameter arrays in place."""

    def __init__(self, params: dict):
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict):
        self.t += 1
        c1 = 1.0 - ADAM_B1**self.t
        c2 = 1.0 - ADAM_B2**self.t
        for k, p in params.items():
            g = grads[k].data
            m, v = self.m[k], self.v[k]
            m *= ADAM_B1
            m += (1.0 - ADAM_B1) * g
            v *= ADAM_B2
            v += (1.0 - ADAM_B2) * (g * g)
            p -= LR * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def train_step(model: Model, params: dict, adam: Adam, sample, rng):
    """One forward, backward and Adam update; returns (total loss, tape entries)."""
    with ad.tape_scope() as tape:
        P = as_tensors(params, requires_grad=True)
        loss = train_loss(model, P, sample, rng)
        grads = ad.backward(loss, params=P)
    adam.step(params, grads)
    return loss.item(), len(tape.entries)
