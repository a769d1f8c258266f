"""The model: config, shared state, parameters, the two forwards, and Adam.

    extract_features -> tokenize -> make_paths(dual_encode)
    -> fuse_paths / weighted_path_sum -> contact_head, mesh_head, decoders
    -> the five losses -> aggregate_losses -> backward -> Adam (plain numpy)

Single-path inference skips make_paths and the routing, which are the
identity at one path, and stops at the contact and mesh heads.  Every layer
is called through its module, so a function patched there is the one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import backbone, encoder, heads, multipath
from .autodiff import Tensor
from .backbone import BackboneConfig, TokenLayout, TokenSequence
from .encoder import EncoderConfig
from .errors import ConfigError
from .heads import LossBreakdown, LossWeights
from .mesh import MeshConfig, MeshTemplate, build_template
from .multipath import PathConfig, RoutingParams
from .scenes import SceneConfig

TEMPLATE_SEED = 0
PATHS = PathConfig()
LOSS = LossWeights()
LR = 1e-3
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class ModelConfig:
    """The model's extents; the defaults are the package defaults."""

    mesh: MeshConfig = field(default_factory=MeshConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        # A mismatch built and then failed in the first forward's first layer_norm.
        if self.encoder.token_dim != self.backbone.token_dim:
            raise ConfigError(f"encoder token_dim {self.encoder.token_dim} must equal "
                              f"backbone token_dim {self.backbone.token_dim}")


class Model:
    """The template, the scene extents and the fixed token graph that every forward shares."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.template: MeshTemplate = build_template(config.mesh, TEMPLATE_SEED)
        self.scene = SceneConfig(config.backbone)
        self.scene.validate(self.template)
        self.layout = TokenLayout(config.backbone.n_grid_tokens, self.template.n_joints,
                                  self.template.v_coarse)
        self.adjacency = encoder.token_adjacency(self.template, self.layout)


def init_params(model: Model, rng) -> dict:
    """Named, grad-requiring parameter leaves, which every step's tape reuses."""
    cfg = model.config
    d = cfg.backbone.token_dim
    params = backbone.init_backbone_params(cfg.backbone, model.template, rng)
    params.update(encoder.init_encoder_params("enc_a", cfg.encoder, rng))
    params.update(encoder.init_encoder_params("enc_b", cfg.encoder, rng))
    params["route.phi.w"] = rng.normal(0.0, np.sqrt(1.0 / d), size=(d, d))
    params["route.phi.b"] = np.zeros(d)
    params["route.w"] = rng.normal(0.0, np.sqrt(1.0 / d), size=d)
    params.update(heads.init_head_params(d, model.scene.c_sem, model.scene.c_bp, rng))
    return {k: Tensor(v, requires_grad=True, name=k) for k, v in params.items()}


def tokenize_image(model: Model, P: dict, image: np.ndarray):
    """Backbone features and the token sequence: (grid tokens, TokenSequence)."""
    cfg = model.config
    grid, global_vec = backbone.extract_features(Tensor(image), P, cfg.backbone)
    return grid, backbone.tokenize(grid, global_vec, model.template, P, cfg.backbone)


def infer(model: Model, P: dict, image: np.ndarray):
    """One path, unperturbed and unrouted: (contact probabilities [v_full], vertices)."""
    _, seq = tokenize_image(model, P, image)
    fused, _, _ = encoder.dual_encode(seq, model.adjacency, P, model.config.encoder)
    contact = heads.contact_head(fused, model.template, P, "fused")
    vertices = heads.mesh_head(fused, model.template, P)
    return contact.probs.data, vertices.data


def train_loss(model: Model, P: dict, sample, rng) -> Tensor:
    """Total weighted training loss of one sample over PATHS.n_paths routed paths."""
    grid, seq = tokenize_image(model, P, sample.image)

    def forward(tokens):
        return encoder.dual_encode(TokenSequence(tokens, seq.layout), model.adjacency, P,
                                   model.config.encoder)

    per_path = multipath.make_paths(seq.tokens, PATHS, rng, forward)
    routing = RoutingParams(P["route.w"], P["route.phi.w"], P["route.phi.b"])
    fused, alpha = multipath.fuse_paths([p[0] for p in per_path], routing)
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
    """Plain numpy Adam (Kingma & Ba) updating each parameter's `.data` in place."""

    def __init__(self, params: dict):
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

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
            p.data -= LR * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def train_step(model: Model, P: dict, adam: Adam, sample, rng):
    """One forward, backward and Adam update; returns (total loss, tape entries)."""
    with ad.tape_scope() as tape:
        loss = train_loss(model, P, sample, rng)
        grads = ad.backward(loss, params=P)
    adam.step(P, grads)
    return loss.item(), len(tape.entries)
