"""Convolutional feature extractor and tokenizer.

A small conv stack turns the color image into a square grid of feature
tokens plus one pooled global vector.  Every layer is a PATCH x PATCH
convolution with stride PATCH, so each one divides the side by PATCH.  The
tokenizer then lays out the transformer input as contiguous segments: image
tokens (grid features plus a learned positional embedding), joint query
tokens, and coarse vertex query tokens, where each query is a learned
embedding concatenated with the global vector and projected back to the
token width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, check_int_fields
from .mesh import MeshTemplate

PATCH = 4  # kernel side and stride of every conv layer


@dataclass(frozen=True)
class BackboneConfig:
    image_size: int = 64
    conv_channels: tuple[int, ...] = (16, 32)
    token_dim: int = 32

    def __post_init__(self):
        check_int_fields(self)
        if not self.conv_channels:
            raise ConfigError(f"need a conv layer, got {self}")
        if min(self.conv_channels) < 1:
            raise ConfigError(f"every conv channel count must be >= 1, got {self}")
        if self.conv_channels[-1] != self.token_dim:
            raise ConfigError(
                f"last conv channel count {self.conv_channels[-1]} must equal "
                f"token_dim {self.token_dim}"
            )
        cell = PATCH ** len(self.conv_channels)
        if self.image_size < cell or self.image_size % cell:
            raise ConfigError(
                f"image size {self.image_size} must be a positive multiple of "
                f"PATCH ** len(conv_channels) = {cell}"
            )

    @property
    def grid_side(self) -> int:
        return self.image_size // PATCH ** len(self.conv_channels)

    @property
    def n_grid_tokens(self) -> int:
        return self.grid_side * self.grid_side


@dataclass(frozen=True)
class TokenLayout:
    """Segment boundaries of the token sequence: [image | joints | vertices]."""

    n_image: int
    n_joint: int
    n_vertex: int

    @property
    def total(self) -> int:
        return self.n_image + self.n_joint + self.n_vertex

    @property
    def vertex_start(self) -> int:
        return self.n_image + self.n_joint


@dataclass
class TokenSequence:
    tokens: Tensor  # (total, token_dim)
    layout: TokenLayout


def init_backbone_params(config: BackboneConfig, template: MeshTemplate, rng) -> dict:
    """Fresh backbone parameter arrays keyed by stable dotted names."""
    params = {}
    c_in = 3
    for i, c_out in enumerate(config.conv_channels):
        fan_in = c_in * PATCH * PATCH
        params[f"backbone.conv{i}.w"] = rng.normal(
            0.0, np.sqrt(2.0 / fan_in), size=(c_out, c_in, PATCH, PATCH)
        )
        params[f"backbone.conv{i}.b"] = np.zeros(c_out)
        c_in = c_out
    d = config.token_dim
    params["backbone.global_proj.w"] = rng.normal(0.0, np.sqrt(1.0 / d), size=(d, d))
    params["backbone.global_proj.b"] = np.zeros(d)
    params["backbone.pos_embed"] = rng.normal(0.0, 0.02, size=(config.n_grid_tokens, d))
    params["backbone.joint_embed"] = rng.normal(0.0, 0.02, size=(template.n_joints, d))
    params["backbone.vertex_embed"] = rng.normal(0.0, 0.02, size=(template.v_coarse, d))
    for kind in ("joint", "vertex"):
        params[f"backbone.{kind}_proj.w"] = rng.normal(0.0, np.sqrt(1.0 / (2 * d)), size=(2 * d, d))
        params[f"backbone.{kind}_proj.b"] = np.zeros(d)
    return params


def extract_features(image: Tensor, params: dict, config: BackboneConfig):
    """Run the conv stack; returns (grid_tokens [G x D], global_vector [1 x D])."""
    if image.shape != (3, config.image_size, config.image_size):
        raise ConfigError(
            f"image extents {image.shape} do not match configured "
            f"(3, {config.image_size}, {config.image_size})"
        )
    x = image
    for i in range(len(config.conv_channels)):
        x = ad.conv2d(x, params[f"backbone.conv{i}.w"], params[f"backbone.conv{i}.b"])
        x = ad.gelu(x)
    g = config.grid_side
    d = config.token_dim
    grid = ad.reshape(ad.transpose(x, (1, 2, 0)), (g * g, d))
    pooled = ad.reshape(ad.mean(grid, axis=0), (1, d))
    global_vec = ad.linear(
        pooled, params["backbone.global_proj.w"], params["backbone.global_proj.b"]
    )
    return grid, global_vec


def _project_queries(embed: Tensor, global_vec: Tensor, w: Tensor, b: Tensor) -> Tensor:
    n = embed.shape[0]
    tiled = ad.matmul(Tensor(np.ones((n, 1))), global_vec)
    return ad.linear(ad.concat([embed, tiled], axis=1), w, b)


def tokenize(grid_tokens: Tensor, global_vec: Tensor, template: MeshTemplate,
             params: dict, config: BackboneConfig) -> TokenSequence:
    """Assemble the [image | joint | vertex] token sequence."""
    segments = [ad.add(grid_tokens, params["backbone.pos_embed"])]
    for kind, count in (("joint", template.n_joints), ("vertex", template.v_coarse)):
        rows = params[f"backbone.{kind}_embed"].shape[0]
        if rows != count:
            raise ConfigError(
                f"{kind} embedding rows {rows} do not match template {kind} count {count}")
        segments.append(_project_queries(
            params[f"backbone.{kind}_embed"], global_vec,
            params[f"backbone.{kind}_proj.w"], params[f"backbone.{kind}_proj.b"]))
    layout = TokenLayout(
        n_image=grid_tokens.shape[0],
        n_joint=template.n_joints,
        n_vertex=template.v_coarse,
    )
    return TokenSequence(tokens=ad.concat(segments, axis=0), layout=layout)
