"""Convolutional feature extractor and tokenizer.

A small strided conv stack turns the color image into a square grid of
feature tokens plus one pooled global vector.  The tokenizer then lays out
the transformer input as contiguous segments: image tokens (grid features
plus a learned positional embedding), joint query tokens, and coarse
vertex query tokens, where each query is a learned embedding concatenated
with the global vector and projected back to the token width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .mesh import MeshTemplate


@dataclass(frozen=True)
class BackboneConfig:
    image_size: int = 64
    conv_channels: tuple = (16, 32)
    kernel: int = 4
    stride: int = 4
    token_dim: int = 32

    def validate(self):
        if self.conv_channels[-1] != self.token_dim:
            raise ConfigError(
                f"last conv channel count {self.conv_channels[-1]} must equal "
                f"token_dim {self.token_dim}"
            )
        side = self.image_size
        for _ in self.conv_channels:
            if (side - self.kernel) % self.stride:
                raise ConfigError(
                    f"extent {side} not divisible by stride {self.stride} "
                    f"with kernel {self.kernel}"
                )
            side = (side - self.kernel) // self.stride + 1
        if side < 1:
            raise ConfigError("conv stack consumes the whole image")

    @property
    def grid_side(self) -> int:
        side = self.image_size
        for _ in self.conv_channels:
            side = (side - self.kernel) // self.stride + 1
        return side

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
    config.validate()
    params = {}
    c_in = 3
    for i, c_out in enumerate(config.conv_channels):
        fan_in = c_in * config.kernel * config.kernel
        params[f"backbone.conv{i}.w"] = rng.normal(
            0.0, np.sqrt(2.0 / fan_in), size=(c_out, c_in, config.kernel, config.kernel)
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
        x = ad.conv2d(x, params[f"backbone.conv{i}.w"], params[f"backbone.conv{i}.b"],
                      stride=config.stride)
        x = ad.gelu(x)
    g = config.grid_side
    d = config.token_dim
    grid = ad.reshape(ad.transpose(x, (1, 2, 0)), (g * g, d))
    pooled = ad.reshape(ad.mean(grid, axis=0), (1, d))
    global_vec = ad.add(
        ad.matmul(pooled, params["backbone.global_proj.w"]), params["backbone.global_proj.b"]
    )
    return grid, global_vec


def _project_queries(embed: Tensor, global_vec: Tensor, w: Tensor, b: Tensor) -> Tensor:
    n = embed.shape[0]
    tiled = ad.matmul(Tensor(np.ones((n, 1))), global_vec)
    return ad.add(ad.matmul(ad.concat([embed, tiled], axis=1), w), b)


def tokenize(grid_tokens: Tensor, global_vec: Tensor, template: MeshTemplate,
             params: dict, config: BackboneConfig) -> TokenSequence:
    """Assemble the [image | joint | vertex] token sequence."""
    if params["backbone.vertex_embed"].shape[0] != template.v_coarse:
        raise ConfigError(
            f"vertex embedding rows {params['backbone.vertex_embed'].shape[0]} "
            f"do not match template coarse count {template.v_coarse}"
        )
    image_tokens = ad.add(grid_tokens, params["backbone.pos_embed"])
    joints = _project_queries(
        params["backbone.joint_embed"], global_vec,
        params["backbone.joint_proj.w"], params["backbone.joint_proj.b"],
    )
    verts = _project_queries(
        params["backbone.vertex_embed"], global_vec,
        params["backbone.vertex_proj.w"], params["backbone.vertex_proj.b"],
    )
    layout = TokenLayout(
        n_image=grid_tokens.shape[0],
        n_joint=template.n_joints,
        n_vertex=template.v_coarse,
    )
    return TokenSequence(tokens=ad.concat([image_tokens, joints, verts], axis=0), layout=layout)
