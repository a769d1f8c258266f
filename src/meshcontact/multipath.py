"""Multi-path perturbation training and token-wise adaptive path routing.

During training the input is expanded into N inference paths: the first is
always the unperturbed forward pass, the rest apply spatial dropout,
additive embedding noise, and token masking (which zeroes a fixed fraction
of the tokens), in that fixed order.  All paths share the same model
parameters.  A routing module then fuses the per-path vertex features: each
path gets a per-vertex attention score from a learned projection, scores
are softmaxed across paths, and the fused feature is the score-weighted sum.
Inference always runs a single path, for which the routing is exactly the
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, ShapeError

PATH_KINDS = ("identity", "spatial_dropout", "embedding_noise", "token_masking")


@dataclass(frozen=True)
class PathConfig:
    n_paths: int = 4
    dropout_rate: float = 0.1
    noise_sigma: float = 0.05
    mask_ratio: float = 0.15

    def __post_init__(self):
        if not 1 <= self.n_paths <= len(PATH_KINDS):
            raise ConfigError(f"n_paths must be in [1, {len(PATH_KINDS)}], got {self.n_paths}")
        for name, v in (("dropout_rate", self.dropout_rate), ("mask_ratio", self.mask_ratio)):
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def perturb(features: Tensor, kind: str, config: PathConfig, rng) -> Tensor:
    """Apply one perturbation kind to a (tokens x dim) feature matrix.

    The random draws are constants of the step: gradients flow through the
    surviving features, never through the sampling itself.
    """
    if kind == "identity":
        return features
    t = features.shape[0]
    if kind == "spatial_dropout":
        keep = (rng.random(t) >= config.dropout_rate).astype(np.float64)
        scale = 1.0 / (1.0 - config.dropout_rate)
        return ad.mul(features, Tensor((keep * scale)[:, None]))
    if kind == "embedding_noise":
        return ad.add(features, Tensor(rng.normal(0.0, config.noise_sigma, size=features.shape)))
    if kind == "token_masking":
        n_mask = math.ceil(config.mask_ratio * t)
        keep = np.ones(t)
        if n_mask:
            keep[rng.choice(t, size=n_mask, replace=False)] = 0.0
        return ad.mul(features, Tensor(keep[:, None]))
    raise ConfigError(f"unknown perturbation kind {kind!r}")


def make_paths(features: Tensor, config: PathConfig, rng, forward) -> list:
    """Run `forward` on N perturbed variants of `features`.

    Path 1 is always the identity; paths 2..N apply the remaining kinds in
    their fixed order, each drawing from its own derived RNG stream.
    """
    streams = rng.spawn(config.n_paths)
    out = []
    for i in range(config.n_paths):
        out.append(forward(perturb(features, PATH_KINDS[i], config, streams[i])))
    return out


@dataclass
class RoutingParams:
    """Score projection for path routing: w^T . phi(feature), phi(m) = GELU(m W + b)."""

    w: Tensor
    phi_weight: Tensor
    phi_bias: Tensor

    def __post_init__(self):
        if self.w.size < 1:
            raise ConfigError("routing weight vector must have at least one entry")


def fuse_paths(paths: list, params: RoutingParams):
    """Fuse per-path vertex features with per-vertex softmax routing.

    Returns (fused [V x D], alpha [V x N]).  Scores are
    s_v_i = w . phi(m_v_i); alpha is their softmax across paths; the fused
    feature is sum_i alpha_v_i * m_v_i.  Differentiable in paths and params.
    """
    if not paths:
        raise ContractError("fuse_paths needs at least one path")
    shape = paths[0].shape
    for i, p in enumerate(paths):
        if p.shape != shape:
            raise ShapeError(f"path {i} has shape {p.shape}, expected {shape}")
    w_col = ad.reshape(params.w, (params.w.size, 1))
    cols = []
    for p in paths:
        phi = ad.gelu(ad.linear(p, params.phi_weight, params.phi_bias))
        cols.append(ad.matmul(phi, w_col))
    alpha = ad.softmax(ad.concat(cols, axis=1), axis=1)
    fused = weighted_path_sum(paths, alpha)
    return fused, alpha


def weighted_path_sum(paths: list, alpha: Tensor) -> Tensor:
    """Combine paths with the given per-vertex column weights."""
    if alpha.shape != (paths[0].shape[0], len(paths)):
        raise ShapeError(f"alpha shape {alpha.shape} does not match {len(paths)} paths")
    fused = ad.mul(ad.narrow(alpha, 1, 0, 1), paths[0])
    for i in range(1, len(paths)):
        fused = ad.add(fused, ad.mul(ad.narrow(alpha, 1, i, 1), paths[i]))
    return fused
