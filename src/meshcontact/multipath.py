"""Multi-path perturbation training and token-wise adaptive path routing.

During training the input is expanded into N inference paths: the first is
always the unperturbed forward pass, the rest apply spatial dropout at
DROPOUT_RATE, additive embedding noise of scale NOISE_SIGMA, and token
masking (which zeroes a MASK_RATIO fraction of the tokens), in that fixed
order.  All paths share the same model parameters.  A routing module then
fuses the per-path vertex features: each path gets a per-vertex attention
score from a learned projection, scores are softmaxed across paths, and the
fused feature is the score-weighted sum.  Inference always runs a single
path, for which the routing is exactly the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, ShapeError, check_int_fields

PATH_KINDS = ("identity", "spatial_dropout", "embedding_noise", "token_masking")
# The paper trains with this one set of perturbation rates.
DROPOUT_RATE = 0.1
NOISE_SIGMA = 0.05
MASK_RATIO = 0.15


@dataclass(frozen=True)
class PathConfig:
    n_paths: int = 4

    def __post_init__(self):
        check_int_fields(self)
        if not 1 <= self.n_paths <= len(PATH_KINDS):
            raise ConfigError(f"n_paths must be in [1, {len(PATH_KINDS)}], got {self.n_paths}")


def perturb(features: Tensor, kind: str, rng) -> Tensor:
    """Apply one perturbation kind to a (tokens x dim) feature matrix.

    The random draws are constants of the step: gradients flow through the
    surviving features, never through the sampling itself.
    """
    if features.ndim != 2:  # a (t,) keep column would broadcast a vector to (t, t)
        raise ShapeError(f"perturb needs (tokens x dim) features, got shape {features.shape}")
    if kind == "identity":
        return features
    t = features.shape[0]
    if kind == "spatial_dropout":
        keep = (rng.random(t) >= DROPOUT_RATE).astype(np.float64)
        scale = 1.0 / (1.0 - DROPOUT_RATE)
        return ad.mul(features, Tensor((keep * scale)[:, None]))
    if kind == "embedding_noise":
        return ad.add(features, Tensor(rng.normal(0.0, NOISE_SIGMA, size=features.shape)))
    if kind == "token_masking":
        n_mask = math.ceil(MASK_RATIO * t)
        keep = np.ones(t)
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
        out.append(forward(perturb(features, PATH_KINDS[i], streams[i])))
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


def _path_shape(op, paths: list) -> tuple:
    """The shape all `paths` share; raises for an empty list or paths of different shapes."""
    if not paths:
        raise ContractError(f"{op} needs at least one path")
    shape = paths[0].shape
    for i, p in enumerate(paths):
        if p.shape != shape:
            raise ShapeError(f"path {i} has shape {p.shape}, expected {shape}")
    return shape


def fuse_paths(paths: list, params: RoutingParams):
    """Fuse per-path vertex features with per-vertex softmax routing.

    Returns (fused [V x D], alpha [V x N]).  Scores are
    s_v_i = w . phi(m_v_i); alpha is their softmax across paths; the fused
    feature is sum_i alpha_v_i * m_v_i.  Differentiable in paths and params.
    """
    _path_shape("fuse_paths", paths)
    w_col = ad.reshape(params.w, (params.w.size, 1))
    cols = []
    for p in paths:
        phi = ad.gelu(ad.linear(p, params.phi_weight, params.phi_bias))
        cols.append(ad.matmul(phi, w_col))
    alpha = ad.softmax(ad.concat(cols, axis=1))
    fused = weighted_path_sum(paths, alpha)
    return fused, alpha


def weighted_path_sum(paths: list, alpha: Tensor) -> Tensor:
    """Combine paths with the given per-vertex column weights."""
    n_vertices = _path_shape("weighted_path_sum", paths)[0]
    if alpha.shape != (n_vertices, len(paths)):
        raise ShapeError(f"alpha shape {alpha.shape} does not match {len(paths)} paths")
    fused = ad.mul(ad.narrow(alpha, 1, 0, 1), paths[0])
    for i in range(1, len(paths)):
        fused = ad.add(fused, ad.mul(ad.narrow(alpha, 1, i, 1), paths[i]))
    return fused
