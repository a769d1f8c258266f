"""Prediction heads and the weighted multi-task training objective.

Contact: a linear map scores each coarse vertex, the fixed upsampler lifts
the logits to the full mesh, and a sigmoid yields per-vertex contact
probabilities.  Mesh: a linear map regresses coarse vertex offsets from
the rest pose, upsampled to full resolution.  Two per-cell linear decoders
classify the feature grid into scene-semantic and body-part classes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import mesh
from .autodiff import Tensor
from .errors import ConfigError, ContractError, NumericsError, ShapeError

PROB_CLAMP = 1e-7


@dataclass
class ContactPrediction:
    probs: Tensor  # (v_full,) strictly inside (0, 1)
    source: str  # "fused", "enc_a", or "enc_b"
    logits: Tensor  # (v_full,) pre-sigmoid, upsampled


@dataclass(frozen=True)
class LossWeights:
    mesh: float = 1.0
    cls_a: float = 1.0
    cls_b: float = 0.1
    sem: float = 1.0
    bp: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            w = getattr(self, f.name)
            if not 0.0 <= w < np.inf:  # NaN fails both comparisons
                raise ConfigError(f"LossWeights.{f.name} must be finite and >= 0, got {w!r}")


@dataclass
class LossBreakdown:
    l_mesh: Tensor
    l_cls_a: Tensor
    l_cls_b: Tensor
    l_sem: Tensor
    l_bp: Tensor


def init_head_params(token_dim: int, c_sem: int, c_bp: int, rng) -> dict:
    if c_sem < 2 or c_bp < 2:
        raise ConfigError(f"decoders need >= 2 classes, got sem={c_sem} bp={c_bp}")
    scale = np.sqrt(1.0 / token_dim)
    return {
        "heads.contact.w": rng.normal(0.0, scale, size=(token_dim, 1)),
        "heads.contact.b": np.zeros(1),
        "heads.mesh.w": rng.normal(0.0, scale, size=(token_dim, 3)),
        "heads.mesh.b": np.zeros(3),
        "heads.sem.w": rng.normal(0.0, scale, size=(token_dim, c_sem)),
        "heads.sem.b": np.zeros(c_sem),
        "heads.bp.w": rng.normal(0.0, scale, size=(token_dim, c_bp)),
        "heads.bp.b": np.zeros(c_bp),
    }


def contact_head(features: Tensor, template: mesh.MeshTemplate, params: dict,
                 source: str = "fused") -> ContactPrediction:
    """Coarse logits, lifted to the full mesh by the upsampler, then sigmoid.

    Probabilities are clamped to [PROB_CLAMP, 1-PROB_CLAMP] so they stay
    strictly inside (0, 1) even when the sigmoid saturates in float64.
    """
    coarse_logits = ad.linear(features, params["heads.contact.w"], params["heads.contact.b"])
    full_logits = ad.reshape(mesh.upsample(coarse_logits, template), (template.v_full,))
    probs = ad.clip(ad.sigmoid(full_logits), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return ContactPrediction(probs=probs, source=source, logits=full_logits)


def mesh_head(features: Tensor, template: mesh.MeshTemplate, params: dict) -> Tensor:
    """Coarse offsets from rest pose, upsampled to full vertices."""
    offsets = ad.linear(features, params["heads.mesh.w"], params["heads.mesh.b"])
    coarse = ad.add(Tensor(template.coarse_rest_vertices), offsets)
    return mesh.upsample(coarse, template)


def semantic_decoder(grid_tokens: Tensor, params: dict) -> Tensor:
    """Per-grid-cell scene class logits."""
    return ad.linear(grid_tokens, params["heads.sem.w"], params["heads.sem.b"])


def bodypart_decoder(grid_tokens: Tensor, params: dict) -> Tensor:
    """Per-grid-cell body-part class logits."""
    return ad.linear(grid_tokens, params["heads.bp.w"], params["heads.bp.b"])


# ---------------------------------------------------------------------------
# losses


def _check_target(pred: Tensor, target):
    """Reject a target that would broadcast against the prediction instead of matching it."""
    if target.shape != pred.shape:
        raise ShapeError(f"target shape {target.shape} does not match prediction shape "
                         f"{pred.shape}")


def loss_mesh(pred_vertices: Tensor, gt_vertices) -> Tensor:
    """Mean squared error over all vertex coordinates."""
    gt = gt_vertices if isinstance(gt_vertices, Tensor) else Tensor(gt_vertices)
    _check_target(pred_vertices, gt)
    diff = ad.sub(pred_vertices, gt)
    return ad.mean(ad.mul(diff, diff))


def loss_contact(probs: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy with probabilities clamped away from {0,1}."""
    y = np.asarray(labels, dtype=np.float64)
    _check_target(probs, y)
    bad = (y != 0.0) & (y != 1.0)  # NaN too: a label of 2 or NaN gave a loss with no error
    if bad.any():
        raise ContractError(f"contact labels must be 0 or 1, got {np.unique(y[bad])}")
    p = ad.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = ad.mul(Tensor(y), ad.log(p))
    neg = ad.mul(Tensor(1.0 - y), ad.log(ad.sub(Tensor(1.0), p)))
    return ad.neg(ad.mean(ad.add(pos, neg)))


def loss_segmentation(logits: Tensor, gt_mask) -> Tensor:
    """Mean per-cell cross-entropy against integer class ids."""
    labels = np.asarray(gt_mask).reshape(-1)  # gather_rows rejects non-integer labels
    picked = ad.gather_rows(ad.log_softmax(logits), labels)
    return ad.neg(ad.mean(picked))


def aggregate_losses(breakdown: LossBreakdown, weights: LossWeights) -> Tensor:
    """Weighted sum of the five loss terms, paired by field order of the two dataclasses."""
    total = None
    for w_field, l_field in zip(fields(weights), fields(breakdown), strict=True):
        name = l_field.name
        term = getattr(breakdown, name)
        v = term.item()
        if not np.isfinite(v):
            raise NumericsError(f"loss component {name} is not finite: {v}")
        if v < 0:
            raise ContractError(f"loss component {name} is negative: {v}")
        piece = ad.mul(Tensor(getattr(weights, w_field.name)), term)
        total = piece if total is None else ad.add(total, piece)
    return total
