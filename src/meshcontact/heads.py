"""Prediction heads and the weighted multi-task training objective.

Contact: a linear map scores each coarse vertex, the fixed upsampler lifts
the logits to the full mesh, and a sigmoid yields per-vertex contact
probabilities.  Mesh: a linear map regresses coarse vertex offsets from
the rest pose, upsampled to full resolution.  Two per-cell linear decoders
classify the feature grid into scene-semantic and body-part classes.
"""

from __future__ import annotations

import numbers
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
            # bool is a numbers.Real; it is rejected here as in every integer field.
            if (isinstance(w, bool) or not isinstance(w, numbers.Real)
                    or not 0.0 <= w < np.inf):  # NaN fails both range tests
                raise ConfigError(f"LossWeights.{f.name} must be a finite real number >= 0, "
                                  f"got {w!r}")


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
    params = {}
    for head, width in (("contact", 1), ("mesh", 3), ("sem", c_sem), ("bp", c_bp)):
        params[f"heads.{head}.w"] = rng.normal(0.0, scale, size=(token_dim, width))
        params[f"heads.{head}.b"] = np.zeros(width)
    return params


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
    """Mean binary cross-entropy of a contact head's clamped probabilities, taken as given.

    Taken as -mean(log p_true), with p_true = (2y - 1) p + (1 - y) the probability of each
    label.  Labels are exactly 0 or 1, so p_true is exactly p or 1 - p: loss and gradient
    equal the two-log form -mean(y log p + (1 - y) log(1 - p)) bit for bit.
    """
    y = np.asarray(labels, dtype=np.float64)
    _check_target(probs, y)
    bad = (y != 0.0) & (y != 1.0)  # NaN too: p_true is a probability only for labels 0 and 1
    if bad.any():
        raise ContractError(f"contact labels must be 0 or 1, got {np.unique(y[bad])}")
    bad = ~((probs.data > 0.0) & (probs.data < 1.0))  # NaN too; 0 or 1 gives an infinite loss
    if bad.any():
        got = np.unique(probs.data[bad])
        error = ContractError if np.isfinite(got).all() else NumericsError
        raise error(f"contact probabilities must lie strictly inside (0, 1), got {got}")
    p_true = ad.add(ad.mul(Tensor(2.0 * y - 1.0), probs), Tensor(1.0 - y))
    return ad.neg(ad.mean(ad.log(p_true)))


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
