"""Graph transformer encoder blocks and fixed-weight dual-encoder fusion.

Each block applies, in order: layer norm, multi-head self-attention with a
residual connection, a graph-convolution residual over the mesh adjacency,
a second layer norm, and an MLP with a residual connection.  Two
independently initialized encoder stacks consume the same token sequence;
their vertex-token outputs are fused as m_a + FUSION_WEIGHT_B * m_b.

Queries, values and the attention output have biases; keys have none.  A key
bias b_k adds the same q . b_k to every score of a query row, which the
softmax cancels, so no output depends on it (BEiT fixes it at zero likewise).

Only the vertex tokens are read after the encoders, so the last block of
each stack computes only the vertex rows: every token still serves as a key
and a value, but only the vertex tokens are queries, and the graph residual,
layer norm and MLP run on the vertex rows alone.  That is exact up to
rounding: attention, layer norm and the MLP act on each query row on its
own, and `token_adjacency` links no vertex token to an image or joint token.
It rounds differently because the attention's per-head max shift is taken
over fewer rows, and BLAS rounds a product differently by its row count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import TokenLayout, TokenSequence
from .errors import ConfigError, ContractError, ShapeError, check_int_fields
from .mesh import MeshTemplate, coarse_adjacency

# The paper's fixed fusion of the two encoders' vertex tokens: 1.0 * m_a + 0.1 * m_b.
FUSION_WEIGHT_B = 0.1


@dataclass(frozen=True)
class EncoderConfig:
    token_dim: int = 32
    heads: int = 4
    depth: int = 2
    mlp_hidden: int = 128

    def __post_init__(self):
        check_int_fields(self)
        if min(self.token_dim, self.depth, self.mlp_hidden) < 1:
            raise ConfigError(f"token_dim, depth and mlp_hidden must be >= 1, got {self}")
        if self.heads < 1 or self.token_dim % self.heads:
            raise ConfigError(
                f"head count {self.heads} must be >= 1 and divide token_dim {self.token_dim}"
            )


def init_encoder_params(prefix: str, config: EncoderConfig, rng) -> dict:
    """Per block: ln1, attn wq/wk/wv/wo and bq/bv/bo, graph.wg, ln2 and mlp w1/b1/w2/b2."""
    d, h = config.token_dim, config.mlp_hidden
    params = {}
    for b in range(config.depth):
        p = f"{prefix}.block{b}"
        params[f"{p}.ln1.gamma"] = np.ones(d)
        params[f"{p}.ln1.beta"] = np.zeros(d)
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{p}.attn.{name}"] = rng.normal(0.0, np.sqrt(1.0 / d), size=(d, d))
        for name in ("bq", "bv", "bo"):
            params[f"{p}.attn.{name}"] = np.zeros(d)
        params[f"{p}.graph.wg"] = rng.normal(0.0, np.sqrt(1.0 / d), size=(d, d))
        params[f"{p}.ln2.gamma"] = np.ones(d)
        params[f"{p}.ln2.beta"] = np.zeros(d)
        params[f"{p}.mlp.w1"] = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, h))
        params[f"{p}.mlp.b1"] = np.zeros(h)
        params[f"{p}.mlp.w2"] = rng.normal(0.0, np.sqrt(2.0 / h), size=(h, d))
        params[f"{p}.mlp.b2"] = np.zeros(d)
    return params


def token_adjacency(template: MeshTemplate, layout: TokenLayout) -> np.ndarray:
    """Embed the coarse-mesh adjacency into the token graph.

    Vertex tokens mix over the mesh graph; image and joint tokens sit on
    isolated self-loops.  Rows sum to 1.
    """
    if layout.n_vertex != template.v_coarse:
        raise ShapeError(f"layout has {layout.n_vertex} vertex tokens, "
                         f"template {template.v_coarse} coarse vertices")
    t = layout.total
    a = np.eye(t)
    s = layout.vertex_start
    a[s:, s:] = coarse_adjacency(template)
    return a


def _rows_from(x: Tensor, start: int) -> Tensor:
    return ad.narrow(x, 0, start, x.shape[0] - start) if start else x


def mhsa(tokens: Tensor, params: dict, prefix: str, heads: int, start: int = 0) -> Tensor:
    """Multi-head scaled dot-product self-attention with output projection.

    Every token is a key and a value; only the tokens from row `start` on are
    queries, so the output has one row per token from `start` on.  Keys take
    no bias: it would shift each query's scores by one constant, which the
    softmax ignores.
    """
    def project(x, n):
        return ad.linear(x, params[f"{prefix}.attn.w{n}"], params[f"{prefix}.attn.b{n}"])

    q = project(_rows_from(tokens, start), "q")
    k = ad.matmul(tokens, params[f"{prefix}.attn.wk"])
    return project(ad.attention(q, k, project(tokens, "v"), heads), "o")


def graph_residual(tokens: Tensor, adjacency: np.ndarray, wg: Tensor) -> Tensor:
    """H' = GELU(A @ H @ Wg) + H over the fixed token adjacency."""
    if adjacency.shape != (tokens.shape[0], tokens.shape[0]):
        raise ShapeError(
            f"adjacency extent {adjacency.shape} does not match {tokens.shape[0]} tokens"
        )
    mixed = ad.matmul(ad.matmul(Tensor(adjacency), tokens), wg)
    return ad.add(ad.gelu(mixed), tokens)


def encoder_block(tokens: Tensor, adjacency: np.ndarray, params: dict, prefix: str,
                  config: EncoderConfig, start: int = 0) -> Tensor:
    """One block, computed for the rows from `start` on: the first row the caller reads.

    Layer norm 1 and the keys and values take every row; everything after
    them takes rows `start:` only, with the graph residual over
    `adjacency[start:, start:]`.  That drops no term only if no kept row
    mixes with a dropped one, which is checked.
    """
    if start and np.any(adjacency[start:, :start]):
        raise ContractError(
            f"adjacency links rows from {start} on to rows before it; they cannot be dropped"
        )
    x = ad.add(
        _rows_from(tokens, start),
        mhsa(
            ad.layer_norm(tokens, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"]),
            params, prefix, config.heads, start,
        ),
    )
    x = graph_residual(x, adjacency[start:, start:], params[f"{prefix}.graph.wg"])
    h = ad.layer_norm(x, params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"])
    h = ad.gelu(ad.linear(h, params[f"{prefix}.mlp.w1"], params[f"{prefix}.mlp.b1"]))
    h = ad.linear(h, params[f"{prefix}.mlp.w2"], params[f"{prefix}.mlp.b2"])
    return ad.add(x, h)


def dual_encode(sequence: TokenSequence, adjacency: np.ndarray, params: dict,
                config: EncoderConfig):
    """Run both encoder stacks and fuse their vertex tokens.

    The last block of each stack computes only the vertex rows.  Returns
    (fused, m_a, m_b): the fixed-weight combination m_a + FUSION_WEIGHT_B * m_b
    plus the individual per-encoder vertex features, which the per-encoder
    losses consume.
    """
    layout = sequence.layout
    if adjacency.shape[0] != layout.total:
        raise ContractError(
            f"adjacency built for {adjacency.shape[0]} tokens, sequence has {layout.total}"
        )
    vertex = []
    for prefix in ("enc_a", "enc_b"):
        x = sequence.tokens
        for b in range(config.depth):
            start = layout.vertex_start if b == config.depth - 1 else 0
            x = encoder_block(x, adjacency, params, f"{prefix}.block{b}", config, start)
        vertex.append(x)
    m_a, m_b = vertex
    fused = ad.add(m_a, ad.mul(Tensor(FUSION_WEIGHT_B), m_b))
    return fused, m_a, m_b
