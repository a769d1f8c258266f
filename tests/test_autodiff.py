import copy
import gc
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from meshcontact import autodiff as ad
from meshcontact import encoder
from meshcontact.errors import (
    ContractError,
    NonDifferentiableOpError,
    NumericsError,
    ShapeError,
)


def matmul_oracle(a, b):
    """Independent triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self):
        x = ad.Tensor(np.arange(10.0).reshape(2, 5))
        out = ad.matmul(ad.Tensor(np.eye(2)), x)
        assert np.array_equal(out.data, x.data)

    def test_forced_arithmetic(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
        assert np.abs(out.data - matmul_oracle(a, b)).max() <= 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))

    def test_batched(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(4, 5, 2))
        out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
        assert np.allclose(out.data, a @ b, atol=1e-15)


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0]))
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_direct_evaluation(self):
        out = ad.softmax(ad.Tensor([0.0, math.log(2.0)]))
        assert np.abs(out.data - [1.0 / 3.0, 2.0 / 3.0]).max() <= 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_and_normalization(self, xs, c):
        x = np.array(xs)
        s1 = ad.softmax(ad.Tensor(x)).data
        s2 = ad.softmax(ad.Tensor(x + c)).data
        assert abs(s1.sum() - 1.0) <= 1e-12
        assert np.abs(s1 - s2).max() <= 1e-9
        assert (s1 > 0).all()

    def test_nan_rejected(self):
        with pytest.raises(NumericsError):
            ad.softmax(ad.Tensor([0.0, np.nan]))

    @pytest.mark.parametrize("op", [ad.softmax, ad.log_softmax])
    @pytest.mark.parametrize("row", [[np.nan, np.inf], [np.inf, np.nan], [-np.inf, np.nan],
                                     [np.nan, -np.inf, 0.0]])
    def test_nan_beside_infinity_rejected(self, op, row):
        x = np.zeros((3, len(row)))
        x[1] = row
        with pytest.raises(NumericsError, match="contains NaN"):
            op(ad.Tensor(x))

    @pytest.mark.parametrize("op", [ad.softmax, ad.log_softmax])
    @pytest.mark.parametrize("row", [[np.inf, 0.0], [0.0, np.inf, -np.inf], [-np.inf, -np.inf]],
                             ids=["plus_inf", "plus_and_minus_inf", "all_minus_inf"])
    def test_infinite_row_max_rejected(self, op, row):
        x = np.zeros((3, len(row)))
        x[1] = row
        with pytest.raises(NumericsError, match="contains NaN or a row whose max is not finite"):
            op(ad.Tensor(x))

    def test_minus_inf_beside_finite_max(self):
        assert np.array_equal(ad.softmax(ad.Tensor([-np.inf, 0.0])).data, [0.0, 1.0])
        assert np.array_equal(ad.log_softmax(ad.Tensor([-np.inf, 0.0])).data, [-np.inf, 0.0])

    @pytest.mark.parametrize("op", [ad.softmax, ad.log_softmax])
    @pytest.mark.parametrize("x", [np.zeros((2, 0)), np.float64(1.0)], ids=["empty", "0-d"])
    def test_no_axis_rejected(self, op, x):
        with pytest.raises(ContractError, match="along empty axis"):
            op(ad.Tensor(x))


def composed_linear(x, w, b):
    """The affine map as two tape entries, as callers built it before `linear`."""
    return ad.add(ad.matmul(x, w), b)


def composed_attention(q, k, v, heads, scale=None):
    """Attention as split -> matmul -> mul -> softmax -> matmul -> merge entries."""
    t, d = q.shape
    dh = d // heads
    scale = 1.0 / np.sqrt(dh) if scale is None else scale

    def split(x, axes=(1, 0, 2)):  # (T, D) -> (heads, T, dh), or (heads, dh, T) for K
        return ad.transpose(ad.reshape(x, (t, heads, dh)), axes)

    scores = ad.mul(ad.matmul(split(q), split(k, (1, 2, 0))), ad.Tensor(scale))
    ctx = ad.matmul(ad.softmax(scores), split(v))
    return ad.reshape(ad.transpose(ctx, (1, 0, 2)), (t, d))


# The fused attention scales the queries, shifts by a per-head max and normalizes the context,
# so it rounds differently from the composed chain; it must agree within this relative bound.
ATTENTION_TOLERANCE = 1e-13


def _within_attention_tolerance(fused, chain, largest_score=1.0):
    """|fused - chain| <= 1e-13 * max(1, max |chain|) * max(1, largest |score|).

    Both sides round each score to within a few ulps of its size, and the softmax turns
    that into a relative error of the same size, so the bound grows with the largest score.
    """
    bound = ATTENTION_TOLERANCE * max(1.0, np.abs(chain).max()) * max(1.0, largest_score)
    return np.abs(fused - chain).max() <= bound


def _fallback_qkv(seed):
    """[4 x 4] q, k, v for 2 heads whose head 0 has query 0's scores ~1000 above query 1's.

    Shifted by the head's max, query 1's exps all underflow to 0, so only the per-row
    redo gives it a softmax.
    """
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=(4, 4)) for _ in range(3))
    k[:, 0] = 27.0
    q[0, 0], q[1, 0] = 27.0, -27.0
    return q, k, v


def _leaves(seed, **shapes):
    rng = np.random.default_rng(seed)
    return {n: ad.Tensor(rng.normal(size=s), requires_grad=True, name=n) for n, s in shapes.items()}


def _forward_and_grads(f, params, probe):
    with ad.tape_scope() as tape:
        out = f(params)
        grads = ad.backward(ad.sum_(ad.mul(out, ad.Tensor(probe))), params=params)
    return out.data, {n: g.data for n, g in grads.items()}, len(tape.entries)


class TestLinear:
    def test_matches_composed_ops_bit_for_bit(self):
        params = _leaves(20, x=(5, 3), w=(3, 4), b=(4,))
        probe = np.random.default_rng(21).normal(size=(5, 4))
        fused = _forward_and_grads(lambda p: ad.linear(p["x"], p["w"], p["b"]), params, probe)
        chain = _forward_and_grads(lambda p: composed_linear(p["x"], p["w"], p["b"]),
                                   params, probe)
        assert np.array_equal(fused[0], chain[0])
        for name in params:
            assert np.array_equal(fused[1][name], chain[1][name]), name
        assert (fused[2], chain[2]) == (3, 4)  # the probe adds a mul and a sum

    def test_gradient(self):
        params = _leaves(22, x=(4, 3), w=(3, 2), b=(2,))
        probe = np.random.default_rng(23).normal(size=(4, 2))

        def f(p):
            return ad.sum_(ad.mul(ad.linear(p["x"], p["w"], p["b"]), ad.Tensor(probe)))

        _check_primitive("linear", f, params)

    @pytest.mark.parametrize("shapes", [((2, 3), (3, 4), (3,)), ((2, 3), (3, 4), (1,)),
                                        ((2, 3), (2, 4), (4,)), ((3,), (3, 4), (4,))],
                             ids=["bias-width", "bias-broadcast", "inner", "1-d-x"])
    def test_shape_mismatch_rejected(self, shapes):
        x, w, b = (ad.Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(x, w, b)


class TestAttention:
    @pytest.mark.parametrize("heads, t, d", [(1, 1, 4), (1, 5, 4), (2, 1, 4), (2, 5, 4),
                                             (4, 1, 4), (4, 5, 4), (4, 122, 32)])
    def test_matches_composed_ops_within_tolerance(self, heads, t, d):
        params = _leaves(30 + t, q=(t, d), k=(t, d), v=(t, d))
        probe = np.random.default_rng(31).normal(size=(t, d))
        fused = _forward_and_grads(
            lambda p: ad.attention(p["q"], p["k"], p["v"], heads), params, probe)
        chain = _forward_and_grads(
            lambda p: composed_attention(p["q"], p["k"], p["v"], heads), params, probe)
        assert _within_attention_tolerance(fused[0], chain[0])
        for name in params:
            assert _within_attention_tolerance(fused[1][name], chain[1][name]), name
        assert (fused[2], chain[2]) == (3, 14)

    @pytest.mark.parametrize("heads, t, d", [(2, 5, 4), (4, 122, 32)])
    def test_tolerance_rejects_a_perturbed_scale(self, heads, t, d):
        params = _leaves(30 + t, q=(t, d), k=(t, d), v=(t, d))
        fused = ad.attention(params["q"], params["k"], params["v"], heads).data
        scale = (1.0 + 1e-9) / np.sqrt(d // heads)
        chain = composed_attention(params["q"], params["k"], params["v"], heads, scale).data
        assert not _within_attention_tolerance(fused, chain)

    @pytest.mark.parametrize("t", [1, 5])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradient(self, heads, t):
        params = _leaves(40 + t, q=(t, 4), k=(t, 4), v=(t, 4))
        probe = np.random.default_rng(41).normal(size=(t, 4))

        def f(p):
            out = ad.attention(p["q"], p["k"], p["v"], heads)
            return ad.sum_(ad.mul(out, ad.Tensor(probe)))

        _check_primitive(f"attention heads={heads} T={t}", f, params)

    @pytest.mark.parametrize("case", ["7x8", "fallback"])
    def test_gradient_check(self, case):
        if case == "7x8":
            params = _leaves(43, q=(7, 8), k=(7, 8), v=(7, 8))
        else:
            params = {n: ad.Tensor(a, requires_grad=True, name=n)
                      for n, a in zip("qkv", _fallback_qkv(44))}
        probe = np.random.default_rng(45).normal(size=params["q"].shape)

        def f(p):
            return ad.sum_(ad.mul(ad.attention(p["q"], p["k"], p["v"], 2), ad.Tensor(probe)))

        _check_primitive(f"attention {case}", f, params)

    @pytest.mark.parametrize("seed", range(46, 56))
    def test_far_apart_rows_fall_back_to_a_per_row_shift(self, seed):
        q, k, v = _fallback_qkv(seed)
        scores = q[:, :2] @ k[:, :2].T / np.sqrt(2.0)  # head 0
        assert scores[0].max() - scores[1].max() > 1000.0
        assert np.exp(scores - scores.max()).sum(axis=-1).min() < ad._SAFE_ROW_SUM
        params = {n: ad.Tensor(a, requires_grad=True, name=n) for n, a in zip("qkv", (q, k, v))}
        probe = np.random.default_rng(seed).normal(size=(4, 4))
        fused = _forward_and_grads(
            lambda p: ad.attention(p["q"], p["k"], p["v"], 2), params, probe)
        chain = _forward_and_grads(
            lambda p: composed_attention(p["q"], p["k"], p["v"], 2), params, probe)
        assert np.isfinite(fused[0]).all()
        largest = np.abs(scores).max()
        assert _within_attention_tolerance(fused[0], chain[0], largest)
        for name in params:
            assert _within_attention_tolerance(fused[1][name], chain[1][name], largest), name

    def test_gradient_only_where_required(self):
        rng = np.random.default_rng(42)
        q = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True, name="q")
        k, v = ad.Tensor(rng.normal(size=(3, 4))), ad.Tensor(rng.normal(size=(3, 4)))
        grads = []
        for op in (ad.attention, composed_attention):
            with ad.tape_scope():
                loss = ad.sum_(ad.mul(op(q, k, v, 2), v))
                grads.append(ad.backward(loss, {"q": q, "k": k, "v": v}))
        assert _within_attention_tolerance(grads[0]["q"].data, grads[1]["q"].data)
        for g in grads:
            assert not np.array_equal(g["q"].data, np.zeros((3, 4)))
            assert np.array_equal(g["k"].data, np.zeros((3, 4)))
            assert np.array_equal(g["v"].data, np.zeros((3, 4)))

    def test_nan_in_query_rejected(self):
        q = np.zeros((3, 4))
        q[1, 2] = np.nan
        z = ad.Tensor(np.ones((3, 4)))
        with pytest.raises(NumericsError, match="attention input contains NaN"):
            ad.attention(ad.Tensor(q), z, z, 2)

    def test_infinite_score_row_rejected(self):
        q = np.zeros((3, 4))
        q[1, 2] = np.inf  # every score of query 1 in head 1 is +inf
        z = ad.Tensor(np.ones((3, 4)))
        with pytest.raises(NumericsError, match="attention input contains NaN or a row"):
            ad.attention(ad.Tensor(q), z, z, 2)

    def test_minus_inf_score_row_beside_finite_rows_rejected(self):
        q = np.ones((3, 4))
        q[1, 0] = -np.inf  # every score of query 1 in head 0 is -inf; the other rows are finite
        z = ad.Tensor(np.ones((3, 4)))
        with pytest.raises(NumericsError, match="attention input contains NaN or a row"):
            ad.attention(ad.Tensor(q), z, z, 2)

    def test_no_tokens_rejected(self):
        z = ad.Tensor(np.zeros((0, 4)))
        with pytest.raises(ContractError, match="attention along empty axis"):
            ad.attention(z, z, z, 2)

    @pytest.mark.parametrize("shapes,heads", [
        (((3, 4), (2, 4), (3, 4)), 2),
        (((3, 4), (3, 4), (3, 2)), 2),
        (((4,), (4,), (4,)), 1),
        (((3, 4), (3, 4), (3, 4)), 3),
        (((3, 4), (3, 4), (3, 4)), 0),
    ], ids=["k-rows", "v-width", "1-d", "heads-3-of-4", "heads-0"])
    def test_shape_mismatch_rejected(self, shapes, heads):
        q, k, v = (ad.Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError):
            ad.attention(q, k, v, heads)


class TestNarrow:
    def test_negative_length_rejected(self):
        with pytest.raises(ShapeError, match=r"narrow \[2:1\)"):
            ad.narrow(ad.Tensor(np.zeros((4, 3))), 0, 2, -1)


class TestShapeErrors:
    """Shape faults that leaked numpy's bare ValueError raise ShapeError naming the shapes."""

    @pytest.mark.parametrize("shapes, axis, message", [
        (((2, 3), (2, 4)), 0, r"\[\(2, 3\), \(2, 4\)\]"),
        (((2, 3), (4, 2)), 1, r"\[\(2, 3\), \(4, 2\)\]"),
        (((2, 3), (3,)), 0, r"\[\(2, 3\), \(3,\)\]"),
    ], ids=["width", "rows-on-axis-1", "rank"])
    def test_concat_mismatched_extents(self, shapes, axis, message):
        with pytest.raises(ShapeError, match=message):
            ad.concat([ad.Tensor(np.zeros(s)) for s in shapes], axis=axis)

    @pytest.mark.parametrize("new_shape", [(4, 2), (7,), (-1, 4)])
    def test_reshape_to_a_different_size(self, new_shape):
        with pytest.raises(ShapeError, match=r"\(2, 3\) to " + re.escape(str(new_shape))):
            ad.reshape(ad.Tensor(np.zeros((2, 3))), new_shape)

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_elementwise_shapes_that_do_not_broadcast(self, op):
        with pytest.raises(ShapeError, match=rf"{op.__name__} of shapes \(2, 3\) and \(4,\)"):
            op(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones(4)))

    # An out-of-range axis leaked IndexError, TypeError (a tuple axis of mean) or AxisError.
    @pytest.mark.parametrize("call", [
        lambda x: ad.concat([x, x], axis=2),
        lambda x: ad.concat([ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros(3))], axis=1),
        lambda x: ad.narrow(x, 2, 0, 1),
        lambda x: ad.narrow(x, -3, 0, 1),
        lambda x: ad.mean(x, axis=(0, 2)),
    ], ids=["concat", "concat-1-d", "narrow", "narrow-negative", "mean"])
    def test_axis_out_of_range(self, call):
        with pytest.raises(ShapeError, match=r"axis .*\(2, 3\)|\(3,\)"):
            call(ad.Tensor(np.zeros((2, 3))))

    # (3,) leaked numpy's ValueError; (1,) broadcast, and backward gave it a (2,) gradient.
    @pytest.mark.parametrize("b_shape", [(3,), (1,), (2, 1), ()])
    def test_conv2d_bias_of_another_shape(self, b_shape):
        with pytest.raises(ShapeError, match=r"bias of shape \(2,\) .*" + re.escape(str(b_shape))):
            ad.conv2d(ad.Tensor(np.zeros((1, 4, 4))), ad.Tensor(np.zeros((2, 1, 2, 2))),
                      ad.Tensor(np.zeros(b_shape)))

    @pytest.mark.parametrize("axes", [(0,), (0, 0), (0, 2)], ids=["too-few", "repeated",
                                                                  "out-of-range"])
    def test_transpose_by_wrong_axes(self, axes):
        # numpy's ValueError or AxisError leaked.
        with pytest.raises(ShapeError, match=r"\(2, 3\) by axes " + re.escape(str(axes))):
            ad.transpose(ad.Tensor(np.zeros((2, 3))), axes)


class TestGatherRows:
    @pytest.mark.parametrize("indices", [np.array([0.9, 2.7]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_non_integer_indices_rejected(self, indices):
        # The int64 cast read [0.9, 2.7] as columns 0 and 2, and bools as 0 and 1.
        with pytest.raises(ContractError, match="must be integers"):
            ad.gather_rows(ad.Tensor(np.zeros((2, 3))), indices)


class TestMean:
    @pytest.mark.parametrize("axis", [(0, 1), (0, 2), (2,)])
    def test_tuple_axis(self, axis):
        # A tuple axis raised TypeError: the count was shape[axis].
        params = {"x": ad.Tensor(np.random.default_rng(5).normal(size=(2, 3, 4)),
                                 requires_grad=True)}
        out = ad.mean(params["x"], axis=axis)
        assert np.array_equal(out.data, params["x"].data.mean(axis=axis))

        def f(p):
            m = ad.mean(p["x"], axis=axis)
            return ad.sum_(ad.mul(m, m))

        _check_primitive(f"mean axis={axis}", f, params)


class TestLayerNorm:
    def _gb(self, n):
        return ad.Tensor(np.ones(n)), ad.Tensor(np.zeros(n))

    def test_constant_row_zeros(self):
        g, b = self._gb(4)
        out = ad.layer_norm(ad.Tensor([5.0, 5.0, 5.0, 5.0]), g, b)
        assert np.abs(out.data).max() <= 1e-9

    def test_zero_mean(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 9))
        g, b = self._gb(9)
        out = ad.layer_norm(ad.Tensor(x), g, b)
        assert np.abs(out.data.mean(axis=-1)).max() <= 1e-10

    def test_closed_form(self):
        x = np.array([1.0, 2.0, 3.0])
        g, b = self._gb(3)
        out = ad.layer_norm(ad.Tensor(x), g, b)
        expected = (x - 2.0) / math.sqrt(2.0 / 3.0 + ad.LAYER_NORM_EPS)
        assert np.abs(out.data - expected).max() <= 1e-12

    def test_short_axis(self):
        with pytest.raises(ContractError):
            ad.layer_norm(ad.Tensor([1.0]), ad.Tensor([1.0]), ad.Tensor([0.0]))

    def test_0_d_input(self):
        # Leaked IndexError.
        with pytest.raises(ContractError, match=r"got shape \(\)"):
            ad.layer_norm(ad.Tensor(1.0), ad.Tensor([1.0]), ad.Tensor([0.0]))

    # (5,) leaked numpy's ValueError; a (1,) gamma broadcast, and backward gave it a (4,)
    # gradient.
    @pytest.mark.parametrize("gamma_shape, beta_shape", [((5,), (4,)), ((1,), (4,)),
                                                         ((4,), (1,)), ((3, 4), (4,))],
                             ids=["gamma-5", "gamma-1", "beta-1", "gamma-2-d"])
    def test_params_of_another_shape(self, gamma_shape, beta_shape):
        with pytest.raises(ShapeError, match=r"shape \(4,\), got "
                           + re.escape(f"{gamma_shape}, {beta_shape}")):
            ad.layer_norm(ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.ones(gamma_shape)),
                          ad.Tensor(np.zeros(beta_shape)))

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("shape", [(122, 32), (3, 5, 7), (2,)], ids=["122x32", "3x5x7", "2"])
    def test_bits_match_var_formula(self, shape, scale):
        rng = np.random.default_rng([int(np.log10(scale)) + 4, len(shape)])
        x = scale * rng.normal(size=shape) + scale * rng.normal()
        gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + ad.LAYER_NORM_EPS)
        expected = gamma * ((x - mu) * inv) + beta
        out = ad.layer_norm(ad.Tensor(x), ad.Tensor(gamma), ad.Tensor(beta))
        assert np.array_equal(out.data, expected)


def layer_norm_oracle(x, gamma, beta, g):
    """layer_norm's forward and (dx, dgamma, dbeta), in the expressions it computed before it
    worked in place."""
    d = x - x.mean(axis=-1, keepdims=True)
    var = (d * d).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
    xhat = d * inv
    out = gamma * xhat + beta
    dxhat = g * gamma
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    reduce_axes = tuple(range(x.ndim - 1))
    return out, dx, (g * xhat).sum(axis=reduce_axes), g.sum(axis=reduce_axes)


def gelu_oracle(x, g):
    """gelu's forward and gradient, in the expressions it computed before it worked in place."""
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return x * cdf, g * (cdf + x * pdf)


# The encoder's widths: token_dim 32 and its MLP hidden of 128, over 122 tokens.
@pytest.mark.parametrize("shape", [(122, 32), (122, 128)], ids=["122x32", "122x128"])
class TestBitsMatchOracles:
    def _run(self, op, params, g):
        with ad.tape_scope():
            out = op(*params.values())
            grads = ad.backward(ad.sum_(ad.mul(out, ad.Tensor(g))), params)
        return (out.data, *(grads[n].data for n in params))

    def test_layer_norm(self, shape):
        rng = np.random.default_rng([5, shape[1]])
        params = _leaves([6, shape[1]], x=shape, gamma=shape[-1:], beta=shape[-1:])
        g = rng.normal(size=shape)
        got = self._run(ad.layer_norm, params, g)
        expected = layer_norm_oracle(*(p.data for p in params.values()), g)
        for a, e in zip(got, expected):
            assert a.shape == e.shape
            assert np.array_equal(a.view(np.uint64), e.view(np.uint64))

    def test_gelu(self, shape):
        rng = np.random.default_rng([7, shape[1]])
        params = {"x": ad.Tensor(3.0 * rng.normal(size=shape), requires_grad=True)}
        g = rng.normal(size=shape)
        got = self._run(ad.gelu, params, g)
        expected = gelu_oracle(params["x"].data, g)
        for a, e in zip(got, expected):
            assert np.array_equal(a.view(np.uint64), e.view(np.uint64))


def test_in_place_ops_leave_their_inputs_and_gradient_untouched():
    """attention, linear, layer_norm and gelu write only into buffers they allocated: each runs
    forward on read-only inputs, and its backward on a read-only gradient."""
    rng = np.random.default_rng(8)

    def frozen(shape):
        a = rng.normal(size=shape)
        a.flags.writeable = False
        return ad.Tensor(a, requires_grad=True)

    cases = [(lambda q, k, v: ad.attention(q, k, v, 4), [(9, 8)] * 3),
             (ad.linear, [(9, 8), (8, 5), (5,)]),
             (ad.layer_norm, [(9, 8), (8,), (8,)]),
             (ad.gelu, [(9, 8)])]
    for op, shapes in cases:
        inputs = [frozen(s) for s in shapes]
        with ad.tape_scope() as tape:
            out = op(*inputs)
            g = rng.normal(size=out.shape)
            g.flags.writeable = False
            grads = tape.entries[-1].backward_fn(g)
        assert all(gr.shape == t.shape for gr, t in zip(grads, inputs))


class TestBackward:
    def test_square(self):
        with ad.tape_scope():
            x = ad.Tensor(3.0, requires_grad=True, name="x")
            loss = ad.mul(x, x)
            grads = ad.backward(loss, {"x": x})
        assert grads["x"].data == pytest.approx(6.0)

    def test_disconnected_leaf_gets_zeros(self):
        with ad.tape_scope():
            x = ad.Tensor([1.0, 2.0], requires_grad=True, name="x")
            p = ad.Tensor([1.0, 1.0, 1.0], requires_grad=True, name="p")
            loss = ad.sum_(ad.mul(x, x))
            grads = ad.backward(loss, params={"x": x, "p": p})
        assert np.array_equal(grads["p"].data, np.zeros(3))
        assert np.array_equal(grads["x"].data, [2.0, 4.0])

    def test_fanout_accumulates(self):
        with ad.tape_scope():
            x = ad.Tensor(2.0, requires_grad=True, name="x")
            loss = ad.add(ad.mul(x, x), ad.mul(x, ad.Tensor(3.0)))
            grads = ad.backward(loss, {"x": x})
        assert grads["x"].data == pytest.approx(7.0)

    def test_non_scalar_loss_rejected(self):
        with ad.tape_scope():
            x = ad.Tensor([1.0, 2.0], requires_grad=True, name="x")
            y = ad.mul(x, x)
            with pytest.raises(ContractError):
                ad.backward(y, {"x": x})

    def test_softmax_dot_matches_finite_differences(self):
        w = np.array([0.3, -0.7, 1.1, 0.2])

        def f(params):
            s = ad.softmax(params["x"])
            return ad.sum_(ad.mul(s, ad.Tensor(w)))

        params = {"x": ad.Tensor([0.5, -1.0, 2.0, 0.0], requires_grad=True, name="x")}
        report = ad.gradient_check(f, params)
        assert report.passed, report

    def test_determinism(self):
        def run():
            with ad.tape_scope():
                x = ad.Tensor([0.1, 0.2, 0.3], requires_grad=True, name="x")
                h = ad.gelu(ad.mul(x, ad.Tensor([2.0, -1.0, 0.5])))
                loss = ad.sum_(ad.mul(h, h))
                g = ad.backward(loss, {"x": x})["x"].data.copy()
            return loss.data.copy(), g

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)

    def test_leaf_reused_on_a_later_tape(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True, name="x")
        first_id = x.node_id
        for scale in (1.0, 3.0):
            with ad.tape_scope():
                loss = ad.sum_(ad.mul(ad.mul(x, x), ad.Tensor(scale)))
                grads = ad.backward(loss, {"x": x})
            assert np.array_equal(grads["x"].data, 2.0 * scale * x.data)
            assert x.node_id == first_id and x._tape is None  # no tape writes into a leaf

    # Before gradients were keyed by `params`, each of these got zeros under a key: the
    # gradients came back under `Tensor.name`, and the keys were zero-filled.
    def test_unnamed_param(self):
        w = ad.Tensor([1.0, -2.0], requires_grad=True)
        with ad.tape_scope():
            grads = ad.backward(ad.sum_(ad.mul(w, w)), {"w": w})
        assert np.array_equal(grads["w"].data, [2.0, -4.0])

    def test_key_differs_from_name(self):
        w = ad.Tensor([1.0, -2.0], requires_grad=True, name="b")
        with ad.tape_scope():
            grads = ad.backward(ad.sum_(ad.mul(w, w)), {"a": w})
        assert set(grads) == {"a"}
        assert np.array_equal(grads["a"].data, [2.0, -4.0])

    def test_leaves_sharing_a_name(self):
        a = ad.Tensor([1.0, 2.0], requires_grad=True, name="w")
        b = ad.Tensor([3.0, 5.0], requires_grad=True, name="w")
        with ad.tape_scope():
            grads = ad.backward(ad.sum_(ad.mul(a, b)), {"a": a, "b": b})
        assert np.array_equal(grads["a"].data, b.data)
        assert np.array_equal(grads["b"].data, a.data)

    def test_one_leaf_under_two_keys(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.tape_scope():
            grads = ad.backward(ad.sum_(ad.mul(x, x)), {"x": x, "also_x": x})
        assert np.array_equal(grads["x"].data, [2.0, 4.0])
        assert np.array_equal(grads["also_x"].data, [2.0, 4.0])

    def test_op_output_as_param_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True, name="x")
        with ad.tape_scope():
            y = ad.mul(x, x)
            loss = ad.sum_(y)
            with pytest.raises(ContractError, match="'y' is an op output"):
                ad.backward(loss, {"x": x, "y": y})
            # The rejected call did not spend the tape.
            assert np.array_equal(ad.backward(loss, {"x": x})["x"].data, [2.0, 4.0])

    @pytest.mark.parametrize("duplicate", [
        copy.copy,
        copy.deepcopy,
        lambda t: pickle.loads(pickle.dumps(t)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copied_leaf_is_a_new_leaf(self, duplicate):
        # A copy that kept the original's id merged the two gradients: [2, 4] under both keys.
        x = ad.Tensor([1.0, 2.0], requires_grad=True, name="x")
        y = duplicate(x)
        assert y.node_id != x.node_id and y._tape is None
        assert y.requires_grad and y.name == "x" and np.array_equal(y.data, x.data)
        with ad.tape_scope():
            grads = ad.backward(ad.sum_(ad.mul(x, y)), {"x": x, "y": y})
        assert np.array_equal(grads["x"].data, [1.0, 2.0])
        assert np.array_equal(grads["y"].data, [1.0, 2.0])

    def test_leaf_as_loss_rejected(self):
        x = ad.Tensor(2.0, requires_grad=True)
        with ad.tape_scope():
            with pytest.raises(ContractError, match="not on the active tape"):
                ad.backward(x, {"x": x})

    def test_loss_from_a_closed_tape_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.tape_scope():
            loss = ad.sum_(ad.mul(x, x))
        with ad.tape_scope():
            with pytest.raises(ContractError, match="not on the active tape"):
                ad.backward(loss, {"x": x})

    def test_intermediate_from_another_tape_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True, name="x")
        with ad.tape_scope():
            y = ad.mul(x, x)
        with ad.tape_scope():
            with pytest.raises(ContractError, match="different tapes"):
                ad.add(y, x)


_BLOCK = encoder.EncoderConfig(token_dim=8, heads=2, depth=1, mlp_hidden=16)


def _block_loss(threshold=False):
    """A scalar loss through one encoder block under the active tape, and its params."""
    rng = np.random.default_rng(5)
    params = {
        k: ad.Tensor(v, requires_grad=True)
        for k, v in encoder.init_encoder_params("enc", _BLOCK, rng).items()
    }
    tokens = ad.Tensor(rng.normal(size=(6, 8)))
    out = encoder.encoder_block(tokens, np.full((6, 6), 1.0 / 6), params, "enc.block0", _BLOCK)
    if threshold:
        out = ad.mul(ad.hard_threshold(out, 0.0), out)
    return ad.sum_(ad.mul(out, ad.Tensor(rng.normal(size=(6, 8))))), params


def _cyclic_garbage(run):
    """What `run` returns, and the objects it left that only the cyclic collector frees."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run()
        return result, gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestTapeRelease:
    """A tape drops its closures as it is replayed, and whenever its scope closes."""

    def test_backward_leaves_no_cycle(self):
        def run():
            with ad.tape_scope():
                loss, params = _block_loss()
                return ad.backward(loss, params)

        grads, garbage = _cyclic_garbage(run)
        assert garbage == 0
        assert all(g.data.any() for g in grads.values())

    def test_scope_without_backward_leaves_no_cycle(self):
        def run():
            with ad.tape_scope() as tape:
                _block_loss()
            return tape

        tape, garbage = _cyclic_garbage(run)
        assert garbage == 0
        assert tape.entries and all(e.backward_fn is None for e in tape.entries)

    def test_backward_that_raises_leaves_no_cycle(self):
        def run():
            try:
                with ad.tape_scope():
                    loss, params = _block_loss(threshold=True)
                    ad.backward(loss, params)
            except NonDifferentiableOpError:
                return True
            return False

        raised, garbage = _cyclic_garbage(run)
        assert raised and garbage == 0

    def test_backward_drops_closures_and_keeps_entries(self):
        with ad.tape_scope() as tape:
            loss, params = _block_loss()
            before = [(e.op, e.input_ids, e.output_id) for e in tape.entries]
            assert all(e.backward_fn is not None for e in tape.entries)
            ad.backward(loss, params)
            assert [(e.op, e.input_ids, e.output_id) for e in tape.entries] == before
            assert all(e.backward_fn is None for e in tape.entries)

    def test_second_backward_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.tape_scope():
            loss = ad.sum_(ad.mul(x, x))
            ad.backward(loss, {"x": x})
            with pytest.raises(ContractError, match="tape already replayed"):
                ad.backward(loss, {"x": x})


class TestGradientCheck:
    def test_sum_of_squares(self):
        def f(params):
            return ad.sum_(ad.mul(params["x"], params["x"]))

        params = {"x": ad.Tensor(np.arange(1.0, 5.0), requires_grad=True, name="x")}
        report = ad.gradient_check(f, params)
        assert report.passed and report.max_error <= 1e-10

    def test_transposed_parameter(self):
        def f(params):
            return ad.sum_(ad.mul(params["x"], params["x"]))

        x = ad.Tensor(np.arange(6.0).reshape(2, 3).T, requires_grad=True, name="x")
        assert not x.data.flags.c_contiguous  # a reshape of it is a copy
        report = ad.gradient_check(f, {"x": x})
        assert report.passed and report.max_error <= 1e-10
        assert np.array_equal(x.data, np.arange(6.0).reshape(2, 3).T)

    def test_unnamed_param(self):
        # Failed, its analytic gradient all zeros, when gradients were keyed by name.
        def f(params):
            return ad.sum_(ad.mul(params["x"], params["x"]))

        report = ad.gradient_check(f, {"x": ad.Tensor([0.5, -1.5], requires_grad=True)})
        assert report.passed and report.max_error <= 1e-10

    def test_twice_on_the_same_params(self):
        def f(params):
            return ad.sum_(ad.mul(params["x"], params["w"]))

        params = {
            "x": ad.Tensor([0.5, -1.0], requires_grad=True, name="x"),
            "w": ad.Tensor([2.0, 3.0], requires_grad=True, name="w"),
        }
        first = ad.gradient_check(f, params)
        second = ad.gradient_check(f, params)
        assert first.passed and second.passed
        assert first.per_param == second.per_param

    def test_hard_threshold_reports_non_differentiable(self):
        def f(params):
            return ad.sum_(ad.hard_threshold(params["x"], 0.5))

        params = {"x": ad.Tensor([0.2, 0.8], requires_grad=True, name="x")}
        with pytest.raises(NonDifferentiableOpError):
            ad.gradient_check(f, params)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_names_parameter(self):
        def f(params):
            return ad.log(params["bad"])

        params = {"bad": ad.Tensor([1e-300], requires_grad=True, name="bad")}
        with pytest.raises(NumericsError, match="bad"):
            ad.gradient_check(f, params)


def _check_primitive(name, f, params):
    report = ad.gradient_check(f, params)
    assert report.passed, f"{name}: {report}"


class TestEveryPrimitiveGradient:
    """Central-difference checks for each primitive at <= 1e-4 relative error."""

    def _p(self, *arrays):
        rng = np.random.default_rng(7)
        out = {}
        for i, shape in enumerate(arrays):
            out[f"p{i}"] = ad.Tensor(rng.normal(size=shape), requires_grad=True, name=f"p{i}")
        return out

    def test_add_mul_sub_div(self):
        params = self._p((3, 4), (3, 4))

        def f(p):
            a, b = p["p0"], p["p1"]
            c = ad.add(a, b)
            d = ad.mul(c, ad.sub(a, b))
            e = ad.div(d, ad.Tensor(np.full((3, 4), 2.5)))
            return ad.sum_(e)

        _check_primitive("arith", f, params)

    def test_broadcast_add_mul(self):
        params = self._p((3, 4), (4,))

        def f(p):
            return ad.sum_(ad.mul(ad.add(p["p0"], p["p1"]), p["p1"]))

        _check_primitive("broadcast", f, params)

    def test_matmul_grad(self):
        params = self._p((3, 4), (4, 2))

        def f(p):
            return ad.sum_(ad.matmul(p["p0"], p["p1"]))

        _check_primitive("matmul", f, params)

    def test_gelu_sigmoid_exp_log(self):
        params = self._p((5,))

        def f(p):
            x = p["p0"]
            y = ad.gelu(x)
            z = ad.sigmoid(y)
            w = ad.exp(ad.mul(z, ad.Tensor(0.5)))
            return ad.sum_(ad.log(w))

        _check_primitive("nonlin", f, params)

    def test_softmax_logsoftmax(self):
        params = self._p((4, 5))

        def f(p):
            s = ad.softmax(p["p0"])
            ls = ad.log_softmax(p["p0"])
            return ad.add(ad.sum_(ad.mul(s, s)), ad.mean(ls))

        _check_primitive("softmax", f, params)

    def test_layer_norm_grad(self):
        params = self._p((3, 6), (6,), (6,))

        def f(p):
            out = ad.layer_norm(p["p0"], p["p1"], p["p2"])
            return ad.sum_(ad.mul(out, out))

        _check_primitive("layer_norm", f, params)

    def test_concat_narrow_transpose_reshape(self):
        params = self._p((2, 3), (2, 3))

        def f(p):
            c = ad.concat([p["p0"], p["p1"]], axis=0)
            t = ad.transpose(c, (1, 0))
            r = ad.reshape(t, (2, 6))
            n = ad.narrow(r, 1, 1, 4)
            return ad.sum_(ad.mul(n, n))

        _check_primitive("structural", f, params)

    def test_reductions(self):
        params = self._p((4, 3))

        def f(p):
            m = ad.mean(p["p0"], axis=0)
            s = ad.sum_(p["p0"])
            return ad.add(ad.sum_(ad.mul(m, m)), ad.mean(ad.mul(s, s)))

        _check_primitive("reduce", f, params)

    def test_conv2d_grad(self):
        params = self._p((2, 6, 6), (3, 2, 2, 2), (3,))

        def f(p):
            out = ad.conv2d(p["p0"], p["p1"], p["p2"])
            return ad.sum_(ad.mul(out, out))

        _check_primitive("conv2d", f, params)

    def test_clip_gather(self):
        rng = np.random.default_rng(9)
        params = {"x": ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True, name="x")}
        idx = [0, 2, 1, 0]

        def f(p):
            c = ad.clip(p["x"], -0.5, 0.5)
            g = ad.gather_rows(c, idx)
            return ad.sum_(ad.mul(g, g))

        _check_primitive("clip_gather", f, params)


def strided_conv_oracle(x, w, b, g):
    """Forward and (gx, gw, gb) of a valid conv at stride = kernel side, computed as a general
    strided convolution does: a window view, and a per-offset scatter-add into zeros."""
    c, h, wid = x.shape
    o, _, k, _ = w.shape
    ho, wo = h // k, wid // k
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))[:, ::k, ::k]
    cols = win.transpose(1, 2, 0, 3, 4).reshape(ho * wo, c * k * k)
    wflat = w.reshape(o, c * k * k)
    out = (cols @ wflat.T + b).T.reshape(o, ho, wo)
    gflat = g.reshape(o, ho * wo).T
    dcols = (gflat @ wflat).reshape(ho, wo, c, k, k)
    gx = np.zeros((c, h, wid))
    for di in range(k):
        for dj in range(k):
            gx[:, di : di + k * ho : k, dj : dj + k * wo : k] += dcols[:, :, :, di, dj].transpose(
                2, 0, 1)
    return out, gx, (gflat.T @ cols).reshape(w.shape), g.sum(axis=(1, 2))


class TestConv2d:
    def test_matches_direct_loops(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
        expected = np.zeros((3, 2, 2))
        for o in range(3):
            for i in range(2):
                for j in range(2):
                    patch = x[:, 3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                    expected[o, i, j] = (patch * w[o]).sum() + b[o]
        assert np.abs(out - expected).max() <= 1e-12

    # The backbone's two layers at the default config: (3, 64, 64) -> 16 -> 32 channels.
    @pytest.mark.parametrize("x_shape, w_shape", [((3, 64, 64), (16, 3, 4, 4)),
                                                  ((16, 16, 16), (32, 16, 4, 4))])
    def test_bits_match_strided_conv(self, x_shape, w_shape):
        rng = np.random.default_rng(11)
        params = {"x": ad.Tensor(rng.normal(size=x_shape), requires_grad=True),
                  "w": ad.Tensor(rng.normal(size=w_shape), requires_grad=True),
                  "b": ad.Tensor(rng.normal(size=w_shape[0]), requires_grad=True)}
        with ad.tape_scope():
            out = ad.conv2d(params["x"], params["w"], params["b"])
            g = rng.normal(size=out.shape)
            grads = ad.backward(ad.sum_(ad.mul(out, ad.Tensor(g))), params)
        expected = strided_conv_oracle(params["x"].data, params["w"].data, params["b"].data, g)
        got = (out.data, grads["x"].data, grads["w"].data, grads["b"].data)
        for a, e in zip(got, expected):
            assert a.shape == e.shape
            assert np.array_equal(a.view(np.uint64), e.view(np.uint64))

    def test_stride_mismatch(self):
        with pytest.raises(ShapeError):
            ad.conv2d(ad.Tensor(np.zeros((1, 5, 5))), ad.Tensor(np.zeros((1, 1, 2, 2))),
                      ad.Tensor(np.zeros(1)))

    @pytest.mark.parametrize("x_shape, w_shape", [((1, 4, 6), (1, 1, 4, 4)),
                                                  ((1, 4, 4), (1, 1, 2, 4)),
                                                  ((1, 4, 4), (1, 1, 0, 0))],
                             ids=["width-only", "non-square", "empty-kernel"])
    def test_kernel_must_tile_the_input(self, x_shape, w_shape):
        with pytest.raises(ShapeError, match="square kernel whose side divides H and W"):
            ad.conv2d(ad.Tensor(np.zeros(x_shape)), ad.Tensor(np.zeros(w_shape)),
                      ad.Tensor(np.zeros(1)))


class TestSigmoid:
    def test_saturates_without_overflow_warning(self):
        # exp(800) overflowed with a RuntimeWarning, an error under the suite's filterwarnings.
        x = ad.Tensor([-800.0, 0.0, 800.0], requires_grad=True)
        with ad.tape_scope():
            out = ad.sigmoid(x)
            grads = ad.backward(ad.sum_(out), {"x": x})
        assert np.array_equal(out.data, [0.0, 0.5, 1.0])
        assert np.array_equal(grads["x"].data, [0.0, 0.25, 0.0])
