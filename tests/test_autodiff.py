import copy
import gc
import hashlib
import inspect
import itertools
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
    tq, d = q.shape
    dh = d // heads
    scale = 1.0 / np.sqrt(dh) if scale is None else scale

    def split(x, axes=(1, 0, 2)):  # (T, D) -> (heads, T, dh), or (heads, dh, T) for K
        return ad.transpose(ad.reshape(x, (x.shape[0], heads, dh)), axes)

    scores = ad.mul(ad.matmul(split(q), split(k, (1, 2, 0))), ad.Tensor(scale))
    ctx = ad.matmul(ad.softmax(scores), split(v))
    return ad.reshape(ad.transpose(ctx, (1, 0, 2)), (tq, d))


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


def saved_exps_attention(q, k, v, heads, g, flags):
    """attention's output and (gq, gk, gv) as it computed them when its tape kept the exps.

    Arrays in, arrays out; `flags` says which of q, k and v require grad.
    """
    (tq, d), tk = q.shape, k.shape[0]
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    qh = (q * scale).reshape(tq, heads, dh).transpose(1, 0, 2)
    kt = np.ascontiguousarray(k.reshape(tk, heads, dh).transpose(1, 2, 0))
    vh = v.reshape(tk, heads, dh).transpose(1, 0, 2)
    ones = np.ones((tk, 1))
    e = qh @ kt
    e -= e.max(axis=(1, 2))[:, None, None]
    np.exp(e, out=e)
    s = e @ ones
    if (s < ad._SAFE_ROW_SUM).any():
        e = qh @ kt
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        s = e @ ones
    ctx = e @ vh
    ctx /= s
    out = ctx.transpose(1, 0, 2).reshape(tq, d)
    ctx = out.reshape(tq, heads, dh).transpose(1, 0, 2)
    q_rg, k_rg, v_rg = flags
    gc = g.reshape(tq, heads, dh).transpose(1, 0, 2) / s
    gv = np.swapaxes(e, -1, -2) @ gc if v_rg else None
    gs = gc @ np.ascontiguousarray(np.swapaxes(vh, -1, -2))
    gs -= (gc * ctx).sum(axis=-1, keepdims=True)
    gs *= e
    gq = None
    if q_rg:
        gq = gs @ k.reshape(tk, heads, dh).transpose(1, 0, 2)
        gq *= scale
    gk = np.swapaxes(gs, -1, -2) @ qh if k_rg else None
    return out, tuple(x.transpose(1, 0, 2).reshape(t, d) if x is not None else None
                      for x, t in ((gq, tq), (gk, tk), (gv, tk)))


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

    @pytest.mark.parametrize("shapes", [((2, 3), (3, 4), (3,)), ((2, 3), (3, 4), (1,)),
                                        ((2, 3), (2, 4), (4,)), ((3,), (3, 4), (4,))],
                             ids=["bias-width", "bias-broadcast", "inner", "1-d-x"])
    def test_shape_mismatch_rejected(self, shapes):
        x, w, b = (ad.Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(x, w, b)


# (heads, query rows, key rows, width): self-attention, then fewer and more queries than keys.
_ATTENTION_CASES = [(1, 1, 1, 4), (1, 5, 5, 4), (2, 1, 1, 4), (2, 5, 5, 4), (4, 1, 1, 4),
                    (4, 5, 5, 4), (4, 122, 122, 32),
                    (4, 1, 5, 32), (4, 98, 122, 32), (2, 5, 3, 4)]


class TestAttention:
    @pytest.mark.parametrize(
        "heads, tq, tk, d", _ATTENTION_CASES,
        ids=[f"{h}-{tq}-{d}" if tq == tk else f"{h}-{tq}x{tk}-{d}"
             for h, tq, tk, d in _ATTENTION_CASES])
    def test_matches_composed_ops_within_tolerance(self, heads, tq, tk, d):
        params = _leaves(30 + tq, q=(tq, d), k=(tk, d), v=(tk, d))
        probe = np.random.default_rng(31).normal(size=(tq, d))
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

    @pytest.mark.parametrize("heads, tq, tk, d", [(1, 5, 5, 4), (2, 3, 5, 4), (4, 98, 122, 32)],
                             ids=["1-5-4", "2-3x5-4", "4-98x122-32"])
    def test_shifting_every_key_by_one_vector_changes_nothing(self, heads, tq, tk, d):
        # k + c adds q . c to every score of a query row; the softmax cancels it, so a key
        # bias is dead and the keys' gradient sums to zero over rows. With one key row that
        # gradient is all rounding, so every case has several.
        params = _leaves(60 + tq, q=(tq, d), k=(tk, d), v=(tk, d))
        q, k, v = (params[n] for n in "qkv")
        c = 3.0 * np.random.default_rng(61).normal(size=d)
        shifted = ad.attention(q, ad.Tensor(k.data + c), v, heads).data
        qh = q.data.reshape(tq, heads, -1).transpose(1, 0, 2)
        kh = (k.data + c).reshape(tk, heads, -1).transpose(1, 2, 0)
        largest = np.abs(qh @ kh).max() / np.sqrt(d // heads)
        assert _within_attention_tolerance(shifted, ad.attention(q, k, v, heads).data, largest)
        probe = np.random.default_rng(62).normal(size=(tq, d))
        gk = _forward_and_grads(lambda p: ad.attention(p["q"], p["k"], p["v"], heads),
                                params, probe)[1]["k"]
        bound = 1e-13 * np.abs(q.data).max() * np.abs(gk).max() * tq
        assert np.abs(gk.sum(axis=0)).max() <= bound

    @pytest.mark.parametrize("t", [1, 5])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradient(self, heads, t):
        params = _leaves(40 + t, q=(t, 4), k=(t, 4), v=(t, 4))
        probe = np.random.default_rng(41).normal(size=(t, 4))

        def f(p):
            out = ad.attention(p["q"], p["k"], p["v"], heads)
            return ad.sum_(ad.mul(out, ad.Tensor(probe)))

        report = ad.gradient_check(f, params)
        assert report.passed, f"attention heads={heads} T={t}: {report}"

    @pytest.mark.parametrize("case", ["7x8", "fallback", "q3-kv5"])
    def test_gradient_check(self, case):
        if case == "7x8":
            params = _leaves(43, q=(7, 8), k=(7, 8), v=(7, 8))
        elif case == "q3-kv5":
            params = _leaves(47, q=(3, 4), k=(5, 4), v=(5, 4))
        else:  # the per-row redo, which uniform draws never reach
            params = {n: ad.Tensor(a, requires_grad=True, name=n)
                      for n, a in zip("qkv", _fallback_qkv(44))}
        probe = np.random.default_rng(45).normal(size=params["q"].shape)

        def f(p):
            return ad.sum_(ad.mul(ad.attention(p["q"], p["k"], p["v"], 2), ad.Tensor(probe)))

        report = ad.gradient_check(f, params)
        assert report.passed, f"attention {case}: {report}"

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

    @pytest.mark.parametrize("flags", [f for f in itertools.product((False, True), repeat=3)
                                       if any(f)],
                             ids=lambda f: "".join("TF"[not x] for x in f))
    @pytest.mark.parametrize("case", ["4-122-32", "4-98x122-32", "fallback", "fallback-3x4"])
    def test_rebuilt_exps_match_the_saved_exps_bit_for_bit(self, case, flags):
        if case.startswith("fallback"):  # every head's own max leaves a row's exps at 0
            heads, (q, k, v) = 2, _fallback_qkv(48)
            q = q[:3] if case == "fallback-3x4" else q
            scores = q[:, :2] @ k[:, :2].T / np.sqrt(2.0)
            assert np.exp(scores - scores.max()).sum(axis=-1).min() < ad._SAFE_ROW_SUM
        else:
            tq, tk = (122, 122) if case == "4-122-32" else (98, 122)
            rng = np.random.default_rng([70, tq])
            heads, (q, k, v) = 4, (2.0 * rng.normal(size=(t, 32)) for t in (tq, tk, tk))
        g = np.random.default_rng(71).normal(size=q.shape)
        inputs = [ad.Tensor(a, requires_grad=rg) for a, rg in zip((q, k, v), flags)]
        with ad.tape_scope() as tape:
            out = ad.attention(*inputs, heads)
            grads = tape.entries[-1].backward_fn(g)
        ref_out, ref_grads = saved_exps_attention(q, k, v, heads, g, flags)
        assert out.data.tobytes() == ref_out.tobytes()
        for name, got, ref in zip("qkv", grads, ref_grads):
            assert (got is None) == (ref is None), name
            if ref is not None:
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name

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

    @pytest.mark.parametrize("tq, tk", [(0, 3), (3, 0)], ids=["no-queries", "no-keys"])
    def test_empty_query_or_key_rows_rejected(self, tq, tk):
        kv = ad.Tensor(np.zeros((tk, 4)))
        with pytest.raises(ContractError, match=rf"empty axis of shape \(2, {tq}, {tk}\)"):
            ad.attention(ad.Tensor(np.zeros((tq, 4))), kv, kv, 2)

    @pytest.mark.parametrize("shapes,heads", [
        (((3, 4), (2, 4), (3, 4)), 2),
        (((3, 4), (3, 4), (3, 2)), 2),
        (((4,), (4,), (4,)), 1),
        (((3, 4), (3, 4), (3, 4)), 3),
        (((3, 4), (3, 4), (3, 4)), 0),
        (((3, 2), (3, 4), (3, 4)), 2),
    ], ids=["k-rows", "v-width", "1-d", "heads-3-of-4", "heads-0", "q-width"])
    def test_shape_mismatch_rejected(self, shapes, heads):
        q, k, v = (ad.Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError):
            ad.attention(q, k, v, heads)


class TestNarrow:
    def test_negative_length_rejected(self):
        with pytest.raises(ShapeError, match=r"narrow \[2:1\)"):
            ad.narrow(ad.Tensor(np.zeros((4, 3))), 0, 2, -1)


class TestShapeErrors:
    """Malformed operands raise ShapeError or ContractError, naming the shapes where they apply."""

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

    # narrow read a bool as 0 or 1 in silence (True as axis 1, or as start row 1); every
    # other case leaked numpy's TypeError.
    @pytest.mark.parametrize("call, error", [
        (lambda x: ad.narrow(x, True, 0, 2), ContractError),
        (lambda x: ad.narrow(x, 0, True, 2), ContractError),
        (lambda x: ad.narrow(x, 1.0, 0, 2), ContractError),
        (lambda x: ad.narrow(x, 0, 0, 2.0), ContractError),
        (lambda x: ad.attention(x, x, x, 2.0), ContractError),
        (lambda x: ad.attention(x, x, x, True), ContractError),
        (lambda x: ad.concat([x, x], axis=1.5), ShapeError),
        (lambda x: ad.concat([x, x], axis=True), ShapeError),
        (lambda x: ad.mean(x, axis=1.5), ShapeError),
        (lambda x: ad.mean(x, axis=True), ShapeError),
        (lambda x: ad.mean(x, axis=(0, 1)), ShapeError),  # one axis or all, not a tuple
        (lambda x: ad.transpose(x, (1.0, 0.0)), ShapeError),
        (lambda x: ad.transpose(x, None), ShapeError),
        (lambda x: ad.transpose(x, 5), ShapeError),
        (lambda x: ad.reshape(x, (True, 12)), ShapeError),
        (lambda x: ad.reshape(x, (1.0, 12)), ShapeError),
    ], ids=["narrow-bool-axis", "narrow-bool-start", "narrow-float-axis", "narrow-float-length",
            "attention-float-heads", "attention-bool-heads", "concat-float-axis",
            "concat-bool-axis", "mean-float-axis", "mean-bool-axis", "mean-tuple-axis",
            "transpose-float-axes", "transpose-none-axes", "transpose-int-axes",
            "reshape-bool-extent", "reshape-float-extent"])
    def test_non_integer_argument_rejected(self, call, error):
        with pytest.raises(error):
            call(ad.Tensor(np.zeros((3, 4))))

    @pytest.mark.parametrize("call, error, message", [
        (lambda: ad.Tensor(np.zeros(2)).item(), ContractError,
         r"non-scalar tensor of shape \(2,\)"),
        (lambda: ad.matmul(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros((3, 2)))), ShapeError,
         r">=2-D operands, got \(3,\) @ \(3, 2\)"),
        (lambda: ad.concat([]), ContractError, "concat of an empty tensor list"),
        (lambda: ad.gather_rows(ad.Tensor(np.zeros((3, 2))), np.array([0, 1])), ShapeError,
         r"n indices, got \(3, 2\), \(2,\)"),
        (lambda: ad.conv2d(ad.Tensor(np.zeros((4, 4))), ad.Tensor(np.zeros((2, 1, 2, 2))),
                           ad.Tensor(np.zeros(2))), ShapeError, r"x \[C,H,W\] .*got \(4, 4\)"),
        (lambda: ad.conv2d(ad.Tensor(np.zeros((3, 4, 4))), ad.Tensor(np.zeros((2, 1, 2, 2))),
                           ad.Tensor(np.zeros(2))), ShapeError,
         r"channel mismatch: x \(3, 4, 4\) vs w \(2, 1, 2, 2\)"),
    ], ids=["item-of-a-vector", "matmul-1-d", "concat-nothing", "gather-rows-count",
            "conv2d-2-d", "conv2d-channels"])
    def test_operand_of_another_rank_or_count(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestGatherRows:
    @pytest.mark.parametrize("indices", [np.array([0.9, 2.7]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_non_integer_indices_rejected(self, indices):
        # The int64 cast read [0.9, 2.7] as columns 0 and 2, and bools as 0 and 1.
        with pytest.raises(ContractError, match="must be integers"):
            ad.gather_rows(ad.Tensor(np.zeros((2, 3))), indices)


class TestTensor:
    @pytest.mark.parametrize("tensor, text", [
        (ad.Tensor(np.zeros((2, 3)), requires_grad=True, name="enc.w"),
         "Tensor(shape=(2, 3), requires_grad=True, name='enc.w')"),
        (ad.Tensor(1.0), "Tensor(shape=(), requires_grad=False)"),
    ], ids=["named", "unnamed"])
    def test_repr_gives_shape_flag_and_label(self, tensor, text):
        assert repr(tensor) == text


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


def test_gelu_gradient_bytes_match_its_chain_from_the_input():
    """gelu's gradient is, bit for bit, the chain (-x/2) * x -> exp -> * 1/sqrt(2 pi) -> * x
    -> + Phi(x) -> * g, evaluated in that order from x and the CDF."""
    rng = np.random.default_rng(72)
    x = np.concatenate([3.0 * rng.normal(size=998), [0.0, 40.0, -40.0, -0.0]]).reshape(-1, 2)
    g = rng.normal(size=x.shape)
    with ad.tape_scope() as tape:
        ad.gelu(ad.Tensor(x, requires_grad=True))
        (got,) = tape.entries[-1].backward_fn(g)
    cdf = (erf(x * (1.0 / math.sqrt(2.0))) + 1.0) * 0.5
    d = np.exp((-0.5 * x) * x) * (1.0 / math.sqrt(2.0 * math.pi))
    assert got.tobytes() == ((d * x + cdf) * g).tobytes()


# The encoder's widths: token_dim 32 and its MLP hidden of 128, over 122 tokens.
ENCODER_WIDTHS = pytest.mark.parametrize("shape", [(122, 32), (122, 128)],
                                         ids=["122x32", "122x128"])

# The model's broadcasts: tokens with tokens, tokens scaled by a per-token column (dropout,
# masking, routing), a 0-d loss weight, and rows plus a bias.
BROADCAST_SHAPES = [((122, 32), (122, 32)), ((98, 32), (98, 1)), ((), (98, 32)), ((16, 32), (32,))]
# sha256 over the forward output and both input gradients (None where an input does not require
# grad) of every shape pair, with grad on both inputs, then on each one alone; recorded when
# each op had its own copy of the broadcasting rule.
BROADCAST_DIGESTS = {
    "add": "dacb0d5ccd2eca9a7618ef43f592787fc025cf2bf8669658bdd6f6a116218e3d",
    "sub": "51144f00fb998eb20098311db25cd369acdc14574b077aecc5ee9c3e87e61874",
    "mul": "61d02aa334334dace4cb67fdb362604edb7882901fc069320de36dd1afd1d428",
    "div": "da76ccecab59c83335857941b8b42f942f7e4677a66d50d47884aed2f20c6c21",
}


class TestBitsMatchOracles:
    def _run(self, op, params, g):
        with ad.tape_scope():
            out = op(*params.values())
            grads = ad.backward(ad.sum_(ad.mul(out, ad.Tensor(g))), params)
        return (out.data, *(grads[n].data for n in params))

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div], ids=lambda op: op.__name__)
    def test_broadcast_arithmetic_bytes_pinned(self, op):
        rng = np.random.default_rng(25)
        digest = hashlib.sha256()
        for a_shape, b_shape in BROADCAST_SHAPES:
            # Uniform draws, free of any libm call whose last bit may vary by platform;
            # b in [0.5, 1.5) is a safe divisor.
            a_data = rng.random(a_shape) - 0.5
            b_data = rng.random(b_shape) + 0.5
            for a_rg, b_rg in [(True, True), (True, False), (False, True)]:
                a = ad.Tensor(a_data, requires_grad=a_rg)
                b = ad.Tensor(b_data, requires_grad=b_rg)
                with ad.tape_scope() as tape:
                    out = op(a, b)
                    g = rng.random(out.shape) - 0.5
                    grads = tape.entries[-1].backward_fn(g)
                for arr in (out.data, *grads):
                    digest.update(b"none" if arr is None
                                  else repr(arr.shape).encode() + arr.tobytes())
        assert digest.hexdigest() == BROADCAST_DIGESTS[op.__name__]

    @ENCODER_WIDTHS
    def test_layer_norm(self, shape):
        rng = np.random.default_rng([5, shape[1]])
        params = _leaves([6, shape[1]], x=shape, gamma=shape[-1:], beta=shape[-1:])
        g = rng.normal(size=shape)
        got = self._run(ad.layer_norm, params, g)
        expected = layer_norm_oracle(*(p.data for p in params.values()), g)
        for a, e in zip(got, expected):
            assert a.shape == e.shape
            assert np.array_equal(a.view(np.uint64), e.view(np.uint64))

    @ENCODER_WIDTHS
    def test_gelu(self, shape):
        rng = np.random.default_rng([7, shape[1]])
        params = {"x": ad.Tensor(3.0 * rng.normal(size=shape), requires_grad=True)}
        g = rng.normal(size=shape)
        got = self._run(ad.gelu, params, g)
        expected = gelu_oracle(params["x"].data, g)
        for a, e in zip(got, expected):
            assert np.array_equal(a.view(np.uint64), e.view(np.uint64))


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

    def test_no_active_tape_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError, match="backward called with no active tape"):
            ad.backward(ad.sum_(x), {"x": x})

    def test_non_scalar_loss_rejected(self):
        with ad.tape_scope():
            x = ad.Tensor([1.0, 2.0], requires_grad=True, name="x")
            y = ad.mul(x, x)
            with pytest.raises(ContractError):
                ad.backward(y, {"x": x})

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
            except ContractError as err:
                return str(err)
            return None

        raised, garbage = _cyclic_garbage(run)
        assert raised == "hard_threshold has no gradient" and garbage == 0

    def test_backward_drops_closures_and_keeps_entries(self):
        with ad.tape_scope() as tape:
            loss, params = _block_loss()
            before = [(e.op, e.input_ids, e.output_id) for e in tape.entries]
            assert all(e.backward_fn is not None for e in tape.entries)
            ad.backward(loss, params)
            assert [(e.op, e.input_ids, e.output_id) for e in tape.entries] == before
            assert all(e.backward_fn is None for e in tape.entries)

    def test_entry_off_the_loss_path_is_released(self):
        def run(extra):
            with ad.tape_scope() as tape:
                loss, params = _block_loss()
                if extra:  # a tensor the loss does not read, so backward skips its entry
                    ad.exp(next(iter(params.values())))
                grads = ad.backward(loss, params)
                # Read before the scope closes, which would drop the closure anyway.
                return tape.entries[-1].op, tape.entries[-1].backward_fn, grads

        (op, fn, grads), garbage = _cyclic_garbage(lambda: run(True))
        *_, plain = run(False)
        assert garbage == 0
        assert op == "exp" and fn is None
        assert grads.keys() == plain.keys()
        assert all(np.array_equal(grads[k].data, plain[k].data) for k in plain)

    def test_second_backward_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.tape_scope():
            loss = ad.sum_(ad.mul(x, x))
            ad.backward(loss, {"x": x})
            with pytest.raises(ContractError, match="tape already replayed"):
                ad.backward(loss, {"x": x})


# Every primitive, called on tensors of the given shapes. Each row gets the closure and
# tape checks below, every row but transpose the layout check, and every row but
# hard_threshold the gradient and read-only checks.
_PRIMITIVES = {
    "add": (ad.add, [(3, 4), (4,)]),
    "sub": (ad.sub, [(3, 1), (3, 4)]),
    "mul": (ad.mul, [(3, 4), (4,)]),
    "div": (ad.div, [(3, 4), (3, 4)]),
    "neg": (ad.neg, [(3, 4)]),
    "matmul": (ad.matmul, [(2, 3, 4), (2, 4, 5)]),
    "linear": (ad.linear, [(5, 4), (4, 3), (3,)]),
    "attention": (lambda q, k, v: ad.attention(q, k, v, 2), [(5, 4)] * 3),
    "transpose": (lambda a: ad.transpose(a, (1, 0)), [(3, 4)]),
    "reshape": (lambda a: ad.reshape(a, (4, 3)), [(3, 4)]),
    "concat": (lambda a, b: ad.concat([a, b], axis=1), [(3, 2), (3, 1)]),
    "narrow": (lambda a: ad.narrow(a, 1, 1, 2), [(3, 4)]),
    "gather_rows": (lambda a: ad.gather_rows(a, [0, 3, 1]), [(3, 4)]),
    "sum_": (ad.sum_, [(3, 4)]),
    "mean": (lambda a: ad.mean(a, axis=0), [(3, 4)]),
    "softmax": (ad.softmax, [(3, 4)]),
    "log_softmax": (ad.log_softmax, [(3, 4)]),
    "layer_norm": (ad.layer_norm, [(3, 4), (4,), (4,)]),
    "gelu": (ad.gelu, [(3, 4)]),
    "sigmoid": (ad.sigmoid, [(3, 4)]),
    "exp": (ad.exp, [(3, 4)]),
    "log": (ad.log, [(3, 4)]),
    "clip": (lambda x: ad.clip(x, 0.8, 1.5), [(3, 4)]),
    "hard_threshold": (lambda x: ad.hard_threshold(x, 1.0), [(3, 4)]),
    "conv2d": (ad.conv2d, [(2, 4, 6), (3, 2, 2, 2), (3,)]),
}
# Input i's array is kept by the closure exactly when an input named in KEPT_FOR[op][i]
# requires grad, since only those inputs' gradients read it; other inputs' arrays never are.
_KEPT_FOR = {
    "mul": ((1,), (0,)),
    "div": ((1,), (0, 1)),
    "matmul": ((1,), (0,)),
    "linear": ((1,), (0,), ()),
    # The keys and values always: every gradient reads the exps, which the backward rebuilds
    # from the keys and the scaled queries (a copy, so the queries' own array is never kept).
    "attention": ((), (0, 1, 2), (0, 1, 2)),
    "layer_norm": ((), (0,), ()),
    "conv2d": ((), (0,), ()),  # the kernel for the input's gradient; the patches are a copy
    "gelu": ((),),  # its derivative, built in the forward, not its input
    "log": ((0,),),
}
_FLAG_CASES = [
    (op, flags)
    for op, (_, shapes) in _PRIMITIVES.items()
    for flags in itertools.product((False, True), repeat=len(shapes))
    if any(flags)
]
# Forms the model uses that the table's one call per op does not reach.
_MORE_GRADIENT_CASES = {
    **{f"{name}-{form}": (op, shapes)
       for name, op in (("sub", ad.sub), ("div", ad.div))
       for form, shapes in (("row-right", [(3, 4), (4,)]), ("row-left", [(4,), (3, 4)]),
                            ("0d-right", [(3, 4), ()]), ("0d-left", [(), (3, 4)]))},
    "mean-all": (ad.mean, [(3, 4)]),  # the losses' form
    "concat-axis-0": (lambda *ts: ad.concat(list(ts), axis=0), [(2, 3), (1, 3), (3, 3)]),
    "matmul-2-d": (ad.matmul, [(3, 4), (4, 2)]),
    "softmax-1-d": (ad.softmax, [(4,)]),
}
_DIFFERENTIABLE = {op: row for op, row in _PRIMITIVES.items() if op != "hard_threshold"}
_GRADIENT_CASES = {**_DIFFERENTIABLE, **_MORE_GRADIENT_CASES}


def _draws(shapes, seed=3):
    """One array per shape from uniform(0.5, 2.0), which keeps `log` and `div` away from 0."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.5, 2.0, size=s) for s in shapes]


@pytest.mark.parametrize("case", list(_GRADIENT_CASES))
def test_every_primitive_passes_gradient_check(case):
    """backward agrees with central differences on a probed sum of the op's output."""
    f, shapes = _GRADIENT_CASES[case]
    params = {f"x{i}": ad.Tensor(a, requires_grad=True) for i, a in enumerate(_draws(shapes))}
    if case == "clip":  # central differences across a bound would see a kink
        gap = np.abs(params["x0"].data[..., None] - [0.8, 1.5]).min()
        assert gap > 10 * ad.GRADCHECK_STEP
    probe = ad.Tensor(np.random.default_rng(4).normal(size=f(*params.values()).shape))
    report = ad.gradient_check(lambda p: ad.sum_(ad.mul(f(*p.values()), probe)), params)
    assert report.passed, report


@pytest.mark.parametrize("op", list(_PRIMITIVES))
def test_every_primitive_computes_the_same_bits_with_and_without_a_tape(op):
    """Inference runs each op on plain tensors and no tape, training on a tape; gelu, for
    one, branches on which. One entry is recorded exactly when an input requires grad."""
    f, shapes = _PRIMITIVES[op]
    arrays = _draws(shapes)
    plain = f(*(ad.Tensor(a) for a in arrays)).data
    with ad.tape_scope() as tape:
        untracked = f(*(ad.Tensor(a) for a in arrays)).data
        assert not tape.entries
        tracked = f(*(ad.Tensor(a, requires_grad=True) for a in arrays)).data
        assert len(tape.entries) == 1
    assert plain.shape == untracked.shape == tracked.shape
    assert plain.tobytes() == untracked.tobytes() == tracked.tobytes()


def test_in_place_ops_leave_their_inputs_and_gradient_untouched():
    """attention, linear, layer_norm and gelu work in place, softmax and log_softmax did,
    and conv2d copies its output; every primitive writes only into buffers it allocated.
    Each runs forward on read-only inputs, and its backward on a read-only gradient."""
    rng = np.random.default_rng(8)
    for op, (f, shapes) in _DIFFERENTIABLE.items():
        inputs = []
        for a in _draws(shapes, seed=8):
            a.flags.writeable = False
            inputs.append(ad.Tensor(a, requires_grad=True))
        with ad.tape_scope() as tape:
            out = f(*inputs)
            g = rng.normal(size=out.shape)
            g.flags.writeable = False
            grads = tape.entries[-1].backward_fn(g)
        assert [gr.shape for gr in grads] == [t.shape for t in inputs], op


@pytest.mark.parametrize("op", [op for op in _PRIMITIVES if op != "transpose"])
def test_every_primitive_but_transpose_returns_a_row_major_array(op):
    """The module's layout rule: on C-contiguous inputs every output is C-contiguous."""
    f, shapes = _PRIMITIVES[op]
    out = f(*(ad.Tensor(a) for a in _draws(shapes, seed=6)))
    assert out.data.flags.c_contiguous


def _held(fn):
    """Every object the closure of `fn` holds, through nested functions, lists and tuples."""
    todo = [cell.cell_contents for cell in fn.__closure__ or ()]
    while todo:
        obj = todo.pop()
        yield obj
        if isinstance(obj, (list, tuple)):
            todo += obj
        elif inspect.isfunction(obj):
            todo += [cell.cell_contents for cell in obj.__closure__ or ()]


def test_every_primitive_is_in_the_closure_table():
    recorded = {
        name for name, f in vars(ad).items()
        if inspect.isfunction(f) and not name.startswith("_")
        and {"_emit", "_broadcast_op"} & set(f.__code__.co_names)
    }
    assert recorded == set(_PRIMITIVES)


@pytest.mark.parametrize("op, flags", _FLAG_CASES,
                         ids=[f"{op}-{''.join('TF'[not f] for f in flags)}"
                              for op, flags in _FLAG_CASES])
def test_closure_keeps_only_what_its_gradients_read(op, flags):
    """No tensor, so no tape-tensor cycle; an input's array only for a gradient that reads it."""
    f, shapes = _PRIMITIVES[op]
    inputs = [ad.Tensor(a, requires_grad=rg) for a, rg in zip(_draws(shapes), flags)]
    with ad.tape_scope() as tape:
        f(*inputs)
        (entry,) = tape.entries
        held = list(_held(entry.backward_fn))
    assert not [o for o in held if isinstance(o, ad.Tensor)]
    arrays = [o for o in held if isinstance(o, np.ndarray)]
    if op in ("add", "sub"):
        assert not arrays
    for t, readers in zip(inputs, _KEPT_FOR.get(op, ((),) * len(inputs))):
        kept = any(np.may_share_memory(a, t.data) for a in arrays)
        assert kept == any(flags[i] for i in readers), (shapes, flags)


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def kept_bytes(tape, leaves=()):
    """The unique bytes of the arrays the tape's closures keep alive, apart from `leaves`."""
    skip = {id(_root(a)) for a in leaves}
    held = {}
    for entry in tape.entries:
        for obj in _held(entry.backward_fn):
            a = obj.data if isinstance(obj, ad.Tensor) else obj
            if isinstance(a, np.ndarray) and id(_root(a)) not in skip:
                held[id(_root(a))] = _root(a).nbytes
    return sum(held.values())


def test_encoder_block_tape_within_its_memory_budget():
    # The unique array bytes one default block's closures keep alive at 122 tokens. No exps:
    # the attention keeps its row sums (4 x 122 x 1) and per-head shifts (4), and rebuilds
    # the exps from its scaled queries and keys. Ten 122 x 32 arrays: each layer norm's
    # normalized input and output, the attention's scaled queries, keys, values and output,
    # and the graph residual's A @ H and its GELU's derivative; the MLP's GELU derivative
    # and output (122 x 128 each); and the layer norms' row scales.
    budget = 3_904 + 32 + 10 * 31_232 + 2 * 124_928 + 2 * 976
    cfg = encoder.EncoderConfig()
    rng = np.random.default_rng(0)
    params = {k: ad.Tensor(v, requires_grad=True)
              for k, v in encoder.init_encoder_params("enc", cfg, rng).items()}
    tokens = ad.Tensor(rng.normal(size=(122, cfg.token_dim)), requires_grad=True)
    adjacency = np.full((122, 122), 1.0 / 122)
    with ad.tape_scope() as tape:
        encoder.encoder_block(tokens, adjacency, params, "enc.block0", cfg)
        held = kept_bytes(tape, [adjacency, tokens.data, *(p.data for p in params.values())])
    assert held <= budget


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
        with pytest.raises(ContractError, match="hard_threshold has no gradient"):
            ad.gradient_check(f, params)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_at_the_start_rejected(self):
        def f(params):
            return ad.log(params["x"])

        params = {"x": ad.Tensor([-1.0], requires_grad=True, name="x")}
        with pytest.raises(NumericsError, match="non-finite loss at the unperturbed point"):
            ad.gradient_check(f, params)

    @pytest.mark.parametrize("per_param, text", [
        ({"w": 3e-3, "b": 1e-6}, "GradCheckReport(passed=False, max_error=3.000e-03, worst='w')"),
        ({}, "GradCheckReport(passed=True, max_error=0.000e+00, worst='-')"),
    ], ids=["failing", "no-params"])
    def test_report_repr_names_the_worst_parameter(self, per_param, text):
        # What meshbench's gradient check of the wired loss prints when it fails.
        assert repr(ad.GradCheckReport(per_param)) == text

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_names_parameter(self):
        def f(params):
            return ad.log(params["bad"])

        params = {"bad": ad.Tensor([1e-300], requires_grad=True, name="bad")}
        with pytest.raises(NumericsError, match="bad"):
            ad.gradient_check(f, params)


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
