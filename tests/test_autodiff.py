import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshcontact import autodiff as ad
from meshcontact.errors import (
    ConfigError,
    ContractError,
    EvaluationError,
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
        out = ad.softmax(ad.Tensor([0.0, 0.0]), axis=-1)
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_direct_evaluation(self):
        out = ad.softmax(ad.Tensor([0.0, math.log(2.0)]), axis=-1)
        assert np.abs(out.data - [1.0 / 3.0, 2.0 / 3.0]).max() <= 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_and_normalization(self, xs, c):
        x = np.array(xs)
        s1 = ad.softmax(ad.Tensor(x), axis=-1).data
        s2 = ad.softmax(ad.Tensor(x + c), axis=-1).data
        assert abs(s1.sum() - 1.0) <= 1e-12
        assert np.abs(s1 - s2).max() <= 1e-9
        assert (s1 > 0).all()

    def test_nan_rejected(self):
        with pytest.raises(NumericsError):
            ad.softmax(ad.Tensor([0.0, np.nan]), axis=-1)


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
        eps = 1e-5
        x = np.array([1.0, 2.0, 3.0])
        g, b = self._gb(3)
        out = ad.layer_norm(ad.Tensor(x), g, b, eps=eps)
        expected = (x - 2.0) / math.sqrt(2.0 / 3.0 + eps)
        assert np.abs(out.data - expected).max() <= 1e-12

    def test_bad_eps(self):
        g, b = self._gb(3)
        with pytest.raises(ConfigError):
            ad.layer_norm(ad.Tensor([1.0, 2.0, 3.0]), g, b, eps=0.0)

    def test_short_axis(self):
        with pytest.raises(ContractError):
            ad.layer_norm(ad.Tensor([1.0]), ad.Tensor([1.0]), ad.Tensor([0.0]))


class TestBackward:
    def test_square(self):
        with ad.tape_scope():
            x = ad.Tensor(3.0, requires_grad=True, name="x")
            loss = ad.mul(x, x)
            grads = ad.backward(loss)
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
            grads = ad.backward(loss)
        assert grads["x"].data == pytest.approx(7.0)

    def test_non_scalar_loss_rejected(self):
        with ad.tape_scope():
            x = ad.Tensor([1.0, 2.0], requires_grad=True, name="x")
            y = ad.mul(x, x)
            with pytest.raises(ContractError):
                ad.backward(y)

    def test_softmax_dot_matches_finite_differences(self):
        w = np.array([0.3, -0.7, 1.1, 0.2])

        def f(params):
            s = ad.softmax(params["x"], axis=-1)
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
                g = ad.backward(loss)["x"].data.copy()
            return loss.data.copy(), g

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)

    def test_leaf_reused_on_a_later_tape(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True, name="x")
        for scale in (1.0, 3.0):
            with ad.tape_scope():
                loss = ad.sum_(ad.mul(ad.mul(x, x), ad.Tensor(scale)))
                grads = ad.backward(loss)
            assert np.array_equal(grads["x"].data, 2.0 * scale * x.data)

    def test_intermediate_from_another_tape_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True, name="x")
        with ad.tape_scope():
            y = ad.mul(x, x)
        with ad.tape_scope():
            with pytest.raises(ContractError, match="different tapes"):
                ad.add(y, x)


class TestGradientCheck:
    def test_sum_of_squares(self):
        def f(params):
            return ad.sum_(ad.mul(params["x"], params["x"]))

        params = {"x": ad.Tensor(np.arange(1.0, 5.0), requires_grad=True, name="x")}
        report = ad.gradient_check(f, params)
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

    def test_bad_step_size(self):
        def f(params):
            return ad.sum_(params["x"])

        with pytest.raises(ContractError):
            ad.gradient_check(f, {"x": ad.Tensor([1.0], requires_grad=True, name="x")}, h=1e-2)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_names_parameter(self):
        def f(params):
            return ad.log(params["bad"])

        params = {"bad": ad.Tensor([1e-300], requires_grad=True, name="bad")}
        with pytest.raises(EvaluationError, match="bad"):
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
            s = ad.softmax(p["p0"], axis=-1)
            ls = ad.log_softmax(p["p0"], axis=-1)
            return ad.add(ad.sum_(ad.mul(s, s)), ad.mean(ls))

        _check_primitive("softmax", f, params)

    def test_layer_norm_grad(self):
        params = self._p((3, 6), (6,), (6,))

        def f(p):
            out = ad.layer_norm(p["p0"], p["p1"], p["p2"], eps=1e-5)
            return ad.sum_(ad.mul(out, out))

        _check_primitive("layer_norm", f, params)

    def test_concat_narrow_transpose_reshape(self):
        params = self._p((2, 3), (2, 3))

        def f(p):
            c = ad.concat([p["p0"], p["p1"]], axis=0)
            t = ad.transpose(c)
            r = ad.reshape(t, (2, 6))
            n = ad.narrow(r, 1, 1, 4)
            return ad.sum_(ad.mul(n, n))

        _check_primitive("structural", f, params)

    def test_reductions(self):
        params = self._p((4, 3))

        def f(p):
            m = ad.mean(p["p0"], axis=0)
            s = ad.sum_(p["p0"], axis=1, keepdims=True)
            return ad.add(ad.sum_(ad.mul(m, m)), ad.mean(ad.mul(s, s)))

        _check_primitive("reduce", f, params)

    def test_conv2d_grad(self):
        params = self._p((2, 6, 6), (3, 2, 2, 2), (3,))

        def f(p):
            out = ad.conv2d(p["p0"], p["p1"], p["p2"], stride=2)
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


class TestConv2d:
    def test_matches_direct_loops(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), stride=2).data
        expected = np.zeros((3, 2, 2))
        for o in range(3):
            for i in range(2):
                for j in range(2):
                    patch = x[:, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    expected[o, i, j] = (patch * w[o]).sum() + b[o]
        assert np.abs(out - expected).max() <= 1e-12

    def test_stride_mismatch(self):
        with pytest.raises(ShapeError):
            ad.conv2d(ad.Tensor(np.zeros((1, 5, 5))), ad.Tensor(np.zeros((1, 1, 2, 2))), stride=2)
