"""Autodiff core, and the ops ``oracles`` composes from it: each op
checked against central finite differences, plus tape semantics
(accumulation, reuse errors, determinism) and ``oracles.grad_check``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grad_check, sigmoid, slice_rows, tanh, tsum, zero_grads
from metatagger import tensor as T


def fd_grad(f, param, eps=1e-6):
    """Finite-difference gradient of scalar f() wrt every entry of param."""
    out = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(f().data)
        flat[i] = orig - eps
        down = float(f().data)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return out


def backward_of(f, params):
    zero_grads([("p", p) for p in params])
    with T.Graph() as g:
        loss = f()
    g.backward(loss)


def assert_matches_fd(f, params, tol=1e-7):
    backward_of(f, params)
    for p in params:
        num = fd_grad(f, p)
        ana = p.grad if p.grad is not None else np.zeros_like(p.data)
        np.testing.assert_allclose(ana, num, rtol=1e-5, atol=tol)


rng = np.random.default_rng(7)


def rt(*shape):
    return T.Tensor(rng.normal(size=shape), requires_grad=True)


class TestOpGradients:
    def test_matmul_2d_2d(self):
        a, b = rt(3, 4), rt(4, 2)
        assert_matches_fd(lambda: tsum(T.matmul(a, b)), [a, b])

    def test_add_same_shape(self):
        a, b = rt(3, 4), rt(3, 4)
        assert_matches_fd(lambda: tsum(T.mul(T.add(a, b), a)), [a, b])

    def test_add_bias_broadcast(self):
        a, b = rt(5, 3), rt(3)
        assert_matches_fd(lambda: tsum(tanh(T.add(a, b))), [a, b])

    def test_mul(self):
        a, b = rt(2, 6), rt(2, 6)
        assert_matches_fd(lambda: tsum(T.mul(a, b)), [a, b])

    def test_concat_axis0_and_1(self):
        a, b = rt(2, 3), rt(4, 3)
        assert_matches_fd(lambda: tsum(T.concat([a, b], axis=0)), [a, b])
        c, d = rt(2, 3), rt(2, 5)
        assert_matches_fd(
            lambda: tsum(sigmoid(T.concat([c, d], axis=1))), [c, d])

    def test_sigmoid_tanh_elu(self):
        a = rt(3, 5)
        assert_matches_fd(lambda: tsum(sigmoid(a)), [a])
        assert_matches_fd(lambda: tsum(tanh(a)), [a])
        b = T.Tensor(rng.normal(size=(4, 4)) * 2, requires_grad=True)
        assert_matches_fd(lambda: tsum(T.elu(b)), [b])

    def test_slice_rows(self):
        a = rt(6, 3)
        assert_matches_fd(lambda: tsum(slice_rows(a, 1, 4)), [a])

    def test_take_rows_with_repeats(self):
        a = rt(5, 3)
        ids = [0, 2, 2, 4, 2]
        assert_matches_fd(lambda: tsum(T.mul(T.take_rows(a, ids),
                                             T.take_rows(a, ids))), [a])

    def test_reshape(self):
        a = rt(3, 4)
        assert_matches_fd(lambda: tsum(sigmoid(T.reshape(a, (2, 6)))), [a])

    def test_deep_composition(self):
        w1, b1, w2 = rt(4, 8), rt(8), rt(8, 1)
        x = T.Tensor(rng.normal(size=(5, 4)))
        assert_matches_fd(
            lambda: tsum(T.matmul(T.elu(T.add(T.matmul(x, w1), b1)), w2)),
            [w1, b1, w2])


class TestAccumulation:
    def test_shared_input_accumulates(self):
        # y = sum(a*a) via two separate uses of a: grad must be 2a, not a.
        a = rt(3, 3)
        backward_of(lambda: tsum(T.mul(a, a)), [a])
        np.testing.assert_allclose(a.grad, 2 * a.data)

    def test_duplication_oracle(self):
        # Using a twice in a sum doubles its gradient exactly.
        a = rt(4)
        backward_of(lambda: tsum(T.concat([a, a], axis=0)), [a])
        np.testing.assert_allclose(a.grad, np.full(4, 2.0))

    def test_grads_persist_across_graphs(self):
        a = rt(2)
        backward_of(lambda: tsum(a), [a])
        with T.Graph() as g:
            loss = tsum(a)
        g.backward(loss)
        np.testing.assert_allclose(a.grad, np.full(2, 2.0))

    def test_zero_grads(self):
        a = rt(2)
        backward_of(lambda: tsum(a), [a])
        zero_grads([("a", a)])
        assert a.grad is None


class TestGraphSemantics:
    def test_backward_twice_raises(self):
        a = rt(2)
        with T.Graph() as g:
            loss = tsum(a)
        g.backward(loss)
        with pytest.raises(T.GraphError):
            g.backward(loss)

    def test_non_scalar_loss_raises(self):
        a = rt(2, 2)
        with T.Graph() as g:
            y = sigmoid(a)
        with pytest.raises(T.GraphError):
            g.backward(y)

    def test_no_graph_means_no_tape(self):
        a = rt(2)
        y = tsum(a)  # outside any Graph
        assert not y.requires_grad

    def test_detach_blocks_gradient(self):
        a = rt(3)
        backward_of(lambda: tsum(T.mul(a.detach(), a.detach())), [a])
        assert a.grad is None

    def test_detach_shares_values(self):
        a = rt(3)
        d = a.detach()
        a.data[0] = 42.0
        assert d.data[0] == 42.0

    def test_constant_inputs_not_tracked(self):
        a = T.Tensor(np.ones((2, 2)))
        b = T.Tensor(np.ones((2, 2)))
        with T.Graph() as g:
            T.mul(a, b)
        assert g.nodes == []


class TestShapeErrors:
    def test_matmul_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(rt(2, 3), rt(4, 2))

    def test_matmul_rejects_1d_operands(self):
        for a, b in ((rt(4), rt(4, 3)), (rt(3, 4), rt(4)), (rt(4), rt(4))):
            with pytest.raises(T.ShapeError, match="ranks"):
                T.matmul(a, b)

    def test_add_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.add(rt(2, 3), rt(3, 2))

    def test_mul_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.mul(rt(2, 3), rt(2, 4))

    def test_concat_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.concat([rt(2, 3), rt(2, 4)], axis=0)

    def test_slice_out_of_range(self):
        with pytest.raises(T.ShapeError):
            slice_rows(rt(3, 2), 1, 5)

    def test_take_rows_out_of_range(self):
        with pytest.raises(IndexError):
            T.take_rows(rt(3, 2), [0, 3])


class TestCreate:
    def test_zeros(self):
        t = T.create((3, 4))
        assert t.shape == (3, 4)
        assert not t.data.any()

    def test_gaussian_moments(self):
        t = T.create((1000,), init="gaussian", rng=np.random.default_rng(123))
        assert abs(t.data.mean()) < 0.1
        assert 0.85 < t.data.var(ddof=1) < 1.15

    def test_gaussian_scaled(self):
        t = T.create((2000,), init="gaussian", std=0.1,
                     rng=np.random.default_rng(5))
        assert 0.005 < t.data.var(ddof=1) < 0.015

    def test_bad_init_name(self):
        with pytest.raises(ValueError):
            T.create((2,), init="uniform")

    def test_gaussian_needs_an_rng(self):
        with pytest.raises(ValueError, match="rng"):
            T.create((2,), init="gaussian")

    def test_seeded_determinism(self):
        a = T.create((50,), init="gaussian", rng=np.random.default_rng(99))
        b = T.create((50,), init="gaussian", rng=np.random.default_rng(99))
        assert np.array_equal(a.data, b.data)


class TestGradCheck:
    def test_passes_on_correct_graph(self):
        w = rt(3, 3)
        b = rt(3)
        x = T.Tensor(rng.normal(size=(4, 3)))
        err = grad_check(lambda: tsum(tanh(T.add(T.matmul(x, w), b))),
                           [("w", w), ("b", b)])
        assert err < 1e-7

    def test_catches_wrong_backward(self):
        a = rt(3)

        def bad_square(t):
            return T.record("bad", (t,), t.data ** 2, lambda g: (g,))  # wrong bwd

        err = grad_check(lambda: tsum(bad_square(a)), [("a", a)])
        assert err > 1e-2

    def test_nonfinite_raises_with_name(self):
        a = rt(2)

        def nan_op(t):
            return T.record("nan", (t,), t.data,
                            lambda g: (np.full_like(g, np.nan),))

        with pytest.raises(T.NonFiniteError, match="a"):
            grad_check(lambda: tsum(nan_op(a)), [("a", a)])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 31 - 1))
def test_matmul_grad_property(n, k, m, seed):
    g = np.random.default_rng(seed)
    a = T.Tensor(g.normal(size=(n, k)), requires_grad=True)
    b = T.Tensor(g.normal(size=(k, m)), requires_grad=True)
    backward_of(lambda: tsum(T.matmul(a, b)), [a, b])
    # closed form: d sum(AB) / dA = 1 B^T, / dB = A^T 1
    ones = np.ones((n, m))
    np.testing.assert_allclose(a.grad, ones @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ ones)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-800, 800), min_size=1, max_size=20))
def test_sigmoid_stable_and_bounded(xs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        y = sigmoid(T.Tensor(xs))
    assert np.all(y.data >= 0) and np.all(y.data <= 1)
    assert np.all(np.isfinite(y.data))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_backward_is_deterministic(seed):
    g = np.random.default_rng(seed)
    w = T.Tensor(g.normal(size=(4, 4)), requires_grad=True)
    x = T.Tensor(g.normal(size=(3, 4)))

    def run():
        zero_grads([("w", w)])
        with T.Graph() as gr:
            loss = tsum(T.elu(T.matmul(x, w)))
        gr.backward(loss)
        return w.grad.copy()

    assert np.array_equal(run(), run())


class TestNoGrad:
    def test_records_nothing_inside_a_graph(self):
        w = rt(2, 2)
        with T.Graph() as g:
            with T.no_grad():
                y = tanh(w)
            z = tsum(tanh(w))
        assert not y.requires_grad
        assert [n.op for n in g.nodes] == ["tanh", "sum"]
        assert z.requires_grad

    def test_graph_inside_no_grad_records(self):
        w = rt(2)
        with T.no_grad():
            with T.Graph() as g:
                loss = tsum(w)
            g.backward(loss)
        np.testing.assert_array_equal(w.grad, [1.0, 1.0])
        assert T.active_graph() is None
