"""Autodiff core, and the ops ``oracles`` composes from it: each op
checked against central finite differences, plus tape semantics
(accumulation, reuse errors, determinism) and ``oracles.grad_check``."""

import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (grad_check, mul, sigmoid, slice_rows, tanh, tsum,
                     zero_grads)
from metatagger import nn
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
        assert_matches_fd(lambda: tsum(mul(T.add(a, b), a)), [a, b])

    def test_add_bias_broadcast(self):
        a, b = rt(5, 3), rt(3)
        assert_matches_fd(lambda: tsum(tanh(T.add(a, b))), [a, b])

    def test_mul(self):
        a, b = rt(2, 6), rt(2, 6)
        assert_matches_fd(lambda: tsum(mul(a, b)), [a, b])

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
        assert_matches_fd(lambda: tsum(mul(T.take_rows(a, ids),
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
        backward_of(lambda: tsum(mul(a, a)), [a])
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

    def test_backward_releases_what_only_a_closure_held(self):
        a = rt(3)

        def scaled(x):
            saved = np.full(x.shape, 2.0)  # held by the closure alone

            def bwd(grad):
                return (grad * saved,)
            return T.record("scaled", (x,), x.data * 2.0, bwd), \
                weakref.ref(saved)

        with T.Graph() as g:
            y, saved = scaled(a)
            loss = tsum(y)
        assert saved() is not None
        g.backward(loss)
        assert saved() is None
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        # the nodes, their outputs and the outputs' gradients stay
        assert [node.op for node in g.nodes] == ["scaled", "sum"]
        assert all(node.output.grad is not None for node in g.nodes)
        with pytest.raises(T.GraphError):
            g.backward(loss)

    def test_backward_drops_a_gradient_no_input_takes_before_the_next_node(
            self):
        """A gradient a node returns for an input that takes none is
        already dead when the next node's backward starts: the sweep keeps
        no reference of its own to what a node returned."""
        a, const = rt(3), T.Tensor(np.ones(3))
        spare, alive = [], []

        def first_bwd(g):
            alive.append(spare[0]() is not None)
            return (g,)

        def second_bwd(g):
            unused = np.full(3, 5.0)  # for ``const``, which takes none
            spare.append(weakref.ref(unused))
            return (g, unused)

        with T.Graph() as g:
            x = T.record("first", (a,), a.data.copy(), first_bwd)
            y = T.record("second", (x, const), x.data + const.data,
                         second_bwd)
            loss = tsum(y)
        g.backward(loss)
        assert alive == [False]
        assert const.grad is None
        np.testing.assert_array_equal(a.grad, np.ones(3))

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
        backward_of(lambda: tsum(mul(a.detach(), a.detach())), [a])
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
            mul(a, b)
        assert g.nodes == []


class TestWhenFinal:
    @staticmethod
    def spy(op, inputs, events):
        """A node over ``inputs`` whose output is their sum and whose
        backward logs ``op`` to ``events``."""
        def bwd(g):
            events.append(op)
            return tuple(g for _ in inputs)
        return T.record(op, tuple(inputs),
                        sum(t.data for t in inputs), bwd)

    def test_fires_once_right_after_the_earliest_reader(self):
        a, b = rt(3), rt(3)
        events, seen = [], []

        def hook():
            events.append("hook")
            seen.append(a.grad.copy())

        with T.Graph() as g:
            other = self.spy("other", [b], events)
            early = self.spy("early", [a], events)
            late = self.spy("late", [early, a, other], events)
            loss = tsum(late)
        g.when_final(a, hook)
        g.backward(loss)
        # the later reader alone does not fire it; the node before the
        # earliest reader runs after it
        assert events == ["late", "early", "hook", "other"]
        np.testing.assert_array_equal(seen[0], np.full(3, 2.0))
        assert a.grad is not None

    def test_fires_at_an_earliest_reader_the_loss_does_not_reach(self):
        a, b = rt(3), rt(3)
        events = []
        with T.Graph() as g:
            other = self.spy("other", [b], events)
            self.spy("unused", [a], events)
            loss = tsum(self.spy("late", [a, other], events))
        g.when_final(a, lambda: events.append("hook"))
        g.backward(loss)
        assert events == ["late", "hook", "other"]

    def test_fires_at_the_end_when_nothing_reads_the_tensors(self):
        a, unread = rt(3), rt(2)
        events = []
        with T.Graph() as g:
            loss = tsum(self.spy("only", [a], events))
        g.when_final(unread, lambda: events.append("hook"))
        g.when_final(a, lambda: events.append("hook a"))
        g.backward(loss)
        assert events == ["only", "hook a", "hook"]
        assert unread.grad is None


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
            mul(rt(2, 3), rt(2, 4))

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
        t = nn.zeros((3, 4))
        assert t.shape == (3, 4) and t.requires_grad
        assert not t.data.any()

    def test_gaussian_moments(self):
        t = nn.gaussian((1000,), np.random.default_rng(123), 1.0)
        assert abs(t.data.mean()) < 0.1
        assert 0.85 < t.data.var(ddof=1) < 1.15

    def test_gaussian_scaled(self):
        t = nn.gaussian((2000,), np.random.default_rng(5), 0.1)
        assert 0.005 < t.data.var(ddof=1) < 0.015

    def test_seeded_determinism(self):
        a = nn.gaussian((50,), np.random.default_rng(99), 1.0)
        b = nn.gaussian((50,), np.random.default_rng(99), 1.0)
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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1000, 1000), min_size=1, max_size=20))
def test_elu_is_the_two_branch_formula_without_overflow(xs):
    """``expm1`` runs only on the negative branch: a large input raises
    nothing under a raising error policy, and every value is bitwise
    ``np.where(x > 0, x, expm1(x))``."""
    x = np.array(xs)
    with np.errstate(all="raise", under="ignore"):
        y = T.elu(T.Tensor(x)).data
    with np.errstate(over="ignore"):
        want = np.where(x > 0, x, np.expm1(x))
    assert np.array_equal(y.view(np.int64), want.view(np.int64))
