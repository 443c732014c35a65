"""Layer tests. The LSTM is pinned three ways: an independently written
reference cell, agreement between the fused sequence op and the composed
per-step route (``oracles.lstm_step``), and finite differences."""

import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from metatagger import nn
from metatagger import tensor as T


# --- independent reference cell (kept deliberately separate in style) -----

def ref_lstm_cell(wx, wh, b, x, h, c):
    hs = h.shape[0]
    s = x @ wx + h @ wh + b
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i_g = sig(s[0 * hs:1 * hs])
    f_g = sig(s[1 * hs:2 * hs])
    g_g = np.tanh(s[2 * hs:3 * hs])
    o_g = sig(s[3 * hs:4 * hs])
    c_new = f_g * c + i_g * g_g
    h_new = o_g * np.tanh(c_new)
    return h_new, c_new


rng = np.random.default_rng(11)


def small_lstm(i=3, h=4, seed=0):
    return nn.lstm_params(i, h, np.random.default_rng(seed))


class TestLstmStep:
    def test_zero_params_give_zero_state(self):
        p = small_lstm()
        for t in p.parameters("p"):
            t[1].data[...] = 0.0
        x = T.Tensor(rng.normal(size=3))
        h, c = oracles.lstm_step(p, x, p.h0, p.c0)
        assert not h.data.any() and not c.data.any()

    def test_matches_reference_cell_100_random(self):
        p = small_lstm(i=4, h=4, seed=3)
        for _ in range(100):
            x = rng.normal(size=4)
            h = rng.normal(size=4)
            c = rng.normal(size=4)
            got_h, got_c = oracles.lstm_step(p, T.Tensor(x), T.Tensor(h),
                                             T.Tensor(c))
            want_h, want_c = ref_lstm_cell(p.w_x.data, p.w_h.data, p.bias.data,
                                           x, h, c)
            np.testing.assert_allclose(got_h.data, want_h, atol=1e-12)
            np.testing.assert_allclose(got_c.data, want_c, atol=1e-12)

    def test_shape_mismatch(self):
        p = small_lstm()
        with pytest.raises(T.ShapeError):
            oracles.lstm_step(p, T.Tensor(np.zeros(5)), p.h0, p.c0)

    def test_grad_check(self):
        p = small_lstm(seed=7)
        x = T.Tensor(rng.normal(size=3))

        def f():
            h, c = oracles.lstm_step(p, x, p.h0, p.c0)
            return oracles.tsum(T.add(h, c))

        assert oracles.grad_check(f, p.parameters("lstm")) < 1e-6


def composed_run(p, xs_data, mask=None, weights=None):
    """lstm_run over one sequence re-expressed with per-step primitive
    ops; ``mask`` is the sequence's (1, hidden) state mask."""
    xs = T.Tensor(xs_data)
    mask_t = T.Tensor(mask[0]) if mask is not None else None
    h, c = p.h0, p.c0
    rows = []
    for t in range(xs_data.shape[0]):
        h_in = oracles.mul(h, mask_t) if mask_t is not None else h
        x_t = T.reshape(oracles.slice_rows(xs, t, t + 1), (p.input_size,))
        h, c = oracles.lstm_step(p, x_t, h_in, c)
        rows.append(T.reshape(h, (1, p.hidden_size)))
    out = T.concat(rows, axis=0)
    if weights is not None:
        out = oracles.mul(out, T.Tensor(weights))
    return oracles.tsum(out)


def closure_arrays(fn) -> list[np.ndarray]:
    """The arrays a backward closure holds, through the closures it holds,
    also inside lists."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, np.ndarray):
                found.append(item)
            elif callable(item) and getattr(item, "__closure__", None):
                found += closure_arrays(item)
    return found


class TestLstmRunFused:
    def test_taped_run_saves_gates_only(self):
        """Beside its inputs and its own output, a taped run keeps for its
        backward only the (n, 4H) gate values: no cell states, no masked
        states, no packed or masked copy of the input, no tanh of the
        cell states. The sweep frees them."""
        n, width, hs = 7, 5, 3
        p = nn.lstm_params(width, hs, np.random.default_rng(0))
        xs = T.Tensor(rng.normal(size=(n, width)), requires_grad=True)
        with T.Graph() as g:
            out = nn.lstm_run(p, xs, np.ones((1, hs)), lengths=[n],
                              x_mask=np.ones((1, width)))
            loss = oracles.tsum(out)
        assert g.nodes[0].op == "lstm_run"
        saved = [a for a in closure_arrays(g.nodes[0].backward_fn)
                 if a.ndim == 2 and a.shape[0] == n and a is not xs.data
                 and not np.shares_memory(a, out.data)]
        assert [a.shape[1] for a in saved] == [4 * hs]
        refs = [weakref.ref(a) for a in saved]
        del saved
        g.backward(loss)
        assert all(r() is None for r in refs)

    def grads_of(self, loss_fn, p):
        oracles.zero_grads(p.parameters("p"))
        with T.Graph() as g:
            loss = loss_fn()
        g.backward(loss)
        return float(loss.data), {n: t.grad.copy()
                                  for n, t in p.parameters("p")}

    @pytest.mark.parametrize("use_mask", [False, True])
    def test_agrees_with_composed_route(self, use_mask):
        p = small_lstm(i=3, h=4, seed=5)
        xs = rng.normal(size=(6, 3))
        w = rng.normal(size=(6, 4))
        mask = ((rng.random((1, 4)) < 0.75) / 0.75) if use_mask else None

        def fused():
            out = nn.lstm_run(p, T.Tensor(xs), mask, lengths=[6])
            return oracles.tsum(oracles.mul(out, T.Tensor(w)))

        loss_a, grads_a = self.grads_of(fused, p)
        loss_b, grads_b = self.grads_of(lambda: composed_run(p, xs, mask, w), p)
        assert abs(loss_a - loss_b) < 1e-12
        for name in grads_a:
            np.testing.assert_allclose(grads_a[name], grads_b[name],
                                       atol=1e-12, err_msg=name)

    def test_input_gradient_flows(self):
        p = small_lstm(seed=9)
        xs = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with T.Graph() as g:
            loss = oracles.tsum(nn.lstm_run(p, xs, lengths=[4]))
        g.backward(loss)
        assert xs.grad is not None and np.abs(xs.grad).sum() > 0

    def test_grad_check_no_mask(self):
        p = small_lstm(i=2, h=3, seed=13)
        xs = rng.normal(size=(5, 2))
        w = rng.normal(size=(5, 3))

        def f():
            out = nn.lstm_run(p, T.Tensor(xs), lengths=[5])
            return oracles.tsum(oracles.mul(out, T.Tensor(w)))

        assert oracles.grad_check(f, p.parameters("lstm")) < 1e-6

    def test_grad_check_with_mask(self):
        p = small_lstm(i=2, h=3, seed=17)
        xs = rng.normal(size=(4, 2))
        mask = np.array([[1 / 0.7, 0.0, 1 / 0.7]])

        def f():
            return oracles.tsum(nn.lstm_run(p, T.Tensor(xs), mask,
                                            lengths=[4]))

        assert oracles.grad_check(f, p.parameters("lstm")) < 1e-6

    def test_empty_sequence_raises(self):
        p = small_lstm()
        with pytest.raises(T.ShapeError):
            nn.lstm_run(p, T.Tensor(np.zeros((0, 3))), lengths=[0])

    def test_wrong_width_raises(self):
        p = small_lstm()
        with pytest.raises(T.ShapeError):
            nn.lstm_run(p, T.Tensor(np.zeros((4, 7))), lengths=[4])


def stack_masks(rng, stack, rate, lengths):
    """Dropout masks of a stack run over sequences of ``lengths``."""
    return nn.draw_masks(rng, lengths,
                         lambda _: nn.stack_sites(stack, rate))[0]


def halves(out):
    """The forward and the backward states of a BiLSTM output."""
    h = out.shape[1] // 2
    return out.data[:, :h], out.data[:, h:]


class TestBiLstmStack:
    def test_shapes_depth3(self):
        stack = nn.bilstm_stack(5, 8, 3, np.random.default_rng(0))
        xs = T.Tensor(rng.normal(size=(7, 5)))
        assert nn.bilstm_stack_run(stack, xs, lengths=[7]).shape == (7, 16)

    def test_depth1_length1_equals_single_step(self):
        stack = nn.bilstm_stack(3, 4, 1, np.random.default_rng(1))
        x = rng.normal(size=(1, 3))
        f, b = halves(nn.bilstm_stack_run(stack, T.Tensor(x), lengths=[1]))
        pf, pb = stack[0]
        hf, _ = oracles.lstm_step(pf, T.Tensor(x[0]), pf.h0, pf.c0)
        hb, _ = oracles.lstm_step(pb, T.Tensor(x[0]), pb.h0, pb.c0)
        np.testing.assert_allclose(f[0], hf.data, atol=1e-12)
        np.testing.assert_allclose(b[0], hb.data, atol=1e-12)

    def test_reversal_symmetry(self):
        # swap directions and reverse input: forward outputs become the
        # reversed backward outputs of the original stack
        r = np.random.default_rng(2)
        stack = nn.bilstm_stack(3, 4, 1, r)
        pf, pb = stack[0]
        swapped = [(pb, pf)]
        xs = rng.normal(size=(5, 3))
        f1, b1 = halves(nn.bilstm_stack_run(stack, T.Tensor(xs),
                                            lengths=[5]))
        f2, b2 = halves(nn.bilstm_stack_run(swapped,
                                            T.Tensor(xs[::-1].copy()),
                                            lengths=[5]))
        np.testing.assert_allclose(b1, f2[::-1], atol=1e-12)
        np.testing.assert_allclose(f1, b2[::-1], atol=1e-12)

    def test_empty_sequence_raises(self):
        stack = nn.bilstm_stack(3, 4, 1, np.random.default_rng(0))
        with pytest.raises(T.ShapeError):
            nn.bilstm_stack_run(stack, T.Tensor(np.zeros((0, 3))),
                                lengths=[0])

    def test_grad_check_depth2(self):
        stack = nn.bilstm_stack(2, 3, 2, np.random.default_rng(4))
        xs = rng.normal(size=(4, 2))

        def f():
            return oracles.tsum(nn.bilstm_stack_run(stack, T.Tensor(xs),
                                                    lengths=[4]))

        assert oracles.grad_check(f, nn.stack_parameters(stack, "stack")) < 1e-6

    def test_parameters_are_named_by_layer_and_direction(self):
        stack = nn.bilstm_stack(3, 4, 2, np.random.default_rng(3))
        named = nn.stack_parameters(stack, "s")
        assert [name for name, _ in named] == [
            f"s.layer{j}.{d}.{part}" for j in range(2)
            for d in ("fwd", "bwd")
            for part in ("w_x", "w_h", "bias", "h0", "c0")]
        assert [id(t) for _, t in named] == [
            id(t) for layer in stack for direction in layer
            for _, t in direction.parameters("")]

    def test_dropout_changes_output_and_eval_does_not(self):
        stack = nn.bilstm_stack(3, 4, 2, np.random.default_rng(5))
        xs = T.Tensor(rng.normal(size=(6, 3)))
        base = nn.bilstm_stack_run(stack, xs, lengths=[6])
        masks = stack_masks(np.random.default_rng(0), stack, 0.5, [6])
        drop = nn.bilstm_stack_run(stack, xs, lengths=[6], masks=masks)
        evaluated = nn.bilstm_stack_run(stack, xs, lengths=[6], masks={})
        assert not np.array_equal(base.data, drop.data)
        np.testing.assert_array_equal(base.data, evaluated.data)


class TestMlpAndClassifier:
    def test_identity_map_elu(self):
        p = nn.Affine(weight=T.Tensor(np.eye(2), requires_grad=True),
                      bias=T.Tensor(np.zeros(2), requires_grad=True))
        out = T.elu(nn.affine(p, T.Tensor([[1.0, -1.0]])))
        np.testing.assert_allclose(out.data, [[1.0, np.exp(-1) - 1]],
                                   atol=1e-12)

    def test_zero_params_zero_output(self):
        p = nn.Affine(weight=T.Tensor(np.zeros((3, 2))),
                      bias=T.Tensor(np.zeros(2)))
        out = T.elu(nn.affine(p, T.Tensor([[1.0, 2.0, 3.0]])))
        assert not out.data.any()

    def test_grad_check(self):
        p = nn.affine_params(3, 5, np.random.default_rng(6), "gaussian")
        x = rng.normal(size=(4, 3))
        err = oracles.grad_check(
            lambda: oracles.tsum(T.elu(nn.affine(p, T.Tensor(x)))),
            p.parameters("mlp"))
        assert err < 1e-6

    def test_classifier_shapes_and_grad(self):
        p = nn.affine_params(4, 7, np.random.default_rng(8), "scaled")
        x = rng.normal(size=(3, 4))
        logits = nn.affine(p, T.Tensor(x))
        assert logits.shape == (3, 7)
        err = oracles.grad_check(
            lambda: oracles.tsum(nn.affine(p, T.Tensor(x))),
            p.parameters("cls"))
        assert err < 1e-6


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss = oracles.softmax_xent(T.Tensor(np.zeros(4)), 2)
        assert abs(loss.item() - np.log(4)) < 1e-12

    def test_extreme_logits_stable(self):
        loss = oracles.softmax_xent(T.Tensor([1000.0, 0.0]), 0)
        assert 0 <= loss.item() < 1e-12

    def test_brute_force_oracle(self):
        z = rng.normal(size=10) * 3
        g = 4
        want = -np.log(np.exp(z[g]) / np.exp(z).sum())
        got = oracles.softmax_xent(T.Tensor(z), g).item()
        assert abs(got - want) < 1e-12

    def test_rows_mean(self):
        z = rng.normal(size=(3, 5))
        golds = [1, 0, 4]
        per_row = [oracles.softmax_xent(T.Tensor(z[i]), golds[i]).item()
                   for i in range(3)]
        got = nn.softmax_xent_rows(T.Tensor(z), golds).item()
        assert abs(got - np.mean(per_row)) < 1e-12

    def test_gold_out_of_range(self):
        with pytest.raises(IndexError):
            oracles.softmax_xent(T.Tensor([0.0, 1.0]), 2)

    def test_confidently_wrong_row_has_a_finite_loss(self):
        z = T.Tensor([[0.0, 800.0]], requires_grad=True)
        with np.errstate(all="raise", under="ignore"):
            with T.Graph() as g:
                loss = nn.softmax_xent_rows(z, [0])
            g.backward(loss)
        assert loss.item() == 800.0
        np.testing.assert_array_equal(z.grad, [[-1.0, 1.0]])

    def test_grad_check(self):
        w = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        x = rng.normal(size=(4, 3))
        err = oracles.grad_check(
            lambda: nn.softmax_xent_rows(T.matmul(T.Tensor(x), w), [0, 3, 1, 4]),
            [("w", w)])
        assert err < 1e-6

    def test_gradient_shifts_mass_to_gold(self):
        z = T.Tensor(np.zeros((1, 3)), requires_grad=True)
        with T.Graph() as g:
            loss = nn.softmax_xent_rows(z, [1])
        g.backward(loss)
        assert z.grad[0, 1] < 0
        assert z.grad[0, 0] > 0 and z.grad[0, 2] > 0
        assert abs(z.grad.sum()) < 1e-12


class TestCharAttention:
    def test_single_char_doubles_state(self):
        v = T.Tensor(rng.normal(size=4), requires_grad=True)
        s = rng.normal(size=(1, 4))
        out = nn.char_attention(v, T.Tensor(s), [1])
        np.testing.assert_allclose(out.data, 2 * s, atol=1e-12)

    def test_identical_states_convexity(self):
        v = T.Tensor(rng.normal(size=4))
        row = rng.normal(size=4)
        s = np.tile(row, (5, 1))
        out = nn.char_attention(v, T.Tensor(s), [5])
        np.testing.assert_allclose(out.data, [2 * row], atol=1e-12)

    def test_brute_force_oracle(self):
        v = rng.normal(size=4)
        s = rng.normal(size=(3, 4))
        scores = s @ v
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        want = alpha @ s + s[-1]
        got = nn.char_attention(T.Tensor(v), T.Tensor(s), [3])
        np.testing.assert_allclose(got.data, [want], atol=1e-12)

    def test_empty_states_raise(self):
        with pytest.raises(T.ShapeError):
            nn.char_attention(T.Tensor(np.zeros(4)),
                              T.Tensor(np.zeros((0, 4))), [0])

    def test_grad_check(self):
        v = T.Tensor(rng.normal(size=3), requires_grad=True)
        s = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        err = oracles.grad_check(
            lambda: oracles.tsum(nn.char_attention(v, s, [4])),
            [("v", v), ("s", s)])
        assert err < 1e-6


def one_site(rate, size):
    """Sites of a model with one dropout site of ``size`` features."""
    return lambda _: [("x", size, rate)]


class TestDropout:
    """Inverted dropout as the models run it: masks drawn by
    ``draw_masks``, applied per sequence by ``apply_mask``."""

    def test_rate_zero_identity(self):
        r = np.random.default_rng(0)
        assert nn.draw_masks(r, [1, 2], one_site(0.0, 4)) == [{}]
        assert r.random() == np.random.default_rng(0).random()

    def test_eval_identity(self):
        x = T.Tensor(rng.normal(size=(3, 4)))
        assert nn.apply_mask(x, None, [3]) is x

    def test_survivor_statistics(self):
        [masks] = nn.draw_masks(np.random.default_rng(3), [1],
                                one_site(0.5, 10000))
        y = masks["x"][0]
        survivors = y[y != 0]
        assert 0.45 <= survivors.size / 10000 <= 0.55
        np.testing.assert_allclose(survivors, 2.0)

    def test_single_mask_shared_across_rows(self):
        x = T.Tensor(np.ones((50, 20)))
        [masks] = nn.draw_masks(np.random.default_rng(4), [50],
                                one_site(0.4, 20))
        y = nn.apply_mask(x, masks["x"], [50])
        # every column is either fully kept or fully dropped
        col_kept = (y.data != 0).all(axis=0)
        col_dropped = (y.data == 0).all(axis=0)
        assert np.all(col_kept | col_dropped)
        assert col_dropped.any() and col_kept.any()

    def test_mask_is_a_constant_of_its_node(self):
        """One "mask" node whose only input is ``x``; its output and
        ``x``'s gradient are bitwise those of the mask rows multiplied in
        as a second, constant operand."""
        lengths = [3, 1, 4]
        [masks] = nn.draw_masks(np.random.default_rng(5), lengths,
                                one_site(0.4, 6))
        rows = T.Tensor(np.repeat(masks["x"], lengths, axis=0))
        w = rng.normal(size=(8, 6))

        def run(apply):
            x = T.Tensor(np.arange(48.0).reshape(8, 6) / 7, requires_grad=True)
            with T.Graph() as g:
                y = apply(x)
                loss = oracles.tsum(oracles.mul(y, T.Tensor(w)))
            g.backward(loss)
            return x, y, g.nodes[0]

        x, y, node = run(lambda x: nn.apply_mask(x, masks["x"], lengths))
        _, want_y, want_node = run(lambda x: oracles.mul(x, rows))
        assert node.op == "mask" and node.output is y
        assert len(node.inputs) == 1 and node.inputs[0] is x
        assert np.array_equal(y.data, want_y.data)
        assert np.array_equal(x.grad, want_node.inputs[0].grad)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            nn.draw_masks(np.random.default_rng(0), [1], one_site(1.0, 3))
        with pytest.raises(ValueError):
            nn.draw_masks(np.random.default_rng(0), [1], one_site(-0.1, 3))


class TestEmbedding:
    def test_lookup_rows(self):
        table = T.Tensor([[1.0, 1.0], [2.0, 2.0]])
        out = T.take_rows(table, [1, 0, 1])
        np.testing.assert_array_equal(out.data, [[2, 2], [1, 1], [2, 2]])

    def test_empty_ids(self):
        table = T.Tensor(np.ones((3, 4)))
        out = T.take_rows(table, [])
        assert out.shape == (0, 4)

    def test_duplicate_id_grad_accumulates(self):
        table = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.Graph() as g:
            loss = oracles.tsum(T.take_rows(table, [0, 0]))
        g.backward(loss)
        np.testing.assert_array_equal(table.grad, [[2, 2], [0, 0]])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            T.take_rows(T.Tensor(np.ones((2, 2))), [0, 2])


class TestPredict:
    def test_argmax(self):
        assert nn.predict_tags(T.Tensor([[0.1, 0.9, 0.3]])) == [1]

    def test_tie_lowest_id(self):
        assert nn.predict_tags(T.Tensor([[0.5, 0.5, 0.5]])) == [0]

    def test_scale_invariance(self):
        z = rng.normal(size=(6, 4))
        a = nn.predict_tags(T.Tensor(z))
        b = nn.predict_tags(T.Tensor(10 * z))
        np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12),
       st.data())
def test_xent_nonneg_and_shift_invariant(zs, data):
    gold = data.draw(st.integers(0, len(zs) - 1))
    z = np.array(zs)
    a = oracles.softmax_xent(T.Tensor(z), gold).item()
    b = oracles.softmax_xent(T.Tensor(z + 7.3), gold).item()
    assert a >= 0
    assert abs(a - b) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
def test_lstm_run_deterministic(nsteps, seed):
    g = np.random.default_rng(seed)
    p = nn.lstm_params(3, 4, g)
    xs = T.Tensor(g.normal(size=(nsteps, 3)))
    a = nn.lstm_run(p, xs, lengths=[nsteps])
    b = nn.lstm_run(p, xs, lengths=[nsteps])
    assert np.array_equal(a.data, b.data)


# --- the shared logistic against the formula it replaced ------------------

def logaddexp_logistic(v):
    """The logistic as the package computed it before, exp(-log(1 + e^-v))."""
    return np.exp(-np.logaddexp(0.0, -v))


LOGISTIC_ATOL = 2.3e-16


def test_sigmoid_matches_the_logaddexp_formula():
    x = np.linspace(-800.0, 800.0, 200_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = oracles.sigmoid(T.Tensor(x)).data
    assert np.abs(got - logaddexp_logistic(x)).max() <= LOGISTIC_ATOL


def test_lstm_run_gates_match_the_logaddexp_formula(monkeypatch):
    g = np.random.default_rng(5)
    p_f, p_b = nn.lstm_params(3, 6, g), nn.lstm_params(3, 6, g)
    # the biases spread the gate pre-activations over [-800, 800]
    p_f.bias.data[...] = np.linspace(-800.0, 800.0, 24)
    p_b.bias.data[...] = np.linspace(800.0, -800.0, 24)
    errors = []
    logistic = T.logistic_

    def checked(v):
        before = v.copy()
        logistic(v)
        errors.append(np.abs(v - logaddexp_logistic(before)).max())
        return v

    monkeypatch.setattr(T, "logistic_", checked)
    xs = T.Tensor(g.normal(size=(9, 3)), requires_grad=True)
    with warnings.catch_warnings(), T.Graph():
        warnings.simplefilter("error", RuntimeWarning)
        nn.lstm_run(p_f, xs, lengths=[4, 5], reverse=p_b)
    # one call per step over all four gate blocks, five steps, two
    # directions
    assert len(errors) == 10 and max(errors) <= LOGISTIC_ATOL


# --- packed batches: one lstm_run call over ragged sequences --------------

def lstm_grads(p, xs_parts, loss_fn):
    """Loss and the gradients of every LSTM parameter and input part."""
    oracles.zero_grads(p.parameters("p"))
    for x in xs_parts:
        x.grad = None
    with T.Graph() as g:
        loss = loss_fn()
    g.backward(loss)
    grads = {n: t.grad.copy() for n, t in p.parameters("p")}
    grads["xs"] = np.concatenate([x.grad for x in xs_parts])
    return loss.item(), grads


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=6))
@example(lengths=[3, 1, 3, 2, 3])
def test_packing_reads_each_sequence_from_both_ends(lengths):
    """Step t of a sequence that starts at stacked row s and has length L
    reads row s + t forward and row s + L - 1 - t in reverse."""
    lengths = np.array(lengths, dtype=np.intp)
    n = int(lengths.sum())
    rows, reverse_rows, batch_sizes, order, ranks = nn._packing(lengths)
    assert sorted(rows.tolist()) == list(range(n))
    assert sorted(reverse_rows.tolist()) == list(range(n))
    assert (np.diff(batch_sizes) <= 0).all() and batch_sizes.sum() == n
    assert order.tolist() == sorted(range(len(lengths)),
                                    key=lambda b: -lengths[b])
    starts = np.cumsum(lengths) - lengths
    i = 0
    for t, k in enumerate(batch_sizes):
        for rank in range(k):
            s, length = starts[order[rank]], lengths[order[rank]]
            assert ranks[i] == rank and t < length
            assert rows[i] == s + t
            assert reverse_rows[i] == s + length - 1 - t
            i += 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
       st.integers(1, 4), st.integers(1, 3),
       st.sampled_from(["none", "shared", "per_sequence"]),
       st.integers(0, 2 ** 31 - 1))
def test_packed_batch_matches_separate_runs(lengths, hidden, width,
                                            mask_kind, seed):
    g = np.random.default_rng(seed)
    p = nn.lstm_params(width, hidden, g)
    for _, t in p.parameters("p"):  # nonzero start state and bias
        t.data[...] = g.normal(size=t.shape)
    n, b = sum(lengths), len(lengths)
    xs_data = g.normal(size=(n, width))
    w = g.normal(size=(n, hidden))
    mask = {"none": None,
            "shared": np.tile((g.random(hidden) < 0.6) / 0.6, (b, 1)),
            "per_sequence": (g.random((b, hidden)) < 0.6) / 0.6}[mask_kind]
    starts = np.cumsum(lengths) - lengths

    xs = T.Tensor(xs_data, requires_grad=True)
    out = {}

    def batched():
        out["batched"] = nn.lstm_run(p, xs, mask, lengths=lengths)
        return oracles.tsum(oracles.mul(out["batched"], T.Tensor(w)))

    parts = [T.Tensor(xs_data[a:a + k], requires_grad=True)
             for a, k in zip(starts, lengths)]

    def separate():
        rows = []
        for i, (x, a, k) in enumerate(zip(parts, starts, lengths)):
            m = None if mask is None else mask[i:i + 1]
            rows.append(oracles.mul(nn.lstm_run(p, x, m, lengths=[k]),
                                    T.Tensor(w[a:a + k])))
        out["separate"] = T.concat(rows, axis=0)
        return oracles.tsum(out["separate"])

    loss_a, grads_a = lstm_grads(p, [xs], batched)
    loss_b, grads_b = lstm_grads(p, parts, separate)
    assert abs(loss_a - loss_b) < 1e-12
    np.testing.assert_allclose(out["batched"].data * w,
                               out["separate"].data, rtol=0, atol=1e-12)
    for name in grads_a:
        np.testing.assert_allclose(grads_a[name], grads_b[name], rtol=0,
                                   atol=1e-12, err_msg=name)


class TestPackedBatch:
    def test_grad_check_ragged_masked_batch(self):
        p = nn.lstm_params(2, 3, np.random.default_rng(19))
        for _, t in p.parameters("p"):
            t.data[...] = rng.normal(size=t.shape)
        xs = T.Tensor(rng.normal(size=(7, 2)), requires_grad=True)
        w = rng.normal(size=(7, 3))
        mask = np.array([[1 / 0.7, 0.0, 1 / 0.7],
                         [1 / 0.7, 1 / 0.7, 1 / 0.7],
                         [0.0, 1 / 0.7, 1 / 0.7]])

        def f():
            out = nn.lstm_run(p, xs, mask, lengths=[2, 4, 1])
            return oracles.tsum(oracles.mul(out, T.Tensor(w)))

        params = p.parameters("lstm") + [("xs", xs)]
        assert oracles.grad_check(f, params) < 1e-4

    def test_bad_lengths_and_mask_raise(self):
        p = small_lstm()
        xs = T.Tensor(np.zeros((4, 3)))
        for lengths in ([2, 1], [4, 0], []):
            with pytest.raises(T.ShapeError):
                nn.lstm_run(p, xs, lengths=lengths)
        with pytest.raises(T.ShapeError):
            nn.lstm_run(p, xs, np.ones((3, 4)), lengths=[2, 2])
        with pytest.raises(T.ShapeError):
            nn.lstm_run(p, xs, lengths=[2, 2], x_mask=np.ones((2, 4)))

    def test_stack_reverses_each_sequence_in_its_span(self):
        stack = nn.bilstm_stack(3, 4, 2, np.random.default_rng(6))
        lengths = [3, 1, 4]
        xs = rng.normal(size=(8, 3))
        out = nn.bilstm_stack_run(stack, T.Tensor(xs), lengths=lengths)
        for a, k in zip(np.cumsum(lengths) - lengths, lengths):
            one = nn.bilstm_stack_run(stack, T.Tensor(xs[a:a + k]),
                                      lengths=[k])
            np.testing.assert_allclose(out.data[a:a + k], one.data,
                                       atol=1e-12)

    def test_stack_dropout_draws_sequence_by_sequence(self):
        stack = nn.bilstm_stack(3, 4, 2, np.random.default_rng(7))
        lengths = [2, 5]
        xs = rng.normal(size=(7, 3))
        r_batch, r_seq = np.random.default_rng(8), np.random.default_rng(8)
        out = nn.bilstm_stack_run(
            stack, T.Tensor(xs), lengths=lengths,
            masks=stack_masks(r_batch, stack, 0.4, lengths))
        for a, k in zip(np.cumsum(lengths) - lengths, lengths):
            one = nn.bilstm_stack_run(stack, T.Tensor(xs[a:a + k]),
                                      lengths=[k],
                                      masks=stack_masks(r_seq, stack, 0.4,
                                                        [k]))
            np.testing.assert_allclose(out.data[a:a + k], one.data,
                                       atol=1e-12)

    def test_char_attention_batch_matches_tokens(self):
        v = T.Tensor(rng.normal(size=3), requires_grad=True)
        s = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        lengths = [1, 3, 2]
        got = nn.char_attention(v, s, lengths)
        for i, (a, k) in enumerate(zip(np.cumsum(lengths) - lengths,
                                       lengths)):
            one = nn.char_attention(v, T.Tensor(s.data[a:a + k]), [k])
            np.testing.assert_allclose(got.data[i], one.data[0], atol=1e-12)
        err = oracles.grad_check(lambda: oracles.tsum(oracles.mul(
            nn.char_attention(v, s, lengths),
            T.Tensor(np.arange(9.0).reshape(3, 3)))), [("v", v), ("s", s)])
        assert err < 1e-6

    def test_weighted_xent_is_weighted_sum_of_rows(self):
        z = rng.normal(size=(3, 5))
        golds = [1, 0, 4]
        w = np.array([0.5, 0.25, 2.0])
        per_row = [oracles.softmax_xent(T.Tensor(z[i]), golds[i]).item()
                   for i in range(3)]
        got = nn.softmax_xent_rows(T.Tensor(z), golds, w).item()
        assert abs(got - np.dot(w, per_row)) < 1e-12
        logits = T.Tensor(z, requires_grad=True)
        err = oracles.grad_check(
            lambda: nn.softmax_xent_rows(logits, golds, w), [("z", logits)])
        assert err < 1e-6


# --- two directions in one lstm_run, the reverse one on the worker --------

def reversal(lengths):
    """Row index reversing each stacked sequence within its own span."""
    lengths = np.asarray(lengths)
    ends = np.cumsum(lengths) - 1
    seq = np.repeat(np.arange(lengths.size), lengths)
    return (ends + 1 - lengths)[seq] + ends[seq] - np.arange(ends[-1] + 1)


def bilayer_grads(loss_fn, p_f, p_b, xs):
    oracles.zero_grads(p_f.parameters("f") + p_b.parameters("b"))
    xs.grad = None
    with T.Graph() as g:
        out = loss_fn()
        loss = oracles.tsum(out)
    g.backward(loss)
    grads = [t.grad for _, t in p_f.parameters("f") + p_b.parameters("b")]
    return [out.data] + grads + [xs.grad]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
       st.integers(1, 4), st.integers(1, 3),
       st.sampled_from(["none", "shared", "per_sequence"]),
       st.integers(0, 2 ** 31 - 1))
def test_two_directions_match_the_composed_layer_bitwise(
        lengths, hidden, width, mask_kind, seed):
    g = np.random.default_rng(seed)
    p_f, p_b = (nn.lstm_params(width, hidden, g) for _ in range(2))
    for _, t in p_f.parameters("f") + p_b.parameters("b"):
        t.data[...] = g.normal(size=t.shape)
    n, b = sum(lengths), len(lengths)
    xs = T.Tensor(g.normal(size=(n, width)), requires_grad=True)
    w = T.Tensor(g.normal(size=(n, 2 * hidden)))

    def draw():
        if mask_kind == "none":
            return None
        if mask_kind == "shared":
            return np.tile((g.random(hidden) < 0.6) / 0.6, (b, 1))
        return (g.random((b, hidden)) < 0.6) / 0.6

    m_f, m_b = draw(), draw()
    rev = reversal(lengths)

    def fused():
        return oracles.mul(nn.lstm_run(p_f, xs, m_f, lengths=lengths,
                                       reverse=p_b, reverse_mask=m_b), w)

    def composed():
        f = nn.lstm_run(p_f, xs, m_f, lengths=lengths)
        r = T.take_rows(nn.lstm_run(p_b, T.take_rows(xs, rev), m_b,
                                    lengths=lengths), rev)
        return oracles.mul(T.concat([f, r], axis=1), w)

    want = bilayer_grads(composed, p_f, p_b, xs)
    inline = bilayer_grads(fused, p_f, p_b, xs)
    saved = nn._PARALLEL_MIN_WORK
    nn._PARALLEL_MIN_WORK = 0
    try:
        worker = bilayer_grads(fused, p_f, p_b, xs)
    finally:
        nn._PARALLEL_MIN_WORK = saved
    for a, b_, c in zip(want, inline, worker):
        assert np.array_equal(a, b_) and np.array_equal(a, c)


def test_the_worker_runs_under_the_callers_error_policy():
    """numpy keeps its error policy per thread: the reverse direction, run
    on the worker, must raise where the calling thread would."""
    def overflow():
        return np.exp(np.array([1000.0]))

    with np.errstate(all="raise", under="ignore"):
        policies = nn.run_calls(True, [(np.geterr,), (np.geterr,)])
        with pytest.raises(FloatingPointError, match="overflow"):
            nn.run_calls(True, [(np.geterr,), (overflow,)])
    assert policies[1] == policies[0] == dict(
        divide="raise", over="raise", under="ignore", invalid="raise")


class TestTwoDirections:
    @pytest.fixture
    def worker_path(self, monkeypatch):
        monkeypatch.setattr(nn, "_PARALLEL_MIN_WORK", 0)

    @staticmethod
    def layer(seed=23):
        g = np.random.default_rng(seed)
        p_f, p_b = nn.lstm_params(2, 3, g), nn.lstm_params(2, 3, g)
        for _, t in p_f.parameters("f") + p_b.parameters("b"):
            t.data[...] = g.normal(size=t.shape)
        return p_f, p_b

    def test_grad_check_ragged_masked_batch(self, worker_path):
        p_f, p_b = self.layer()
        xs = T.Tensor(rng.normal(size=(7, 2)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(7, 6)))
        m_f = np.array([[1 / 0.7, 0.0, 1 / 0.7],
                        [1 / 0.7, 1 / 0.7, 1 / 0.7],
                        [0.0, 1 / 0.7, 1 / 0.7]])
        m_b = np.tile([0.0, 1 / 0.7, 1 / 0.7], (3, 1))

        def f():
            out = nn.lstm_run(p_f, xs, m_f, lengths=[2, 4, 1], reverse=p_b,
                              reverse_mask=m_b)
            return oracles.tsum(oracles.mul(out, w))

        params = p_f.parameters("f") + p_b.parameters("b") + [("xs", xs)]
        assert oracles.grad_check(f, params) < 1e-4

    def test_backward_frees_both_directions_saved_state(self, worker_path):
        p_f, p_b = self.layer()
        xs = T.Tensor(rng.normal(size=(7, 2)), requires_grad=True)
        with T.Graph() as g:
            out = nn.lstm_run(p_f, xs, lengths=[2, 4, 1], reverse=p_b)
            loss = oracles.tsum(out)
        refs = [weakref.ref(a) for a in closure_arrays(g.nodes[0].backward_fn)
                if a.shape[:1] == (7,) and a.ndim == 2 and a is not xs.data
                and not np.shares_memory(a, out.data)]
        assert len(refs) == 2  # the gates of each direction
        g.backward(loss)
        assert all(r() is None for r in refs)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_one_tape_node_per_layer(self, worker_path, depth):
        stack = nn.bilstm_stack(3, 4, depth, np.random.default_rng(9))
        xs = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        with T.Graph() as g:
            nn.bilstm_stack_run(stack, xs, lengths=[4, 2])
        assert [node.op for node in g.nodes] == ["lstm_run"] * depth

    def test_tape_is_touched_only_from_the_calling_thread(
            self, worker_path, monkeypatch):
        import threading
        threads = set()

        def spy(fn):
            def wrapper(*args, **kwargs):
                threads.add(threading.current_thread())
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(T, "record", spy(T.record))
        monkeypatch.setattr(T, "tracking", spy(T.tracking))
        stack = nn.bilstm_stack(3, 4, 2, np.random.default_rng(10))
        xs = T.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        with T.Graph() as g:
            loss = oracles.tsum(nn.bilstm_stack_run(stack, xs, lengths=[3, 4]))
        g.backward(loss)
        nn.bilstm_stack_run(stack, xs, lengths=[3, 4])  # outside any Graph
        assert threads == {threading.main_thread()}

    @pytest.mark.parametrize("stage", ["forward", "backward"])
    def test_worker_error_propagates_and_the_next_call_works(
            self, worker_path, monkeypatch, stage):
        import threading
        p_f, p_b = self.layer()
        xs = T.Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        direction = nn._direction

        def failing(*args):
            on_worker = threading.current_thread() is not \
                threading.main_thread()
            if on_worker and stage == "forward":
                raise RuntimeError("worker failed")
            bwd = direction(*args)

            def failing_bwd(g):
                if threading.current_thread() is not \
                        threading.main_thread():
                    raise RuntimeError("worker failed")
                return bwd(g)
            return failing_bwd

        def run():
            with T.Graph() as g:
                loss = oracles.tsum(nn.lstm_run(p_f, xs, lengths=[2, 3],
                                          reverse=p_b))
            g.backward(loss)
            return loss.item()

        want = run()
        monkeypatch.setattr(nn, "_direction", failing)
        with pytest.raises(RuntimeError, match="worker failed"):
            run()
        monkeypatch.setattr(nn, "_direction", direction)
        assert run() == want

    def test_caller_error_still_waits_for_the_worker(self, worker_path,
                                                      monkeypatch):
        import threading
        import time
        p_f, p_b = self.layer()
        xs = T.Tensor(rng.normal(size=(5, 2)))
        direction, finished = nn._direction, []

        def slow_worker(*args):
            if threading.current_thread() is threading.main_thread():
                raise RuntimeError("caller failed")
            time.sleep(0.05)
            finished.append(True)
            return direction(*args)

        monkeypatch.setattr(nn, "_direction", slow_worker)
        with pytest.raises(RuntimeError, match="caller failed"):
            nn.lstm_run(p_f, xs, lengths=[2, 3], reverse=p_b)
        assert finished == [True]

    def test_concurrent_callers_get_the_inline_result(self, monkeypatch):
        import sys
        import threading
        p_f, p_b = self.layer()
        xs = T.Tensor(rng.normal(size=(9, 2)))
        lengths = [4, 1, 4]
        mask = np.tile([1 / 0.7, 0.0, 1 / 0.7], (3, 1))

        def run():
            return nn.lstm_run(p_f, xs, mask, lengths=lengths, reverse=p_b,
                               reverse_mask=mask[:, ::-1]).data

        want = run()
        monkeypatch.setattr(nn, "_PARALLEL_MIN_WORK", 0)
        wrong = []

        def caller():
            for _ in range(50):
                if not np.array_equal(run(), want):
                    wrong.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        assert not wrong

    def test_reverse_direction_must_match_the_forward_one(self):
        p_f = small_lstm(i=3, h=4)
        xs = T.Tensor(np.zeros((4, 3)))
        with pytest.raises(T.ShapeError):
            nn.lstm_run(p_f, xs, lengths=[4], reverse=small_lstm(i=3, h=5))
        with pytest.raises(T.ShapeError):
            nn.lstm_run(p_f, xs, lengths=[4], reverse=small_lstm(i=3, h=4),
                        reverse_mask=np.ones((1, 5)))


# --- unrecorded runs: the input projected a block of steps at a time ------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=8),
       st.integers(1, 4), st.integers(1, 9),
       st.sampled_from(["none", "shared", "per_sequence"]),
       st.booleans(), st.booleans(), st.integers(1, 6),
       st.integers(0, 2 ** 31 - 1))
@example(lengths=[5, 5, 5, 5, 5, 5, 2, 1], hidden=3, width=7,
         mask_kind="per_sequence", two=True, worker=True, budget=4, seed=1)
@example(lengths=[9], hidden=2, width=5, mask_kind="none", two=False,
         worker=False, budget=4, seed=2)
def test_unrecorded_run_matches_the_recorded_forward_bitwise(
        lengths, hidden, width, mask_kind, two, worker, budget, seed):
    """Blocks of ``budget`` rows cross sequences and steps; a step of more
    sequences than ``budget`` is a block of its own."""
    g = np.random.default_rng(seed)
    p_f, p_b = (nn.lstm_params(width, hidden, g) for _ in range(2))
    for _, t in p_f.parameters("f") + p_b.parameters("b"):
        t.data[...] = g.normal(size=t.shape)
    n, b = sum(lengths), len(lengths)
    xs = T.Tensor(g.normal(size=(n, width)), requires_grad=True)
    masks = [{"none": None,
              "shared": np.tile((g.random(hidden) < 0.6) / 0.6, (b, 1)),
              "per_sequence": (g.random((b, hidden)) < 0.6) / 0.6
              }[mask_kind] for _ in range(2)]
    kwargs = dict(lengths=lengths, reverse=p_b if two else None,
                  reverse_mask=masks[1] if two else None)
    with T.Graph() as graph:
        recorded = nn.lstm_run(p_f, xs, masks[0], **kwargs)
    assert len(graph.nodes) == 1
    saved = nn._PROJECT_ROWS, nn._PARALLEL_MIN_WORK
    nn._PROJECT_ROWS, nn._PARALLEL_MIN_WORK = budget, 0 if worker else saved[1]
    try:
        unrecorded = nn.lstm_run(p_f, xs, masks[0], **kwargs)
    finally:
        nn._PROJECT_ROWS, nn._PARALLEL_MIN_WORK = saved
    assert not unrecorded.requires_grad
    assert np.array_equal(unrecorded.data, recorded.data)


@pytest.mark.parametrize("worker", [False, True])
def test_unrecorded_run_memory_follows_the_output(monkeypatch, worker):
    """From 1k to 16k rows the traced peak of an unrecorded two-direction
    run grows by about its (N, 2H) result, not by its (N, 4H) gates."""
    import tracemalloc
    monkeypatch.setattr(nn, "_PARALLEL_MIN_WORK", 0 if worker else 1 << 62)
    g = np.random.default_rng(3)
    width, hidden = 8, 32
    p_f, p_b = nn.lstm_params(width, hidden, g), nn.lstm_params(width, hidden, g)

    def peak(n):
        xs = T.Tensor(g.normal(size=(n, width)))
        lengths = [n // 8] * 8
        tracemalloc.start()
        try:
            out = nn.lstm_run(p_f, xs, lengths=lengths, reverse=p_b)
            return tracemalloc.get_traced_memory()[1], out.data.nbytes
        finally:
            tracemalloc.stop()

    (small, out_small), (large, out_large) = peak(1024), peak(16384)
    assert large - small <= 1.25 * (out_large - out_small)


# --- recorded runs: the input mask inside the op, a small tape ------------

def masked_layer_grads(fused, p_f, p_b, xs, lengths, x_mask, m_f, m_b, w):
    """Output, parameter gradients and input gradient of one layer run
    with ``x_mask`` applied inside ``lstm_run`` (``fused``) or by
    ``apply_mask`` in front of it."""
    params = p_f.parameters("f") + ([] if p_b is None else
                                    p_b.parameters("b"))
    oracles.zero_grads(params)
    xs.grad = None
    with T.Graph() as g:
        if fused:
            out = nn.lstm_run(p_f, xs, m_f, lengths=lengths, reverse=p_b,
                              reverse_mask=m_b, x_mask=x_mask)
        else:
            out = nn.lstm_run(p_f, nn.apply_mask(xs, x_mask, lengths), m_f,
                              lengths=lengths, reverse=p_b, reverse_mask=m_b)
        loss = oracles.tsum(oracles.mul(out, w))
    g.backward(loss)
    return [out.data] + [t.grad for _, t in params] + [xs.grad]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
       st.integers(1, 4), st.integers(1, 5), st.booleans(), st.booleans(),
       st.booleans(), st.booleans(), st.integers(0, 2 ** 31 - 1))
@example(lengths=[3, 1, 4], hidden=3, width=4, two=True, input_mask=True,
         state_masks=True, worker=True, seed=5)
def test_input_mask_inside_the_run_matches_apply_mask_bitwise(
        lengths, hidden, width, two, input_mask, state_masks, worker, seed):
    g = np.random.default_rng(seed)
    p_f, p_b = (nn.lstm_params(width, hidden, g) for _ in range(2))
    for _, t in p_f.parameters("f") + p_b.parameters("b"):
        t.data[...] = g.normal(size=t.shape)
    n, b = sum(lengths), len(lengths)
    xs = T.Tensor(g.normal(size=(n, width)), requires_grad=True)
    w = T.Tensor(g.normal(size=(n, (2 if two else 1) * hidden)))
    x_mask = (g.random((b, width)) < 0.6) / 0.6 if input_mask else None
    m_f, m_b = ((g.random((b, hidden)) < 0.6) / 0.6 if state_masks else None
                for _ in range(2))
    args = (p_f, p_b if two else None, xs, lengths, x_mask, m_f,
            m_b if two else None, w)
    saved = nn._PARALLEL_MIN_WORK
    nn._PARALLEL_MIN_WORK = 0 if worker else saved
    try:
        fused = masked_layer_grads(True, *args)
        composed = masked_layer_grads(False, *args)
    finally:
        nn._PARALLEL_MIN_WORK = saved
    assert len(fused) == len(composed)
    for a, c in zip(fused, composed):
        assert np.array_equal(a, c)


def test_no_input_gradient_when_the_input_takes_none(monkeypatch):
    """An input without requires_grad gets None from the closure, and the
    parameters' gradients are bitwise those of a run whose input takes
    one."""
    monkeypatch.setattr(nn, "_PARALLEL_MIN_WORK", 0)
    g = np.random.default_rng(12)
    p_f, p_b = nn.lstm_params(3, 4, g), nn.lstm_params(3, 4, g)
    data = g.normal(size=(9, 3))
    x_mask = (g.random((3, 3)) < 0.6) / 0.6
    w = T.Tensor(g.normal(size=(9, 8)))

    def run(requires_grad):
        params = p_f.parameters("f") + p_b.parameters("b")
        oracles.zero_grads(params)
        xs = T.Tensor(data, requires_grad=requires_grad)
        with T.Graph() as graph:
            loss = oracles.tsum(oracles.mul(nn.lstm_run(
                p_f, xs, lengths=[4, 2, 3], reverse=p_b, x_mask=x_mask), w))
        node, returned = graph.nodes[0], []
        inner = node.backward_fn

        def spy(g_out):
            returned.append(inner(g_out))
            return returned[0]

        node.backward_fn = spy
        graph.backward(loss)
        return returned[0][0], [t.grad.copy() for _, t in params]

    d_xs, with_input = run(True)
    none, without_input = run(False)
    assert d_xs is not None and none is None
    for a, b in zip(with_input, without_input):
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
       st.integers(1, 4), st.integers(1, 5), st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
@example(lengths=[3, 1, 4], hidden=3, width=2, two=True, input_mask=True,
         worker=True, seed=8)
def test_input_gradient_is_the_scattered_sum_bitwise(
        lengths, hidden, width, two, input_mask, worker, seed):
    """The directions' input gradients, summed in one's packed rows and
    gathered into stacked order, are bitwise their sum scattered into the
    stacked rows (``oracles.scattered_input_grad``)."""
    g = np.random.default_rng(seed)
    p_f, p_b = (nn.lstm_params(width, hidden, g) for _ in range(2))
    for _, t in p_f.parameters("f") + p_b.parameters("b"):
        t.data[...] = g.normal(size=t.shape)
    n, b = sum(lengths), len(lengths)
    xs = T.Tensor(g.normal(size=(n, width)), requires_grad=True)
    x_mask = (g.random((b, width)) < 0.6) / 0.6 if input_mask else None
    g_out = g.normal(size=(n, (2 if two else 1) * hidden))
    packed = []  # (forward?, packed rows, input gradient) per direction
    direction = nn._direction

    def spied(params, *args):
        bwd = direction(params, *args)

        def spied_bwd(g):
            grads = bwd(g)
            # a copy: the op sums into one direction's buffer in place
            packed.append((params is not p_f, args[3], grads[0].copy()))
            return grads
        return spied_bwd

    saved = nn._direction, nn._PARALLEL_MIN_WORK
    nn._direction = spied
    nn._PARALLEL_MIN_WORK = 0 if worker else saved[1]
    try:
        with T.Graph() as graph:
            nn.lstm_run(p_f, xs, lengths=lengths,
                        reverse=p_b if two else None, x_mask=x_mask)
        d_xs = graph.nodes[0].backward_fn(g_out)[0]
    finally:
        nn._direction, nn._PARALLEL_MIN_WORK = saved
    packed.sort(key=lambda e: e[0])  # the forward direction first
    assert len(packed) == (2 if two else 1)
    want = oracles.scattered_input_grad([e[2] for e in packed],
                                        [e[1] for e in packed], x_mask,
                                        lengths)
    assert np.array_equal(d_xs, want)


@pytest.mark.parametrize("worker", [False, True])
def test_recorded_backward_allocates_no_second_gates_array(monkeypatch,
                                                            worker):
    """A recorded two-direction layer's backward writes each direction's
    gate gradients over its taped gates: its traced peak stays below the
    bytes of one (rows, 4H) array per direction running at a time."""
    import tracemalloc
    monkeypatch.setattr(nn, "_PARALLEL_MIN_WORK", 0 if worker else 1 << 62)
    g = np.random.default_rng(6)
    width, hidden, lengths = 4, 32, [100] * 8
    n = sum(lengths)
    p_f, p_b = nn.lstm_params(width, hidden, g), nn.lstm_params(width, hidden, g)
    xs = T.Tensor(g.normal(size=(n, width)), requires_grad=True)
    with T.Graph() as graph:
        out = nn.lstm_run(p_f, xs, lengths=lengths, reverse=p_b)
    g_out = g.normal(size=out.shape)
    tracemalloc.start()
    try:
        grads = graph.nodes[0].backward_fn(g_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads[0].shape == xs.shape
    assert peak < (2 if worker else 1) * n * 4 * hidden * 8


def test_recorded_stack_keeps_gates_per_row():
    """Beside the layers' outputs, a recorded two-layer stack with every
    dropout mask keeps about 4H float64 values per packed row and
    direction, its gates: no cell states, no masked states and no masked
    copy of a layer's input."""
    import tracemalloc
    g = np.random.default_rng(4)
    width, hidden, depth = 16, 32, 2
    stack = nn.bilstm_stack(width, hidden, depth, g)
    lengths = [250] * 16
    n = sum(lengths)
    xs = T.Tensor(g.normal(size=(n, width)), requires_grad=True)
    masks = stack_masks(g, stack, 0.3, lengths)
    assert sorted(masks) == sorted(k for k, _, _ in
                                   nn.stack_sites(stack, 0.3))
    tracemalloc.start()
    try:
        with T.Graph() as graph:
            nn.bilstm_stack_run(stack, xs, lengths=lengths, masks=masks)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    outputs = sum(node.output.data.nbytes for node in graph.nodes)
    assert [node.op for node in graph.nodes] == ["lstm_run"] * depth
    per_row = (held - outputs) / (n * 2 * depth)
    assert per_row <= 1.05 * 4 * hidden * 8
