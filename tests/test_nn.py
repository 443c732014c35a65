"""Layer tests. The LSTM is pinned three ways: an independently written
reference cell, agreement between the fused sequence op and the composed
per-step route, and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        x = T.tensor(rng.normal(size=3))
        h, c = nn.lstm_step(p, x, p.h0, p.c0)
        assert not h.data.any() and not c.data.any()

    def test_matches_reference_cell_100_random(self):
        p = small_lstm(i=4, h=4, seed=3)
        for _ in range(100):
            x = rng.normal(size=4)
            h = rng.normal(size=4)
            c = rng.normal(size=4)
            got_h, got_c = nn.lstm_step(p, T.tensor(x), T.tensor(h), T.tensor(c))
            want_h, want_c = ref_lstm_cell(p.w_x.data, p.w_h.data, p.bias.data,
                                           x, h, c)
            np.testing.assert_allclose(got_h.data, want_h, atol=1e-12)
            np.testing.assert_allclose(got_c.data, want_c, atol=1e-12)

    def test_shape_mismatch(self):
        p = small_lstm()
        with pytest.raises(T.ShapeError):
            nn.lstm_step(p, T.tensor(np.zeros(5)), p.h0, p.c0)

    def test_grad_check(self):
        p = small_lstm(seed=7)
        x = T.tensor(rng.normal(size=3))

        def f():
            h, c = nn.lstm_step(p, x, p.h0, p.c0)
            return T.tsum(T.add(h, c))

        assert T.grad_check(f, p.parameters("lstm")) < 1e-6


def composed_run(p, xs_data, mask=None, weights=None):
    """lstm_run re-expressed with per-step primitive ops."""
    xs = T.Tensor(xs_data)
    mask_t = T.tensor(mask) if mask is not None else None
    h, c = p.h0, p.c0
    rows = []
    for t in range(xs_data.shape[0]):
        h_in = T.mul(h, mask_t) if mask_t is not None else h
        x_t = T.reshape(T.slice_rows(xs, t, t + 1), (p.input_size,))
        h, c = nn.lstm_step(p, x_t, h_in, c)
        rows.append(T.reshape(h, (1, p.hidden_size)))
    out = T.concat(rows, axis=0)
    if weights is not None:
        out = T.mul(out, T.tensor(weights))
    return T.tsum(out)


class TestLstmRunFused:
    def grads_of(self, loss_fn, p):
        T.zero_grads(p.parameters("p"))
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
        mask = ((rng.random(4) < 0.75) / 0.75) if use_mask else None

        def fused():
            out = nn.lstm_run(p, T.Tensor(xs), mask)
            return T.tsum(T.mul(out, T.tensor(w)))

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
            loss = T.tsum(nn.lstm_run(p, xs))
        g.backward(loss)
        assert xs.grad is not None and np.abs(xs.grad).sum() > 0

    def test_grad_check_no_mask(self):
        p = small_lstm(i=2, h=3, seed=13)
        xs = rng.normal(size=(5, 2))
        w = rng.normal(size=(5, 3))

        def f():
            out = nn.lstm_run(p, T.Tensor(xs))
            return T.tsum(T.mul(out, T.tensor(w)))

        assert T.grad_check(f, p.parameters("lstm")) < 1e-6

    def test_grad_check_with_mask(self):
        p = small_lstm(i=2, h=3, seed=17)
        xs = rng.normal(size=(4, 2))
        mask = np.array([1 / 0.7, 0.0, 1 / 0.7])

        def f():
            return T.tsum(nn.lstm_run(p, T.Tensor(xs), mask))

        assert T.grad_check(f, p.parameters("lstm")) < 1e-6

    def test_empty_sequence_raises(self):
        p = small_lstm()
        with pytest.raises(T.ShapeError):
            nn.lstm_run(p, T.Tensor(np.zeros((0, 3))))

    def test_wrong_width_raises(self):
        p = small_lstm()
        with pytest.raises(T.ShapeError):
            nn.lstm_run(p, T.Tensor(np.zeros((4, 7))))


class TestBiLstmStack:
    def test_shapes_depth3(self):
        stack = nn.bilstm_stack(5, 8, 3, np.random.default_rng(0))
        xs = T.Tensor(rng.normal(size=(7, 5)))
        f, b = nn.bilstm_stack_run(stack, xs)
        assert f.shape == (7, 8) and b.shape == (7, 8)

    def test_depth1_length1_equals_single_step(self):
        stack = nn.bilstm_stack(3, 4, 1, np.random.default_rng(1))
        x = rng.normal(size=(1, 3))
        f, b = nn.bilstm_stack_run(stack, T.Tensor(x))
        pf, pb = stack.layers[0]
        hf, _ = nn.lstm_step(pf, T.tensor(x[0]), pf.h0, pf.c0)
        hb, _ = nn.lstm_step(pb, T.tensor(x[0]), pb.h0, pb.c0)
        np.testing.assert_allclose(f.data[0], hf.data, atol=1e-12)
        np.testing.assert_allclose(b.data[0], hb.data, atol=1e-12)

    def test_reversal_symmetry(self):
        # swap directions and reverse input: forward outputs become the
        # reversed backward outputs of the original stack
        r = np.random.default_rng(2)
        stack = nn.bilstm_stack(3, 4, 1, r)
        pf, pb = stack.layers[0]
        swapped = nn.BiLstmStack([(pb, pf)])
        xs = rng.normal(size=(5, 3))
        f1, b1 = nn.bilstm_stack_run(stack, T.Tensor(xs))
        f2, b2 = nn.bilstm_stack_run(swapped, T.Tensor(xs[::-1].copy()))
        np.testing.assert_allclose(b1.data, f2.data[::-1], atol=1e-12)
        np.testing.assert_allclose(f1.data, b2.data[::-1], atol=1e-12)

    def test_empty_sequence_raises(self):
        stack = nn.bilstm_stack(3, 4, 1, np.random.default_rng(0))
        with pytest.raises(T.ShapeError):
            nn.bilstm_stack_run(stack, T.Tensor(np.zeros((0, 3))))

    def test_grad_check_depth2(self):
        stack = nn.bilstm_stack(2, 3, 2, np.random.default_rng(4))
        xs = rng.normal(size=(4, 2))

        def f():
            fo, bo = nn.bilstm_stack_run(stack, T.Tensor(xs))
            return T.tsum(T.concat([fo, bo], axis=1))

        assert T.grad_check(f, stack.parameters("stack")) < 1e-6

    def test_dropout_changes_output_and_eval_does_not(self):
        stack = nn.bilstm_stack(3, 4, 2, np.random.default_rng(5))
        xs = T.Tensor(rng.normal(size=(6, 3)))
        base_f, _ = nn.bilstm_stack_run(stack, xs)
        drop_f, _ = nn.bilstm_stack_run(stack, xs, dropout_rate=0.5,
                                        training=True,
                                        rng=np.random.default_rng(0))
        eval_f, _ = nn.bilstm_stack_run(stack, xs, dropout_rate=0.5,
                                        training=False)
        assert not np.array_equal(base_f.data, drop_f.data)
        np.testing.assert_array_equal(base_f.data, eval_f.data)


class TestMlpAndClassifier:
    def test_identity_map_elu(self):
        p = nn.MlpParams(weight=T.tensor(np.eye(2), requires_grad=True),
                         bias=T.Tensor(np.zeros(2), requires_grad=True))
        out = nn.mlp_apply(p, T.tensor([1.0, -1.0]))
        np.testing.assert_allclose(out.data, [1.0, np.exp(-1) - 1], atol=1e-12)

    def test_zero_params_zero_output(self):
        p = nn.MlpParams(weight=T.Tensor(np.zeros((3, 2))),
                         bias=T.Tensor(np.zeros(2)))
        out = nn.mlp_apply(p, T.tensor([1.0, 2.0, 3.0]))
        assert not out.data.any()

    def test_grad_check(self):
        p = nn.mlp_params(3, 5, np.random.default_rng(6))
        x = rng.normal(size=(4, 3))
        err = T.grad_check(lambda: T.tsum(nn.mlp_apply(p, T.Tensor(x))),
                           p.parameters("mlp"))
        assert err < 1e-6

    def test_classifier_shapes_and_grad(self):
        p = nn.classifier_params(4, 7, np.random.default_rng(8))
        x = rng.normal(size=(3, 4))
        logits = nn.classify(p, T.Tensor(x))
        assert logits.shape == (3, 7)
        err = T.grad_check(lambda: T.tsum(nn.classify(p, T.Tensor(x))),
                           p.parameters("cls"))
        assert err < 1e-6


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss = nn.softmax_xent(T.tensor(np.zeros(4)), 2)
        assert abs(loss.item() - np.log(4)) < 1e-12

    def test_extreme_logits_stable(self):
        loss = nn.softmax_xent(T.tensor([1000.0, 0.0]), 0)
        assert 0 <= loss.item() < 1e-12

    def test_brute_force_oracle(self):
        z = rng.normal(size=10) * 3
        g = 4
        want = -np.log(np.exp(z[g]) / np.exp(z).sum())
        got = nn.softmax_xent(T.tensor(z), g).item()
        assert abs(got - want) < 1e-12

    def test_rows_mean(self):
        z = rng.normal(size=(3, 5))
        golds = [1, 0, 4]
        per_row = [nn.softmax_xent(T.tensor(z[i]), golds[i]).item()
                   for i in range(3)]
        got = nn.softmax_xent_rows(T.Tensor(z), golds).item()
        assert abs(got - np.mean(per_row)) < 1e-12

    def test_gold_out_of_range(self):
        with pytest.raises(IndexError):
            nn.softmax_xent(T.tensor([0.0, 1.0]), 2)

    def test_grad_check(self):
        w = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        x = rng.normal(size=(4, 3))
        err = T.grad_check(
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
        out = nn.char_attention(v, T.Tensor(s))
        np.testing.assert_allclose(out.data, 2 * s[0], atol=1e-12)

    def test_identical_states_convexity(self):
        v = T.Tensor(rng.normal(size=4))
        row = rng.normal(size=4)
        s = np.tile(row, (5, 1))
        out = nn.char_attention(v, T.Tensor(s))
        np.testing.assert_allclose(out.data, 2 * row, atol=1e-12)

    def test_brute_force_oracle(self):
        v = rng.normal(size=4)
        s = rng.normal(size=(3, 4))
        scores = s @ v
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        want = alpha @ s + s[-1]
        got = nn.char_attention(T.tensor(v), T.Tensor(s))
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_empty_states_raise(self):
        with pytest.raises(T.ShapeError):
            nn.char_attention(T.tensor(np.zeros(4)), T.Tensor(np.zeros((0, 4))))

    def test_grad_check(self):
        v = T.Tensor(rng.normal(size=3), requires_grad=True)
        s = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        err = T.grad_check(lambda: T.tsum(nn.char_attention(v, s)),
                           [("v", v), ("s", s)])
        assert err < 1e-6


class TestDropout:
    def test_rate_zero_identity(self):
        x = T.Tensor(rng.normal(size=(3, 4)))
        assert nn.dropout(x, 0.0, training=True,
                          rng=np.random.default_rng(0)) is x

    def test_eval_identity(self):
        x = T.Tensor(rng.normal(size=(3, 4)))
        assert nn.dropout(x, 0.33, training=False) is x

    def test_survivor_statistics(self):
        x = T.Tensor(np.ones(10000))
        y = nn.dropout(x, 0.5, mode="per_position", training=True,
                       rng=np.random.default_rng(3))
        survivors = y.data[y.data != 0]
        assert 0.45 <= survivors.size / 10000 <= 0.55
        np.testing.assert_allclose(survivors, 2.0)

    def test_single_mask_shared_across_rows(self):
        x = T.Tensor(np.ones((50, 20)))
        y = nn.dropout(x, 0.4, mode="single_mask", training=True,
                       rng=np.random.default_rng(4))
        # every column is either fully kept or fully dropped
        col_kept = (y.data != 0).all(axis=0)
        col_dropped = (y.data == 0).all(axis=0)
        assert np.all(col_kept | col_dropped)
        assert col_dropped.any() and col_kept.any()

    def test_bad_rate(self):
        x = T.Tensor(np.ones(3))
        with pytest.raises(ValueError):
            nn.dropout(x, 1.0, training=True, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            nn.dropout(x, -0.1, training=True, rng=np.random.default_rng(0))


class TestEmbedding:
    def test_lookup_rows(self):
        table = T.Tensor([[1.0, 1.0], [2.0, 2.0]])
        out = nn.embedding_lookup(table, [1, 0, 1])
        np.testing.assert_array_equal(out.data, [[2, 2], [1, 1], [2, 2]])

    def test_empty_ids(self):
        table = T.Tensor(np.ones((3, 4)))
        out = nn.embedding_lookup(table, [])
        assert out.shape == (0, 4)

    def test_duplicate_id_grad_accumulates(self):
        table = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.Graph() as g:
            loss = T.tsum(nn.embedding_lookup(table, [0, 0]))
        g.backward(loss)
        np.testing.assert_array_equal(table.grad, [[2, 2], [0, 0]])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            nn.embedding_lookup(T.Tensor(np.ones((2, 2))), [0, 2])


class TestPredict:
    def test_argmax(self):
        assert nn.predict_tags(T.tensor([[0.1, 0.9, 0.3]])) == [1]

    def test_tie_lowest_id(self):
        assert nn.predict_tags(T.tensor([[0.5, 0.5, 0.5]])) == [0]

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
    a = nn.softmax_xent(T.tensor(z), gold).item()
    b = nn.softmax_xent(T.tensor(z + 7.3), gold).item()
    assert a >= 0
    assert abs(a - b) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
def test_lstm_run_deterministic(nsteps, seed):
    g = np.random.default_rng(seed)
    p = nn.lstm_params(3, 4, g)
    xs = T.Tensor(g.normal(size=(nsteps, 3)))
    a = nn.lstm_run(p, xs)
    b = nn.lstm_run(p, xs)
    assert np.array_equal(a.data, b.data)


# --- packed batches: one lstm_run call over ragged sequences --------------

def lstm_grads(p, xs_parts, loss_fn):
    """Loss and the gradients of every LSTM parameter and input part."""
    T.zero_grads(p.parameters("p"))
    for x in xs_parts:
        x.grad = None
    with T.Graph() as g:
        loss = loss_fn()
    g.backward(loss)
    grads = {n: t.grad.copy() for n, t in p.parameters("p")}
    grads["xs"] = np.concatenate([x.grad for x in xs_parts])
    return loss.item(), grads


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
            "shared": (g.random(hidden) < 0.6) / 0.6,
            "per_sequence": (g.random((b, hidden)) < 0.6) / 0.6}[mask_kind]
    starts = np.cumsum(lengths) - lengths

    xs = T.Tensor(xs_data, requires_grad=True)
    out = {}

    def batched():
        out["batched"] = nn.lstm_run(p, xs, mask, lengths)
        return T.tsum(T.mul(out["batched"], T.tensor(w)))

    parts = [T.Tensor(xs_data[a:a + k], requires_grad=True)
             for a, k in zip(starts, lengths)]

    def separate():
        rows = []
        for i, (x, a, k) in enumerate(zip(parts, starts, lengths)):
            m = mask[i] if mask_kind == "per_sequence" else mask
            rows.append(T.mul(nn.lstm_run(p, x, m), T.tensor(w[a:a + k])))
        out["separate"] = T.concat(rows, axis=0)
        return T.tsum(out["separate"])

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
            return T.tsum(T.mul(out, T.tensor(w)))

        assert T.grad_check(f, p.parameters("lstm") + [("xs", xs)]) < 1e-4

    def test_bad_lengths_and_mask_raise(self):
        p = small_lstm()
        xs = T.Tensor(np.zeros((4, 3)))
        for lengths in ([2, 1], [4, 0], []):
            with pytest.raises(T.ShapeError):
                nn.lstm_run(p, xs, lengths=lengths)
        with pytest.raises(T.ShapeError):
            nn.lstm_run(p, xs, np.ones((3, 4)), lengths=[2, 2])

    def test_stack_reverses_each_sequence_in_its_span(self):
        stack = nn.bilstm_stack(3, 4, 2, np.random.default_rng(6))
        lengths = [3, 1, 4]
        xs = rng.normal(size=(8, 3))
        f, b = nn.bilstm_stack_run(stack, T.Tensor(xs), lengths=lengths)
        for a, k in zip(np.cumsum(lengths) - lengths, lengths):
            fs, bs = nn.bilstm_stack_run(stack, T.Tensor(xs[a:a + k]))
            np.testing.assert_allclose(f.data[a:a + k], fs.data, atol=1e-12)
            np.testing.assert_allclose(b.data[a:a + k], bs.data, atol=1e-12)

    def test_stack_dropout_draws_sequence_by_sequence(self):
        stack = nn.bilstm_stack(3, 4, 2, np.random.default_rng(7))
        lengths = [2, 5]
        xs = rng.normal(size=(7, 3))
        r_batch, r_seq = np.random.default_rng(8), np.random.default_rng(8)
        f, _ = nn.bilstm_stack_run(stack, T.Tensor(xs), dropout_rate=0.4,
                                   training=True, rng=r_batch,
                                   lengths=lengths)
        for a, k in zip(np.cumsum(lengths) - lengths, lengths):
            fs, _ = nn.bilstm_stack_run(stack, T.Tensor(xs[a:a + k]),
                                        dropout_rate=0.4, training=True,
                                        rng=r_seq)
            np.testing.assert_allclose(f.data[a:a + k], fs.data, atol=1e-12)

    def test_char_attention_batch_matches_tokens(self):
        v = T.Tensor(rng.normal(size=3), requires_grad=True)
        s = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        lengths = [1, 3, 2]
        got = nn.char_attention(v, s, lengths)
        for i, (a, k) in enumerate(zip(np.cumsum(lengths) - lengths,
                                       lengths)):
            one = nn.char_attention(v, T.Tensor(s.data[a:a + k]))
            np.testing.assert_allclose(got.data[i], one.data, atol=1e-12)
        err = T.grad_check(lambda: T.tsum(T.mul(
            nn.char_attention(v, s, lengths),
            T.tensor(np.arange(9.0).reshape(3, 3)))), [("v", v), ("s", s)])
        assert err < 1e-6

    def test_weighted_xent_is_weighted_sum_of_rows(self):
        z = rng.normal(size=(3, 5))
        golds = [1, 0, 4]
        w = np.array([0.5, 0.25, 2.0])
        per_row = [nn.softmax_xent(T.tensor(z[i]), golds[i]).item()
                   for i in range(3)]
        got = nn.softmax_xent_rows(T.Tensor(z), golds, w).item()
        assert abs(got - np.dot(w, per_row)) < 1e-12
        logits = T.Tensor(z, requires_grad=True)
        err = T.grad_check(lambda: nn.softmax_xent_rows(logits, golds, w),
                           [("z", logits)])
        assert err < 1e-6
