"""Reference implementations and checks the tests hold the package to.

Each reference is the plain composition of the package's primitive ops
that a fused or batched op of ``src/`` replaces, kept readable rather than
fast:

* ``lstm_step``: one LSTM cell update; ``nn.lstm_run`` is pinned to it;
* ``softmax_xent``: the cross-entropy of one logits vector, per row of
  ``nn.softmax_xent_rows``;
* ``mean_loss``: the mean of per-sentence losses, which a training batch
  loss equals by weighting its token rows.

The ops these compose that the tagger itself never runs live here too:
``sigmoid`` and ``tanh`` (the fused LSTM computes its gates in place),
``slice_rows`` and ``tsum``, the scalar sum that turns an output into a
loss. ``grad_check`` compares a loss's taped gradients against central
finite differences; ``zero_grads`` clears gradients before a backward.
"""

from typing import Callable

import numpy as np

from metatagger import nn
from metatagger import tensor as T


# ---------------------------------------------------------------------------
# ops

def sigmoid(a: T.Tensor) -> T.Tensor:
    out = T.logistic_(a.data.copy())

    def bwd(g):
        return (g * out * (1.0 - out),)

    return T.record("sigmoid", (a,), out, bwd)


def tanh(a: T.Tensor) -> T.Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return T.record("tanh", (a,), out, bwd)


def tsum(a: T.Tensor) -> T.Tensor:
    """Sum of all elements, as a scalar tensor."""
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return T.record("sum", (a,), np.sum(a.data), bwd)


def slice_rows(a: T.Tensor, start: int, stop: int) -> T.Tensor:
    """Contiguous range along axis 0."""
    n = a.shape[0]
    if not (0 <= start <= stop <= n):
        raise T.ShapeError(
            f"slice: range [{start}, {stop}) out of bounds for {a.shape}")
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape)
        full[start:stop] = g
        return (full,)

    return T.record("slice", (a,), a.data[start:stop].copy(), bwd)


# ---------------------------------------------------------------------------
# references

def lstm_step(params: nn.LstmParams, x_t: T.Tensor, h_prev: T.Tensor,
              c_prev: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """One cell update from primitive ops: i,f,o = sigmoid, g = tanh,
    c = f*c_prev + i*g, h = o*tanh(c). Takes and returns (n,) vectors;
    the products run on them as (1, n) rows."""
    hs = params.hidden_size
    if x_t.shape != (params.input_size,):
        raise T.ShapeError(
            f"lstm_step: input shape {x_t.shape} != ({params.input_size},)")

    def row(v):
        return T.reshape(v, (1, v.shape[0]))

    s = T.add(T.add(T.matmul(row(x_t), params.w_x),
                    T.matmul(row(h_prev), params.w_h)), params.bias)
    s = T.reshape(s, (4 * hs,))
    i = sigmoid(slice_rows(s, 0, hs))
    f = sigmoid(slice_rows(s, hs, 2 * hs))
    g = tanh(slice_rows(s, 2 * hs, 3 * hs))
    o = sigmoid(slice_rows(s, 3 * hs, 4 * hs))
    c = T.add(T.mul(f, c_prev), T.mul(i, g))
    h = T.mul(o, tanh(c))
    return h, c


def softmax_xent(logits: T.Tensor, gold: int) -> T.Tensor:
    """Cross-entropy of a single logits vector against one gold index."""
    if logits.ndim != 1:
        raise T.ShapeError(
            f"softmax_xent: expected a vector, got {logits.shape}")
    return nn.softmax_xent_rows(T.reshape(logits, (1, logits.shape[0])),
                                [gold])


def mean_loss(losses: list[T.Tensor]) -> T.Tensor:
    """Mean of per-sentence losses; a batch loss weights its rows so it
    equals this over the sentences' mean token losses."""
    total = losses[0]
    for l in losses[1:]:
        total = T.add(total, l)
    return T.mul(total, T.Tensor(1.0 / len(losses)))


# ---------------------------------------------------------------------------
# gradient checking

def zero_grads(params) -> None:
    """Clear accumulated gradients on an iterable of (name, Tensor) pairs."""
    for _, p in params:
        p.grad = None


def grad_check(f: Callable[[], T.Tensor], params, eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must rebuild its forward pass on every call and be deterministic
    (fix any dropout masks or disable them). ``params`` is an iterable of
    (name, Tensor) pairs; every entry of every parameter is perturbed.

    Returns max over entries of |analytic - numeric| / max(1, |a|, |n|).
    """
    params = list(params)
    zero_grads(params)
    with T.Graph() as g:
        loss = f()
    g.backward(loss)
    analytic = {}
    for name, p in params:
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise T.NonFiniteError(f"non-finite analytic gradient in {name}")
        analytic[name] = p.grad.copy() if p.grad is not None \
            else np.zeros_like(p.data)

    if eps <= 0:
        raise ValueError("grad_check: eps must be positive")
    worst = 0.0
    for name, p in params:
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(f().data)
            flat[i] = orig - eps
            down = float(f().data)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise T.NonFiniteError(
                    f"non-finite loss while perturbing {name}[{i}]")
            numeric = (up - down) / (2.0 * eps)
            err = abs(ana[i] - numeric) / max(1.0, abs(ana[i]), abs(numeric))
            if err > worst:
                worst = err
    return worst
