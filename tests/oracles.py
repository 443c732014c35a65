"""Reference implementations the tests compare the package against.

Each is the plain composition of the package's primitive ops that a fused
or batched op of ``src/`` replaces, kept readable rather than fast:

* ``lstm_step``: one LSTM cell update; ``nn.lstm_run`` is pinned to it;
* ``softmax_xent``: the cross-entropy of one logits vector, per row of
  ``nn.softmax_xent_rows``;
* ``mean_loss``: the mean of per-sentence losses, which a training batch
  loss equals by weighting its token rows.
"""

from metatagger import nn
from metatagger import tensor as T


def lstm_step(params: nn.LstmParams, x_t: T.Tensor, h_prev: T.Tensor,
              c_prev: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """One cell update from primitive ops: i,f,o = sigmoid, g = tanh,
    c = f*c_prev + i*g, h = o*tanh(c)."""
    hs = params.hidden_size
    if x_t.shape != (params.input_size,):
        raise T.ShapeError(
            f"lstm_step: input shape {x_t.shape} != ({params.input_size},)")
    s = T.add(T.add(T.matmul(x_t, params.w_x), T.matmul(h_prev, params.w_h)),
              params.bias)
    i = T.sigmoid(T.slice_rows(s, 0, hs))
    f = T.sigmoid(T.slice_rows(s, hs, 2 * hs))
    g = T.tanh(T.slice_rows(s, 2 * hs, 3 * hs))
    o = T.sigmoid(T.slice_rows(s, 3 * hs, 4 * hs))
    c = T.add(T.mul(f, c_prev), T.mul(i, g))
    h = T.mul(o, T.tanh(c))
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
    return T.scale(total, 1.0 / len(losses))
