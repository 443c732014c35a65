"""Neural layers on top of the tensor core.

Contains inverted dropout masks, the LSTM, stacked BiLSTMs, one affine
layer (``Affine``), softmax cross-entropy and the attention pool used by
the token-internal character baseline.

The char, word and meta models share one body, ``ViewParams``, run by
``view_forward``: input dropout, a BiLSTM stack, an ELU-over-affine MLP
over the stack's rows or, for the character model, the states gathered
at each token's first and last character, and an affine classifier.
``view_forward`` alone knows where in the stack's output each gathered
state lies; the character model hands it token spans and part names,
which this module names (``GATHER_PARTS``), as it names the weight init
kinds it implements (``INIT_KINDS``).

The LSTM has one path, ``lstm_run``: a fused op over a batch of sequences
of different lengths, packed time-major the way PyTorch's PackedSequence
is. Each step advances the sequences still running with one
(live, H) @ (H, 4H) product; the hand-written backward mirrors the
loop. What a run holds, recorded or not, is stated by ``lstm_run``, and
how a recorded one rebuilds the rest for its backward by ``_direction``.
Its gates use the package's one logistic, ``tensor.logistic_``, in one
call in place on each step's (live, 4H) pre-activations; the candidate
columns then take the tanh of a copy of theirs. The readable reference
the tests pin the fused op to, the same cell composed from primitive
ops, is ``lstm_step`` in ``tests/oracles.py``.

A BiLSTM stack (``Stack``) is its list of layers, each a forward and a
backward direction.
A BiLSTM layer is one ``lstm_run`` call with a ``reverse`` direction,
which reads each sequence from its end through the packing's reverse
rows and writes its states beside the forward ones. The two directions
share no state, so for large enough layers the reverse one runs on a
single module-level worker thread while the caller runs the forward one,
in the forward and in the backward pass; numpy releases the GIL in its
products, so they overlap even with single-threaded BLAS. The worker
runs plain numpy only: the tape is read and written on the calling
thread, and each direction does exactly the arithmetic it would alone.
The worker also serves ``training.Adam``, whose large enough folds and
steps run the second half of their blocks there, and
``training.checkpoint_load``, which reads the second half of a
checkpoint's array bytes there; both go through ``run_calls``, which
states when the worker is free.

Batches are B sequences stacked row-wise with their ``lengths``.
Dropout masks are drawn up front, sequence by sequence, by
``draw_masks`` and applied per sequence, so a batch consumes the random
generator exactly as running its sequences one at a time would. A mask
is a constant of the op that applies it, never a tape input, and no
gradient is computed for it: ``apply_mask``'s one node, or ``lstm_run``'s
``h_mask``, ``reverse_mask`` and ``x_mask``.
"""

from __future__ import annotations

from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .tensor import Tensor

if TYPE_CHECKING:
    from .training import TrainConfig

# One dropout site of a model: (key, mask width, rate).
Site = tuple[str, int, float]
# A BiLSTM stack: per layer its (forward, backward) directions; each layer
# after the first reads the concatenation of both outputs of the one below.
Stack = list[tuple["LstmParams", "LstmParams"]]


def gaussian(shape, rng: np.random.Generator, std: float) -> Tensor:
    """A trainable parameter drawn zero-mean Gaussian from ``rng``."""
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def zeros(shape) -> Tensor:
    """A trainable parameter of zeros."""
    return Tensor(np.zeros(shape), requires_grad=True)


# The weight init kinds ``init_std`` implements.
INIT_KINDS = ("gaussian", "scaled")


def init_std(kind: str, fan_in: int) -> float:
    """Weight init scale: "gaussian" is unit variance, "scaled" is
    1/sqrt(fan_in)."""
    if kind == "gaussian":
        return 1.0
    if kind == "scaled":
        return 1.0 / np.sqrt(fan_in)
    raise ValueError(f"unknown init kind {kind!r}")


# ---------------------------------------------------------------------------
# dropout

def draw_masks(rng: np.random.Generator, units, *site_fns
               ) -> list[dict[str, np.ndarray]]:
    """Inverted-dropout masks for a batch, one dict per model.

    ``site_fns[m](unit)`` lists the sites model m draws for one unit (a
    sentence, or a sequence), in the order its forward pass draws them.
    Draws go unit by unit and, within a unit, model by model in the order
    given: the draws a loop over the units would make. Each dict maps a
    site key to its masks stacked in unit order, one (size,) row per draw;
    a site with rate 0 draws nothing and has no entry.
    """
    rows = [defaultdict(list) for _ in site_fns]
    for unit in units:
        for out, sites in zip(rows, site_fns):
            for key, size, rate in sites(unit):
                if not 0.0 <= rate < 1.0:
                    raise ValueError(
                        f"dropout rate must be in [0, 1), got {rate}")
                if rate:
                    keep = 1.0 - rate
                    out[key].append((rng.random(size) < keep) / keep)
    return [{key: np.stack(masks) for key, masks in r.items()} for r in rows]


def apply_mask(x: Tensor, mask: np.ndarray | None, lengths) -> Tensor:
    """Multiply the rows of each sequence of ``x`` by its own row of
    ``mask`` (one per sequence, reused at every position); identity for
    None. One "mask" node, whose one input is ``x``."""
    if mask is None:
        return x
    rows = np.repeat(mask, lengths, axis=0)
    return T.record("mask", (x,), x.data * rows, lambda g: (g * rows,))


# ---------------------------------------------------------------------------
# LSTM

@dataclass
class LstmParams:
    """One LSTM direction. Gate order in the fused 4H axis: input, forget,
    candidate, output. ``h0``/``c0`` are the trainable start state."""
    input_size: int
    hidden_size: int
    w_x: Tensor  # (input_size, 4H)
    w_h: Tensor  # (hidden_size, 4H)
    bias: Tensor  # (4H,)
    h0: Tensor  # (H,)
    c0: Tensor  # (H,)

    def parameters(self, prefix: str):
        return [(f"{prefix}.w_x", self.w_x), (f"{prefix}.w_h", self.w_h),
                (f"{prefix}.bias", self.bias), (f"{prefix}.h0", self.h0),
                (f"{prefix}.c0", self.c0)]


def lstm_params(input_size: int, hidden_size: int, rng: np.random.Generator,
                init: str = "scaled") -> LstmParams:
    """Weights Gaussian at the chosen scale, biases and start state zero
    (forget-gate bias included)."""
    return LstmParams(
        input_size=input_size, hidden_size=hidden_size,
        w_x=gaussian((input_size, 4 * hidden_size), rng, init_std(init, input_size)),
        w_h=gaussian((hidden_size, 4 * hidden_size), rng, init_std(init, hidden_size)),
        bias=zeros((4 * hidden_size,)),
        h0=zeros((hidden_size,)),
        c0=zeros((hidden_size,)),
    )


def _check_lengths(lengths, n: int, op: str) -> np.ndarray:
    """Sequence lengths of a batch of ``n`` stacked rows."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 \
            or lengths.sum() != n:
        raise T.ShapeError(f"{op}: lengths {lengths.tolist()} must be >= 1 "
                           f"and sum to the {n} rows")
    return lengths


def _packing(lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """Time-major packed layout of stacked sequences, for both directions.

    Sequences are sorted longest first (ties keep batch order), so at step
    t the live ones are a prefix of that order, ``batch_sizes[t]`` of them.
    Returns (rows, reverse_rows, batch_sizes, order, ranks): packed row i
    holds stacked row ``rows[i]`` of sorted sequence ``ranks[i]``, the
    sequence's t-th row at step t, and sorted sequence r is batch sequence
    ``order[r]``. ``reverse_rows[i]`` is that sequence's t-th row from its
    end, the row the reverse direction reads there.
    """
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    live = np.arange(sorted_len[0])[:, None] < sorted_len[None, :]
    steps, ranks = np.nonzero(live)  # row-major: time, then sorted rank
    seqs = order[ranks]
    starts = (np.cumsum(lengths) - lengths)[seqs]
    return (starts + steps, starts + lengths[seqs] - 1 - steps,
            live.sum(axis=1), order, ranks)


# Multiply-adds of one direction (rows x 4H x (input + H)) below which a
# two-direction lstm_run runs both directions on the calling thread: for
# small layers the hand-off to the worker and the contention for the GIL
# cost more than the second core gives back (break-even measured near 1e7
# on a 2-core x86 VM with single-threaded OpenBLAS).
_PARALLEL_MIN_WORK = 1 << 24
# Starts its thread on the first submit, not at import.
_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="lstm_run")
# Packed rows whose input projection an unrecorded direction computes at
# a time, rounded down to whole steps but never below one step: that
# block's (rows, 4H) pre-activations and (rows, input) packed input are
# all it holds of them. 256 and 512 ran a default-size char layer equally
# fast on a 2-core x86 VM; 256 holds less.
_PROJECT_ROWS = 256


def run_calls(parallel: bool, calls: list) -> list:
    """Results of ``calls``, one or two (fn, *args) tuples, in order.

    With ``parallel`` the second of two calls runs on the module's one
    worker thread while this one runs the first, under this thread's
    numpy error policy (numpy keeps one per thread). The worker is always
    waited for before this returns or raises; an exception raised on it
    is raised here, unless the first call raised already.

    Its users are ``lstm_run``, ``training.Adam`` and
    ``training.checkpoint_load``. The rule each keeps: the worker runs
    only what a call of this function gave it, so it is free whenever no
    such call is under way. Code between ops, such as
    ``training.Adam.fold`` run from a tape hook, may therefore call this
    from the calling thread; it must never be called from the worker
    itself.
    """
    if not parallel:
        return [fn(*args) for fn, *args in calls]
    (fn, *args), second = calls
    future = _WORKER.submit(_with_errstate, np.geterr(), *second)
    try:
        first = fn(*args)
    except BaseException:
        wait([future])
        raise
    return [first, future.result()]


def _with_errstate(policy: dict, fn, *args):
    """``fn(*args)`` under ``policy``, a numpy error policy from geterr."""
    with np.errstate(**policy):
        return fn(*args)


def _packed_input(xs: np.ndarray, rows: np.ndarray, ranks: np.ndarray,
                  x_mask: np.ndarray | None) -> np.ndarray:
    """Rows ``rows`` of ``xs``, each times the ``x_mask`` row of its
    sorted sequence (``ranks``, see ``_packing``); a fresh array."""
    x = xs[rows]
    if x_mask is not None:
        x *= x_mask[ranks]
    return x


def _direction(params: LstmParams, xs: np.ndarray, x_mask: np.ndarray | None,
               mask: np.ndarray | None, rows: np.ndarray, ranks: np.ndarray,
               batch_sizes: np.ndarray, dest: np.ndarray, track: bool,
               input_grad: bool):
    """One direction of ``lstm_run`` in plain numpy, safe to run off the
    calling thread: it never touches the tape.

    Runs the packed rows ``rows`` of ``xs`` (layout from ``_packing``),
    each times its sequence's sorted ``x_mask`` row, writes the hidden
    state of stacked row ``rows[i]`` to ``dest[rows[i]]`` and returns the
    backward closure, or None unless ``track``; the closure returns no
    gradient for ``xs`` unless ``input_grad``. The steps run a block of
    whole steps at a time: the block's input projection is one product,
    and its hidden states go to ``dest`` when its last step has run.

    With ``track`` the block is every row, and the closure keeps only the
    (n, 4H) gate values beside ``xs`` and ``dest``. It rebuilds the rest
    from those: first the (n, H) cell states, from the gates and c0 with
    the forward's ops in the forward's order, so bitwise the forward's;
    then the masked input, the masked states each step read (``dest``
    rows of the step before, or h0, times ``mask``) and, step by step,
    the tanh of the cell states. ``dest`` must therefore hold the run's
    output until the backward. Each step of the backward's loop writes its
    gate gradients over its own gate values, which no other step reads,
    so the gates' buffer ends up holding their gradient and the closure
    allocates no second (n, 4H) array. The masked states go in the cell
    states' buffer once the step loop is done with it, and the input
    gradient, returned in packed row order, in the masked input's.
    Without ``track`` a block is at most ``_PROJECT_ROWS`` rows, and all
    the run holds beside ``dest`` is one block's packed input, gates, cell
    and hidden states.
    """
    n, hs = rows.size, params.hidden_size
    n_seq = batch_sizes[0]
    wx, wh = params.w_x.data, params.w_h.data
    cand = np.empty((n_seq, hs))  # a step's candidate pre-activations
    offsets = np.concatenate(([0], np.cumsum(batch_sizes)))
    budget = n if track else _PROJECT_ROWS
    h0 = np.broadcast_to(params.h0.data, (n_seq, hs))
    c0 = np.broadcast_to(params.c0.data, (n_seq, hs))
    # packed rows b0:b1 have their pre-activations in gates, turned into
    # gate values in place step by step, their cell states in cs and their
    # hidden states in out: views of buffers every block reuses
    size = min(n, max(budget, n_seq, 2))  # a lone row takes a neighbour
    g_buf = np.empty((size, 4 * hs))
    c_buf, h_buf = np.empty((size, hs)), np.empty((size, hs))
    b0 = b1 = 0
    for t, k in enumerate(batch_sizes):
        r0, r1 = offsets[t], offsets[t + 1]
        if r1 > b1:
            b0, b1 = r0, max(r1, offsets[np.searchsorted(
                offsets, r0 + budget, "right") - 1])
            lo, hi = b0, b1
            if hi - lo == 1 and n > 1:
                # numpy multiplies a lone row with gemv, whose sums can
                # differ in the last bit from gemm's: take a neighbour too
                lo, hi = (lo, hi + 1) if hi < n else (lo - 1, hi)
            gates = np.matmul(
                _packed_input(xs, rows[lo:hi], ranks[lo:hi], x_mask), wx,
                out=g_buf[:hi - lo])[b0 - lo:b1 - lo]
            gates += params.bias.data
            cs, out = c_buf[:b1 - b0], h_buf[:b1 - b0]
        # after a one-step block, the next block's first step writes its
        # states over the rows it reads them from, each read first
        hp, cp = (h0[:k], c0[:k]) if t == 0 else (h[:k], c[:k])
        if mask is not None:
            hp = hp * mask[:k]
        a = gates[r0 - b0:r1 - b0]
        a += hp @ wh
        # one logistic over the whole contiguous block, candidate columns
        # too; their tanh, from a copy taken before, then overwrites them
        np.copyto(cand[:k], a[:, 2 * hs:3 * hs])
        T.logistic_(a)
        np.tanh(cand[:k], out=a[:, 2 * hs:3 * hs])
        c = cs[r0 - b0:r1 - b0]
        np.multiply(a[:, hs:2 * hs], cp, out=c)
        c += a[:, :hs] * a[:, 2 * hs:3 * hs]
        h = out[r0 - b0:r1 - b0]
        np.multiply(a[:, 3 * hs:], np.tanh(c), out=h)
        if r1 == b1:
            dest[rows[b0:b1]] = out
    if not track:
        return None

    def bwd(g_out):
        """Gradients of xs, w_x, w_h, bias, h0 and c0 from ``g_out``, the
        gradient of ``dest``."""
        # c_t = i_t g_t + f_t c_{t-1}: the forward's two products, summed
        # in the other order, which gives the same bits
        cs = gates[:, :hs] * gates[:, 2 * hs:3 * hs]
        for t, k in enumerate(batch_sizes):
            r0, r1 = offsets[t], offsets[t + 1]
            cp = c0[:k] if t == 0 else cs[offsets[t - 1]:offsets[t - 1] + k]
            cs[r0:r1] += gates[r0:r1, hs:2 * hs] * cp
        dh = np.zeros((n_seq, hs))  # gradient reaching h_{t-1}, per sequence
        dc = np.zeros((n_seq, hs))
        for t in range(len(batch_sizes) - 1, -1, -1):
            k = batch_sizes[t]
            r0, r1 = offsets[t], offsets[t] + k
            cp = c0[:k] if t == 0 else cs[offsets[t - 1]:offsets[t - 1] + k]
            a, tc = gates[r0:r1], np.tanh(cs[r0:r1])
            ig, fg = a[:, :hs], a[:, hs:2 * hs]
            gg, og = a[:, 2 * hs:3 * hs], a[:, 3 * hs:]
            dht = g_out[rows[r0:r1]] + dh[:k]
            dct = dc[:k] + dht * og * (1.0 - tc * tc)
            # the step's gate gradients go over its own gate values, which
            # no other step reads: a column block is written once every
            # gradient that reads it is computed, the input gate's last
            d_ig = dct * gg * ig * (1.0 - ig)
            dc[:k] = dct * fg
            fg[...] = dct * cp * fg * (1.0 - fg)
            gg[...] = dct * ig * (1.0 - gg * gg)
            og[...] = dht * tc * og * (1.0 - og)
            ig[...] = d_ig
            dh[:k] = a @ wh.T
            if mask is not None:
                dh[:k] *= mask[:k]
        d_s = gates  # now every row's gate gradients
        # step t > 0 read rows offsets[t-1]: offsets[t-1] + k of the step
        # before, a shift by batch_sizes[t-1]; rebuilt in the cell states'
        # buffer, dead once the loop has run
        h_tilde, cs = cs, None
        h_tilde[:n_seq] = h0
        h_tilde[n_seq:] = dest[rows[np.arange(n_seq, n) - np.repeat(
            batch_sizes[:-1], batch_sizes[1:])]]
        if mask is not None:
            h_tilde *= mask[ranks]
        d_wh = h_tilde.T @ d_s
        del h_tilde
        px = _packed_input(xs, rows, ranks, x_mask)
        d_wx = px.T @ d_s
        d_px = np.matmul(d_s, wx.T, out=px) if input_grad else None
        return (d_px, d_wx, d_wh, d_s.sum(axis=0), dh.sum(axis=0),
                dc.sum(axis=0))

    return bwd


def lstm_run(params: LstmParams, xs: Tensor, h_mask: np.ndarray | None = None,
             *, lengths, reverse: LstmParams | None = None,
             reverse_mask: np.ndarray | None = None,
             x_mask: np.ndarray | None = None) -> Tensor:
    """Run the cell over B sequences stacked as the rows of ``xs``.

    ``lengths`` (B,) splits the N rows into sequences, in order; a lone
    sequence is ``lengths=[N]``. Returns the (N, hidden) hidden states in
    the same row order. Every sequence starts from h0/c0. When ``h_mask``
    is given, (B, hidden) with one row per sequence, it multiplies the
    hidden state (including h0) before each recurrence step, the same
    mask row at every step of a sequence. ``x_mask``, (B, input_size),
    likewise multiplies each sequence's input rows: the result is that of
    ``apply_mask(xs, x_mask, lengths)`` run without it, bitwise.

    With ``reverse`` (and its own ``reverse_mask``) the op is one BiLSTM
    layer: a second direction reads each sequence from its end, and the
    result is (N, 2 * hidden), the forward states then the reverse ones,
    row by row. The reverse direction runs on a worker thread while this
    one runs the forward direction, forward and backward alike, unless
    the layer is too small to gain from it (``_PARALLEL_MIN_WORK``).

    One or two directions take the same path: each is one ``_direction``
    run over its own packed rows (see ``_packing``) with its masks sorted
    to the packed order, writing its ``hidden`` columns of the result.
    One tape node; its backward, written by hand, mirrors the loop of
    each direction. It adds the forward direction's input gradient,
    moved to the reverse one's packed order, into the reverse one's,
    multiplies the sum by ``x_mask`` and gathers it into the stacked rows
    once; it computes no input gradient when ``xs`` takes none.
    Only what the backward reads is kept: a recorded run holds, per
    direction, its (N, 4 * hidden) gate values beside ``xs``, the masks and
    its own result, and rebuilds the cell states, the masked input and the
    masked states from those; the backward writes the gates' gradients
    over the gate values. An unrecorded one holds, beside the result,
    one block of at most ``_PROJECT_ROWS`` packed rows per direction at a
    time, so its memory grows with the (N, 2 * hidden) result and not with
    the (N, 4 * hidden) gates.
    """
    if xs.ndim != 2 or xs.shape[1] != params.input_size:
        raise T.ShapeError(
            f"lstm_run: input shape {xs.shape} incompatible with "
            f"input_size {params.input_size}")
    if reverse is not None and (reverse.input_size, reverse.hidden_size) \
            != (params.input_size, params.hidden_size):
        raise T.ShapeError(
            f"lstm_run: reverse direction is {reverse.input_size} -> "
            f"{reverse.hidden_size}, forward {params.input_size} -> "
            f"{params.hidden_size}")
    n = xs.shape[0]
    lengths = _check_lengths(lengths, n, "lstm_run")
    hs = params.hidden_size
    rows, reverse_rows, batch_sizes, order, ranks = _packing(lengths)

    def checked(m, name, width):
        if m is None:
            return None
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (lengths.size, width):
            raise T.ShapeError(f"lstm_run: {name} shape {m.shape} is not "
                               f"({lengths.size}, {width})")
        return m

    x_mask = checked(x_mask, "x_mask", params.input_size)
    x_sorted = None if x_mask is None else x_mask[order]
    # (params, sorted state mask, packed rows) per direction
    runs = [(params, checked(h_mask, "h_mask", hs), rows)]
    if reverse is not None:
        runs.append((reverse, checked(reverse_mask, "reverse_mask", hs),
                     reverse_rows))
    inputs = (xs,) + tuple(t for p, _, _ in runs for t in (
        p.w_x, p.w_h, p.bias, p.h0, p.c0))
    track = T.tracking(inputs)
    parallel = len(runs) == 2 \
        and n * 4 * hs * (params.input_size + hs) >= _PARALLEL_MIN_WORK
    result = np.empty((n, len(runs) * hs))
    input_grad = xs.requires_grad
    bwds = run_calls(parallel, [
        (_direction, p, xs.data, x_sorted, None if m is None else m[order],
         r, ranks, batch_sizes, result[:, k * hs:(k + 1) * hs], track,
         input_grad)
        for k, (p, m, r) in enumerate(runs)])

    def bwd(g_out):
        grads = run_calls(parallel, [
            (b, g_out[:, k * hs:(k + 1) * hs]) for k, b in enumerate(bwds)])
        d_params = tuple(d for g in grads for d in g[1:])
        # each direction's input gradient, in its own packed order
        d_px = [g[0] for g in grads]
        del grads
        if not input_grad:
            return (None,) + d_params
        # the last direction's buffer takes the sum, the forward one's
        # rows moved to its order; each is dropped once read
        d, r = d_px.pop(), runs[-1][2]
        if d_px:
            d += d_px.pop()[np.argsort(rows)[r]]
        if x_sorted is not None:
            d *= x_sorted[ranks]
        return (d[np.argsort(r)],) + d_params

    return T.record("lstm_run", inputs, result, bwd)


# ---------------------------------------------------------------------------
# BiLSTM stack

def bilstm_stack(input_size: int, hidden_size: int, depth: int,
                 rng: np.random.Generator, init: str = "scaled") -> Stack:
    stack = []
    size = input_size
    for _ in range(depth):
        stack.append((lstm_params(size, hidden_size, rng, init),
                      lstm_params(size, hidden_size, rng, init)))
        size = 2 * hidden_size
    return stack


def stack_parameters(stack: Stack, prefix: str):
    """(name, parameter) pairs of ``stack``, layer by layer: the forward
    direction under ``{prefix}.layer{j}.fwd``, then the backward one under
    ``{prefix}.layer{j}.bwd``."""
    out = []
    for j, (fwd, bwd) in enumerate(stack):
        out.extend(fwd.parameters(f"{prefix}.layer{j}.fwd"))
        out.extend(bwd.parameters(f"{prefix}.layer{j}.bwd"))
    return out


def stack_sites(stack: Stack, rate: float) -> list[Site]:
    """Dropout sites of a stack run, in draw order: per layer the input
    mask, then the forward and the backward state masks."""
    sites = []
    for j, (p_fwd, p_bwd) in enumerate(stack):
        sites += [(f"layer{j}.in", p_fwd.input_size, rate),
                  (f"layer{j}.fwd", p_fwd.hidden_size, rate),
                  (f"layer{j}.bwd", p_bwd.hidden_size, rate)]
    return sites


def bilstm_stack_run(stack: Stack, xs: Tensor, *, lengths,
                     masks: dict | None = None) -> Tensor:
    """Top-layer outputs, (rows, 2 * hidden) with the forward states then
    the backward ones, for the sequences stacked in ``xs`` and split by
    ``lengths`` (B,). Each layer is one two-direction ``lstm_run``.

    Dropout comes from ``masks`` (keys from ``stack_sites``): one input
    mask per layer, reused across time, and one recurrent-state mask per
    direction per layer. ``lstm_run`` applies both, so a layer records
    one tape node and no masked copy of its input.
    """
    if not stack:
        raise T.ShapeError("bilstm_stack_run: stack has no layers")
    masks = masks or {}
    h = xs
    for j, (p_fwd, p_bwd) in enumerate(stack):
        h = lstm_run(p_fwd, h, masks.get(f"layer{j}.fwd"), lengths=lengths,
                     reverse=p_bwd, reverse_mask=masks.get(f"layer{j}.bwd"),
                     x_mask=masks.get(f"layer{j}.in"))
    return h


# ---------------------------------------------------------------------------
# affine layer and the shared view body

@dataclass
class Affine:
    """``x @ weight + bias``: the MLP's map (under ELU) and every
    classifier."""
    weight: Tensor  # (in, out)
    bias: Tensor  # (out,)

    def parameters(self, prefix: str):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


def affine_params(input_size: int, output_size: int, rng: np.random.Generator,
                  init: str) -> Affine:
    """Weight Gaussian at the ``init`` scale, bias zero."""
    return Affine(weight=gaussian((input_size, output_size), rng,
                                  init_std(init, input_size)),
                  bias=zeros((output_size,)))


def affine(p: Affine, x: Tensor) -> Tensor:
    return T.add(T.matmul(x, p.weight), p.bias)


@dataclass
class ViewParams:
    """The body of the char, word and meta models, run by
    ``view_forward``: dropout on its input rows, BiLSTM stack (a
    ``Stack``, whose widths its first layer's forward direction gives),
    ELU MLP with dropout on its output, classifier. The owning model
    builds the input rows and puts its embedding tables' names in front."""
    stack: Stack
    mlp: Affine
    classifier: Affine
    emb_dropout: float
    lstm_dropout: float
    mlp_dropout: float

    def dropout_sites(self, sentence) -> list[Site]:
        """The input rows' site ("emb"), the stack's, then the MLP
        output's ("mlp"); a site at rate 0 draws nothing."""
        return ([("emb", self.stack[0][0].input_size,
                  self.emb_dropout)]
                + stack_sites(self.stack, self.lstm_dropout)
                + [("mlp", self.mlp.weight.shape[1], self.mlp_dropout)])

    def parameters(self, prefix: str):
        return (stack_parameters(self.stack, f"{prefix}.stack")
                + self.mlp.parameters(f"{prefix}.mlp")
                + self.classifier.parameters(f"{prefix}.classifier"))


def view_params(config: TrainConfig, view: str, input_size: int, n_tags: int,
                rng: np.random.Generator, parts: int = 2,
                emb_dropout: float = 0.0) -> ViewParams:
    """The ``view`` ("char", "word" or "meta") model's body: its
    ``{view}_bilstm_*`` stack over ``input_size`` columns (input dropout
    ``emb_dropout``), drawn first, then the MLP over ``parts`` hidden-width
    parts (the two directions, or the character model's gathered states),
    then the "scaled" classifier to ``n_tags`` logits."""
    hidden = getattr(config, f"{view}_bilstm_size")
    stack = bilstm_stack(input_size, hidden,
                         getattr(config, f"{view}_bilstm_layers"), rng,
                         config.lstm_init)
    mlp = affine_params(parts * hidden, config.mlp_size, rng, config.mlp_init)
    classifier = affine_params(config.mlp_size, n_tags, rng, "scaled")
    return ViewParams(stack, mlp, classifier, emb_dropout,
                      config.lstm_dropout, config.mlp_dropout)


GATHER_PARTS = ("F_1st", "F_last", "B_1st", "B_last")


def canonical_gather(parts) -> tuple[str, ...]:
    """Validate a gather strategy and fix its order to the canonical one."""
    got = set(parts)
    bad = got - set(GATHER_PARTS)
    if bad:
        raise ValueError(f"unknown gather parts {sorted(bad)}; "
                         f"valid: {GATHER_PARTS}")
    if not got:
        raise ValueError("gather strategy must name at least one output")
    return tuple(p for p in GATHER_PARTS if p in got)


def view_forward(p: ViewParams, x: Tensor, lengths, masks: dict | None,
                 gather=None) -> tuple[Tensor, Tensor, Tensor]:
    """(rows, MLP output, logits) of the body ``p`` over the input rows
    ``x`` of the sequences split by ``lengths``, each part under its mask
    of ``masks`` (see ``dropout_sites``). The rows are the stack's output
    unless ``gather``, the character model's (spans, parts, counts), is
    given. Then the rows are the tokens, split by ``counts``, the
    sentences' token counts: each row of ``spans`` (tokens, 2) holds a
    token's first and last row of ``x``, and its row holds side by side
    the states ``parts`` names, "F_1st" and "F_last" the forward state
    at its first and last row, "B_1st" and "B_last" the backward one."""
    masks = masks or {}
    rows = bilstm_stack_run(p.stack, apply_mask(x, masks.get("emb"), lengths),
                            lengths=lengths, masks=masks)
    if gather is not None:
        spans, parts, lengths = gather
        hidden = p.stack[0][0].hidden_size
        # row 2i of the output seen as (2 * N, hidden) is row i's forward
        # state and row 2i + 1 its backward one
        firsts, lasts = 2 * spans[:, 0], 2 * spans[:, 1]
        source = dict(zip(GATHER_PARTS,
                          (firsts, lasts, firsts + 1, lasts + 1)))
        ids = np.stack([source[name] for name in parts], axis=1)
        rows = T.reshape(
            T.take_rows(T.reshape(rows, (2 * rows.shape[0], hidden)),
                        ids.reshape(-1)),
            (len(ids), len(parts) * hidden))
    m = apply_mask(T.elu(affine(p.mlp, rows)), masks.get("mlp"), lengths)
    return rows, m, affine(p.classifier, m)


# ---------------------------------------------------------------------------
# losses and prediction

def softmax_xent_rows(logits: Tensor, golds, weights=None) -> Tensor:
    """Weighted sum over rows of -log softmax(row)[gold]; the weights
    default to 1/rows, the mean. Max-subtracted and taken in log space, so
    a gold logit far below its row's maximum gives a large finite loss.
    One fused tape node."""
    golds = np.asarray(golds, dtype=np.intp)
    if logits.ndim != 2:
        raise T.ShapeError(f"softmax_xent: logits must be 2-D, got {logits.shape}")
    n, k = logits.shape
    if golds.shape != (n,):
        raise T.ShapeError(
            f"softmax_xent: {n} logit rows vs {golds.shape} gold labels")
    if n == 0:
        raise T.ShapeError("softmax_xent: empty batch")
    if golds.min() < 0 or golds.max() >= k:
        raise IndexError(f"softmax_xent: gold label out of range 0..{k - 1}")
    if weights is None:
        weights = np.full(n, 1.0 / n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise T.ShapeError(
            f"softmax_xent: {n} logit rows vs {weights.shape} weights")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    sums = ez.sum(axis=1, keepdims=True)
    probs = ez / sums
    rows = np.arange(n)
    loss = float(-np.dot(weights, shifted[rows, golds] - np.log(sums[:, 0])))

    def bwd(g):
        d = probs.copy()
        d[rows, golds] -= 1.0
        return (d * (g * weights)[:, None],)

    return T.record("softmax_xent", (logits,), np.float64(loss), bwd)


def predict_tags(logits: Tensor) -> np.ndarray:
    """Argmax per row; ties resolve to the lowest tag id."""
    return np.argmax(logits.data, axis=-1)


# ---------------------------------------------------------------------------
# token-internal character attention (DQM pooling)

def char_attention(score_vec: Tensor, states: Tensor, lengths) -> Tensor:
    """Attention pool over each token's character LSTM states, plus the
    token's final state.

    ``states`` stacks the tokens' states, split by ``lengths`` (tokens,).
    Scores are dot products with a learned vector; the
    softmax-weighted sum of a token's states (softmax within the token) is
    added to its last state. Returns (tokens, hidden). One fused tape
    node.
    """
    if states.ndim != 2 or states.shape[0] == 0:
        raise T.ShapeError(f"char_attention: need (chars, hidden) states, "
                           f"got {states.shape}")
    lens = _check_lengths(lengths, states.shape[0], "char_attention")
    ends = np.cumsum(lens)
    starts, lasts = ends - lens, ends - 1
    seg = np.repeat(np.arange(lens.size), lens)
    s, v = states.data, score_vec.data
    scores = s @ v
    e = np.exp(scores - np.maximum.reduceat(scores, starts)[seg])
    alpha = e / np.add.reduceat(e, starts)[seg]
    out = np.add.reduceat(alpha[:, None] * s, starts, axis=0) + s[lasts]

    def bwd(g):
        g_rows = g[seg]
        d_alpha = (s * g_rows).sum(axis=1)
        d_scores = alpha * (d_alpha
                            - np.add.reduceat(alpha * d_alpha, starts)[seg])
        d_states = alpha[:, None] * g_rows + np.outer(d_scores, v)
        d_states[lasts] += g
        return (s.T @ d_scores, d_states)

    return T.record("char_attention", (score_vec, states), out, bwd)
