"""Dense float64 tensors with define-by-run reverse-mode differentiation.

The op set is deliberately small: just enough 1-D/2-D primitives to express
embedding lookups, LSTM recurrences, MLPs and cross-entropy losses. Forward
values are computed eagerly; when a :class:`Graph` is active, every op that
touches a ``requires_grad`` tensor appends a tape entry, and ``backward``
replays the tape in reverse. Gradients accumulate additively when a tensor
feeds several ops.

Everything runs in double precision so the finite-difference checks in the
test-suite are meaningful at 1e-4 relative tolerance.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op."""


class GraphError(RuntimeError):
    """Raised on tape misuse (backward twice, non-scalar loss, ...)."""


class NonFiniteError(FloatingPointError):
    """Raised when a gradient check encounters NaN or infinity."""


class Tensor:
    """A dense float64 array, optionally tracked by the active graph.

    ``grad`` is populated by ``Graph.backward`` and is always the same shape
    as ``data``. Tensors with ``requires_grad=False`` never receive one.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """View of the same values that no gradient can flow into."""
        return Tensor(self.data, requires_grad=False)

    def sum(self) -> "Tensor":
        return tsum(self)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Node:
    """One recorded operation: inputs, output and its backward closure."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op: str, inputs: tuple, output: Tensor, backward_fn: Callable):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_ACTIVE: list["Graph | None"] = []  # None entries are no_grad scopes


class Graph:
    """Tape of the ops applied within a ``with`` block, in execution order.

    Append order is a topological order by construction, so ``backward``
    is a single reverse sweep. A graph is single-use: build it, call
    ``backward`` once, discard it. Parameters outlive graphs; their ``grad``
    fields keep accumulating until cleared by the caller.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._used = False

    def __enter__(self) -> "Graph":
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.pop()

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from loss."""
        if loss.data.shape != ():
            raise GraphError(f"backward expects a scalar loss, got shape {loss.shape}")
        if self._used:
            raise GraphError("backward called twice on the same graph; rebuild the forward pass")
        self._used = True
        loss.grad = np.ones((), dtype=np.float64)
        for node in reversed(self.nodes):
            out_grad = node.output.grad
            if out_grad is None:
                continue
            input_grads = node.backward_fn(out_grad)
            for tensor, g in zip(node.inputs, input_grads):
                if g is None or not tensor.requires_grad:
                    continue
                if tensor.grad is None:
                    tensor.grad = g
                else:
                    tensor.grad = tensor.grad + g


def active_graph() -> Graph | None:
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def no_grad():
    """Scope in which ops record nothing and return untracked tensors, even
    inside a ``Graph``; a ``Graph`` entered within it records again."""
    _ACTIVE.append(None)
    try:
        yield
    finally:
        _ACTIVE.pop()


def tracking(inputs) -> bool:
    """Whether an op over ``inputs`` would be recorded, so a fused op can
    skip keeping state that only its backward reads."""
    return active_graph() is not None and any(t.requires_grad for t in inputs)


def record(op: str, inputs: tuple, out_data: np.ndarray, backward_fn: Callable) -> Tensor:
    """Create an op's output tensor, recording it on the active graph.

    Higher layers use this to register fused ops (LSTM runs, losses) with
    hand-written backward closures; the closure receives the output gradient
    and returns one gradient (or None) per input, in order.
    """
    track = tracking(inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        active_graph().nodes.append(Node(op, inputs, out, backward_fn))
    return out


def zero_grads(params) -> None:
    """Clear accumulated gradients on an iterable of (name, Tensor) pairs."""
    for _, p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# construction

_RNG = np.random.default_rng(0)


def seed_rng(seed: int) -> None:
    """Reseed the module RNG used by ``create(..., init="gaussian")``."""
    global _RNG
    _RNG = np.random.default_rng(seed)


def create(shape: Sequence[int], init: str = "zeros", *, values=None,
           rng: np.random.Generator | None = None, mean: float = 0.0,
           std: float = 1.0, requires_grad: bool = False) -> Tensor:
    """Build a tensor from an initializer: "zeros", "gaussian" or "explicit".

    Gaussian draws come from ``rng`` when given, else from the module RNG
    (see ``seed_rng``). Explicit values must match the requested shape.
    """
    shape = tuple(int(d) for d in shape)
    if any(d < 1 for d in shape):
        raise ShapeError(f"create: dimensions must be >= 1, got {shape}")
    if init == "zeros":
        data = np.zeros(shape)
    elif init == "gaussian":
        gen = rng if rng is not None else _RNG
        data = gen.normal(mean, std, size=shape)
    elif init == "explicit":
        data = np.asarray(values, dtype=np.float64)
        if data.shape != shape:
            if data.size != int(np.prod(shape)):
                raise ShapeError(
                    f"create: {data.size} explicit values do not fill shape {shape}")
            data = data.reshape(shape)
    else:
        raise ValueError(f"create: unknown init {init!r}")
    return Tensor(data, requires_grad=requires_grad)


def tensor(values, requires_grad: bool = False) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# primitive ops

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition; also supports adding a (D,) bias to a (N, D) matrix."""
    broadcast_bias = a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]
    if not broadcast_bias and a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not conform")
    out = a.data + b.data

    def bwd(g):
        gb = g.sum(axis=0) if broadcast_bias else g
        return (g, gb)

    return record("add", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of same-shaped tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"elementwise_mul: shapes {a.shape} and {b.shape} differ")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return (g * bd, g * ad)

    return record("elementwise_mul", (a, b), out, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * c

    def bwd(g):
        return (g * c,)

    return record("scale", (a,), out, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 2-D x 2-D, 1-D x 2-D and 2-D x 1-D operands."""
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
        ad, bd = a.data, b.data

        def bwd(g):
            return (g @ bd.T, ad.T @ g)

    elif a.ndim == 1 and b.ndim == 2:
        if a.shape[0] != b.shape[0]:
            raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
        ad, bd = a.data, b.data

        def bwd(g):
            return (bd @ g, np.outer(ad, g))

    elif a.ndim == 2 and b.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
        ad, bd = a.data, b.data

        def bwd(g):
            return (np.outer(g, bd), ad.T @ g)

    else:
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    return record("matmul", (a, b), a.data @ b.data, bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; inputs must agree on every other axis."""
    if not parts:
        raise ShapeError("concat: need at least one input")
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat(axis={axis}): {e}") from None
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return record("concat", tuple(parts), out, bwd)


def sigmoid(a: Tensor) -> Tensor:
    out = np.exp(-np.logaddexp(0.0, -a.data))  # stable logistic

    def bwd(g):
        return (g * out * (1.0 - out),)

    return record("sigmoid", (a,), out, bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return record("tanh", (a,), out, bwd)


def elu(a: Tensor) -> Tensor:
    """ELU with alpha=1: x for x > 0, exp(x) - 1 otherwise."""
    pos = a.data > 0
    out = np.where(pos, a.data, np.expm1(a.data))

    def bwd(g):
        return (g * np.where(pos, 1.0, out + 1.0),)

    return record("elu", (a,), out, bwd)


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return record("sum", (a,), np.sum(a.data), bwd)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous range along axis 0."""
    n = a.shape[0]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"slice: range [{start}, {stop}) out of bounds for {a.shape}")
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape)
        full[start:stop] = g
        return (full,)

    return record("slice", (a,), a.data[start:stop].copy(), bwd)


def take_rows(a: Tensor, ids) -> Tensor:
    """Gather rows by (possibly repeated) index; backward scatter-adds."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= a.shape[0]):
        raise IndexError(
            f"take_rows: index out of range for {a.shape[0]} rows: {ids}")
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape)
        np.add.at(full, ids, g)
        return (full,)

    return record("take_rows", (a,), a.data[ids], bwd)


def flip_rows(a: Tensor) -> Tensor:
    """Reverse row order (time reversal for the backward LSTM direction)."""
    def bwd(g):
        return (g[::-1].copy(),)

    return record("flip_rows", (a,), a.data[::-1].copy(), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    return record("reshape", (a,), a.data.reshape(shape), bwd)


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(f: Callable[[], Tensor], params, eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must rebuild its forward pass on every call and be deterministic
    (fix any dropout masks or disable them). ``params`` is an iterable of
    (name, Tensor) pairs; every entry of every parameter is perturbed.

    Returns max over entries of |analytic - numeric| / max(1, |a|, |n|).
    """
    params = list(params)
    zero_grads(params)
    with Graph() as g:
        loss = f()
    g.backward(loss)
    analytic = {}
    for name, p in params:
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise NonFiniteError(f"non-finite analytic gradient in {name}")
        analytic[name] = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)

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
                raise NonFiniteError(f"non-finite loss while perturbing {name}[{i}]")
            numeric = (up - down) / (2.0 * eps)
            err = abs(ana[i] - numeric) / max(1.0, abs(ana[i]), abs(numeric))
            if err > worst:
                worst = err
    return worst
