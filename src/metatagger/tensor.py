"""Dense float64 tensors with define-by-run reverse-mode differentiation.

The op set is deliberately small: just the ops the tagger's forward pass
runs (``add``, ``matmul``, ``concat``, ``elu``, ``take_rows`` and
``reshape``), with the fused LSTM, loss and attention ops and the dropout
mask of ``nn`` registered through ``record``; ops only the tests compose
live in ``tests/oracles.py``. Matrix products take 2-D operands only.
Forward values are computed eagerly. Inside the ``with`` block of a
:class:`Graph`, every op that touches a ``requires_grad`` tensor appends a
tape entry, and ``backward`` replays the tape in reverse; gradients
accumulate additively when a tensor feeds several ops. Outside any
``Graph`` ops record nothing and return untracked tensors: evaluation and
tagging run there.

Everything runs in double precision so the finite-difference checks in the
test-suite are meaningful at 1e-4 relative tolerance.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op."""


class GraphError(RuntimeError):
    """Raised on tape misuse (backward twice, non-scalar loss, ...)."""


class NonFiniteError(FloatingPointError):
    """Raised when a gradient or a loss holds NaN or infinity."""


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

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """View of the same values that no gradient can flow into."""
        return Tensor(self.data, requires_grad=False)

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


_ACTIVE: list["Graph"] = []


class Graph:
    """Tape of the ops applied within a ``with`` block, in execution order.

    Append order is a topological order by construction, so ``backward``
    is a single reverse sweep. A graph is single-use: build it, call
    ``backward`` once, discard it. The sweep releases saved state as it
    goes: each node's backward closure, and with it the forward values only
    that closure held, is dropped once it has run, and the sweep keeps no
    reference of its own to the gradients a node returned once they are
    summed into their tensors, so memory falls as the gradients grow. The
    nodes, their outputs and the outputs' ``grad`` stay. Parameters
    outlive graphs; their ``grad`` fields keep accumulating until cleared
    by the caller.

    ``when_final`` hooks a call into the sweep at the point where a
    tensor's gradient is complete, the earliest node that reads it: the
    training loop folds each parameter's gradient into its optimizer's
    moments there, which frees it.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._used = False
        self._hooks: list[tuple[Tensor, Callable[[], None]]] = []

    def __enter__(self) -> "Graph":
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.pop()

    def when_final(self, tensor: Tensor, fn: Callable[[], None]) -> None:
        """Have ``backward`` call ``fn()`` once, as soon as the sweep has
        run every recorded node that takes ``tensor`` as an input: no
        later node adds to its gradient. If no node reads it, ``fn`` runs
        at the end of the sweep. Register before ``backward``; hooks due
        at the same node run in the order registered."""
        self._hooks.append((tensor, fn))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from
        loss, calling the ``when_final`` hooks as their tensors' gradients
        are complete."""
        if loss.data.shape != ():
            raise GraphError(f"backward expects a scalar loss, got shape {loss.shape}")
        if self._used:
            raise GraphError("backward called twice on the same graph; rebuild the forward pass")
        self._used = True
        # node index -> hooks due once it has run; -1 when nothing reads
        # their tensor
        due: dict[int, list] = {}
        first_reader: dict[int, int] = {}  # id of an input -> node index
        for i, node in enumerate(self.nodes):
            for t in node.inputs:
                first_reader.setdefault(id(t), i)
        for tensor, fn in self._hooks:
            due.setdefault(first_reader.get(id(tensor), -1), []).append(fn)
        loss.grad = np.ones((), dtype=np.float64)
        for i in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[i]
            out_grad = node.output.grad
            if out_grad is not None:
                input_grads = node.backward_fn(out_grad)
                node.backward_fn = None
                for tensor, g in zip(node.inputs, input_grads):
                    if g is None or not tensor.requires_grad:
                        continue
                    if tensor.grad is None:
                        tensor.grad = g
                    else:
                        tensor.grad = tensor.grad + g
                # the loop's own references would keep these arrays, and
                # any the inputs took none of, alive through the next node
                input_grads = g = None
            for fn in due.pop(i, ()):
                fn()
        for fn in due.pop(-1, ()):
            fn()


def active_graph() -> Graph | None:
    return _ACTIVE[-1] if _ACTIVE else None


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D operands."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return (g @ bd.T, ad.T @ g)

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


def logistic_(v: np.ndarray) -> np.ndarray:
    """Logistic 1 / (1 + exp(-v)), in place; returns ``v``.

    For v below about -709 exp(-v) overflows to inf and the result is
    exactly 0, which is why the overflow is not reported. The one logistic
    of the package: the fused LSTM gates use it, in place on each step's
    pre-activations.
    """
    with np.errstate(over="ignore"):
        np.negative(v, out=v)
        np.exp(v, out=v)
    v += 1.0
    np.divide(1.0, v, out=v)
    return v


def elu(a: Tensor) -> Tensor:
    """ELU with alpha=1: x for x > 0, exp(x) - 1 otherwise. ``expm1`` runs
    on the other elements only, so a large x does not overflow it."""
    pos = a.data > 0
    out = a.data.copy()
    np.expm1(out, out=out, where=~pos)

    def bwd(g):
        return (g * np.where(pos, 1.0, out + 1.0),)

    return record("elu", (a,), out, bwd)


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


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    return record("reshape", (a,), a.data.reshape(shape), bwd)
