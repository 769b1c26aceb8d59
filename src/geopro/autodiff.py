"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations record themselves on the active ``Tape`` whenever any operand
requires gradients; ``Tape.backward`` then walks the recording in reverse
and accumulates ``.grad`` on every leaf tensor, one that no op produced.
The op set is deliberately small and every gradient rule lives next to
its forward formula so it can be audited line by line.  ``record_op`` is
the one hook through which ops reach the tape, so a module can add a
fused op with its own hand-written backward.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError, StateError

_CHECK_FINITE = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle NaN/Inf detection on every op output (off by default)."""
    global _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)


def _check_finite(arr: np.ndarray, opname: str) -> np.ndarray:
    if _CHECK_FINITE and not np.all(np.isfinite(arr)):
        raise NumericError(f"{opname} produced non-finite values")
    return arr


class Tensor:
    """A dense row-major float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _TapeNode:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: tuple, backward_fn: Callable):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered recording of ops; supports exactly one backward pass.

    Use as a context manager around the forward computation::

        with Tape() as tape:
            loss = ...
            tape.backward(loss)

    Ops executed outside any tape context are pure inference and record
    nothing.
    """

    def __init__(self):
        self._nodes: list[_TapeNode] = []
        self._tracked: dict[int, Tensor] = {}
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, node: _TapeNode) -> None:
        if self._spent:
            raise StateError("tape already consumed by backward; start a new tape")
        self._nodes.append(node)
        self._tracked[id(node.output)] = node.output
        for t in node.inputs:
            if t.requires_grad:
                self._tracked[id(t)] = t

    def backward(self, loss: Tensor) -> None:
        """Populate .grad = d(loss)/d(leaf) on every leaf of the tape.

        A leaf is a tracked tensor that no recorded op produced, such as
        a parameter.  Leaves unreachable from the loss end up with zero
        gradients.  Only leaves keep ``.grad``: each node is dropped as
        soon as its backward has run and its output's ``.grad`` is reset
        to None, so the recording's memory is released during the walk.
        """
        if self._spent:
            raise StateError("backward already ran on this tape")
        if not self._nodes:
            raise StateError("cannot run backward on an empty tape")
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if id(loss) not in self._tracked:
            raise ContractError("loss was not produced on this tape")
        self._spent = True

        produced = {id(node.output) for node in self._nodes}
        for key, t in self._tracked.items():
            if key not in produced:
                t.grad = np.zeros_like(t.data)
        self._tracked = {}
        loss.grad = np.ones_like(loss.data)

        nodes = self._nodes
        while nodes:
            node = nodes.pop()
            gout = node.output.grad
            if gout is None:
                continue
            node.output.grad = None
            for t, g in zip(node.inputs, node.backward_fn(gout)):
                if g is None or not t.requires_grad:
                    continue
                g = g.reshape(t.data.shape)
                # never in place: a first contribution may be a view of
                # another tensor's gradient
                t.grad = g if t.grad is None else t.grad + g


_TAPE_STACK: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def named_tensors(tree, prefix: str = ""):
    """Yield ``(name, tensor)`` for every ``Tensor`` reachable from
    ``tree`` through dataclass fields and lists, in field order.

    A name joins the field names on the way with ".", and item k of a
    list is named after the list without its plural "s": the items of a
    field ``blocks`` are ``block0``, ``block1``, ...
    """
    if isinstance(tree, Tensor):
        yield prefix, tree
    elif isinstance(tree, list):
        stem = prefix.removesuffix("s")
        for k, item in enumerate(tree):
            yield from named_tensors(item, f"{stem}{k}")
    elif dataclasses.is_dataclass(tree):
        for field in dataclasses.fields(tree):
            name = f"{prefix}.{field.name}" if prefix else field.name
            yield from named_tensors(getattr(tree, field.name), name)


def record_op(out_data: np.ndarray, inputs: tuple, backward_fn: Callable, opname: str) -> Tensor:
    """Wrap an op's output as a Tensor and record the op on the active tape.

    Every op in this module, and any fused op written elsewhere, goes
    through here.  ``backward_fn(g)`` receives d(loss)/d(output) and
    returns one gradient per entry of ``inputs``, in order, each shaped
    like that input or None where it has none.  The op is recorded only
    when a tape is active and some input requires gradients; the output
    is checked for non-finite values when debug checks are on.
    """
    out = Tensor(_check_finite(out_data, opname))
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._record(_TapeNode(out, inputs, backward_fn))
    return out


def _broadcast_check(sa: tuple, sb: tuple, opname: str) -> None:
    # numpy-style right alignment; each dim must match or be 1 on one side
    for da, db in zip(reversed(sa), reversed(sb)):
        if da != db and da != 1 and db != 1:
            raise DimensionError(f"{opname}: incompatible shapes {sa} and {sb}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradients over dims that broadcasting expanded.  Added leading
    dims are summed in one reduction, over the rows of a 2-D view, as if
    they were one axis."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.reshape((-1,) + g.shape[extra:]).sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a.shape, b.shape, "add")

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record_op(a.data + b.data, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a.shape, b.shape, "sub")

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return record_op(a.data - b.data, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a.shape, b.shape, "mul")

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return record_op(a.data * b.data, (a, b), bwd, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a.shape, b.shape, "div")

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return record_op(a.data / b.data, (a, b), bwd, "div")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        return (-g,)

    return record_op(-a.data, (a,), bwd, "neg")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product: ``(..., k) @ (k, m)``, or stacked with identical
    batch dims.

    Against a 2-D ``b``, every row of ``a`` runs through one 2-D product,
    in the forward pass and for the gradient of ``b``, whatever the
    leading axes of ``a``.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    if b.ndim == 2:
        rows = a.data.reshape(-1, a.shape[-1])

        def bwd_rows(g):
            g = g.reshape(-1, b.shape[1])
            return (g @ b.data.T).reshape(a.shape), rows.T @ g

        out = (rows @ b.data).reshape(a.shape[:-1] + b.shape[1:])
        return record_op(out, (a, b), bwd_rows, "matmul")
    if a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: batch dims differ, {a.shape} vs {b.shape}")

    def bwd(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return ga, gb

    return record_op(a.data @ b.data, (a, b), bwd, "matmul")


# ---------------------------------------------------------------------------
# reductions and reshaping


def _spread(g, reduced: tuple, axis, keepdims: bool, shape: tuple) -> np.ndarray:
    """Gradient ``g`` of a sum over ``axis`` copied back over the input
    ``shape``.  A scalar output is stored as shape (1,), so ``g`` first
    gets the ``reduced`` shape that numpy's reduction gave."""
    g = g.reshape(reduced)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        return (_spread(g, np.shape(out), axis, keepdims, a.shape),)

    return record_op(out, (a,), bwd, "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g):
        return (_spread(g, np.shape(out), axis, keepdims, a.shape) / count,)

    return record_op(out, (a,), bwd, "mean")


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ContractError("concat needs at least one tensor")
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return record_op(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), bwd, "concat")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        return (g.reshape(a.shape),)

    return record_op(a.data.reshape(shape), (a,), bwd, "reshape")


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inverse = np.argsort(axes)

    def bwd(g):
        return (g.transpose(inverse),)

    return record_op(a.data.transpose(axes), (a,), bwd, "transpose")


def gather_rows(a, indices) -> Tensor:
    """Select rows along axis 0 by an index array of any shape; the
    result is ``indices.shape + a.shape[1:]``.  Gradients scatter-add
    back, in the order of the raveled indices."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ContractError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return record_op(a.data[idx], (a,), bwd, "gather_rows")


def index_add_rows(src, indices, num_rows: int) -> Tensor:
    """out[r] = sum of src rows whose index equals r (deterministic order)."""
    src = as_tensor(src)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.shape != (src.shape[0],):
        raise DimensionError(
            f"index_add_rows: indices shape {idx.shape} must match rows {src.shape[0]}"
        )
    out_data = np.zeros((num_rows,) + src.shape[1:], dtype=np.float64)
    np.add.at(out_data, idx, src.data)

    def bwd(g):
        return (g[idx],)

    return record_op(out_data, (src,), bwd, "index_add_rows")


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(x, out=None):
    """Logistic function as 0.5 * (1 + tanh(x / 2)): one branch-free pass
    that neither overflows nor yields subnormals for any finite input.
    Written into ``out`` when given."""
    y = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    y += 1.0
    y *= 0.5
    return y


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = _sigmoid(a.data)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return record_op(y, (a,), bwd, "sigmoid")


def silu(a) -> Tensor:
    """x * sigmoid(x), the smooth nonlinearity used by all MLPs here."""
    a = as_tensor(a)
    s = _sigmoid(a.data)

    def bwd(g):
        return (g * (s + a.data * s * (1.0 - s)),)

    return record_op(a.data * s, (a,), bwd, "silu")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    y = np.sqrt(a.data)

    def bwd(g):
        return (g / (2.0 * y),)

    return record_op(y, (a,), bwd, "sqrt")


def square(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        return (g * 2.0 * a.data,)

    return record_op(a.data * a.data, (a,), bwd, "square")


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return record_op(y, (a,), bwd, "softmax")


def log_softmax(a) -> Tensor:
    """log(softmax) over the last axis, computed stably."""
    a = as_tensor(a)
    m = a.data.max(axis=-1, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    sm = np.exp(y)

    def bwd(g):
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return record_op(y, (a,), bwd, "log_softmax")


# ---------------------------------------------------------------------------
# optimizer and schedule


class AdamState:
    """Per-parameter first/second moment accumulators for Adam."""

    def __init__(self, params: Sequence[Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps


def adam_step(state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the state's parameters; zeroes
    their grads and bumps the counter."""
    if lr < 0:
        raise ContractError(f"learning rate must be >= 0, got {lr}")
    if any(p.grad is None for p in state.params):
        raise StateError("adam_step called with missing gradients; run backward first")

    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for i, p in enumerate(state.params):
        g = p.grad
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / (1.0 - b1 ** t)
        v_hat = state.v[i] / (1.0 - b2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
        p.grad = np.zeros_like(p.data)


def lr_at_step(step: int, warmup: int, total: int, base_lr: float) -> float:
    """Linear ramp 0 -> base_lr over [0, warmup], then linear decay to 0 at total."""
    if warmup >= total:
        raise ConfigError(f"warmup ({warmup}) must be smaller than total steps ({total})")
    if warmup <= 0:
        raise ConfigError(f"warmup must be positive, got {warmup}")
    if not 0 <= step <= total:
        raise ConfigError(f"step {step} outside [0, {total}]")
    if step <= warmup:
        return base_lr * step / warmup
    return base_lr * (total - step) / (total - warmup)
