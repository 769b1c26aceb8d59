"""Dense tensors with reverse-mode automatic differentiation.

Tensors are float64, except float32 ones made from float32 data: the
EGNN weight copy that ``pipeline.design``'s pair kernel computes in
(``egnn.cast_pair_weights``).  Training and every op's gradient run in
float64.

Operations record themselves on the active ``Tape`` whenever any operand
requires gradients; ``Tape.backward`` then walks the recording in reverse
and accumulates ``.grad`` on every leaf tensor, one that no op produced.
The op set is deliberately small and every gradient rule lives next to
its forward formula so it can be audited line by line.  ``record_op`` is
the one hook through which ops reach the tape, so a module can add a
fused op with its own hand-written backward.  ``adam_step`` updates the
parameters in place, in pieces dealt into two parts by ``geopro.pool``.

The transformer sub-layers (``seqmodel``'s attention and layer norm,
``egnn.mlp_forward``) and the EGNN pair kernel are such fused ops, so
``silu``, ``tmean``, ``sqrt``, ``div`` and ``transpose`` have no caller
in the package.  They stay as ops: the benchmark's tracer wraps each of
them by name, and the op gradient sweep of the tests checks them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError, StateError
from .pool import deal, part_pool, run_parts

_CHECK_FINITE = False
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def set_debug_checks(enabled: bool) -> None:
    """Toggle NaN/Inf detection on every op output (off by default)."""
    global _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)


def _check_finite(arr: np.ndarray, opname: str) -> np.ndarray:
    if _CHECK_FINITE and not np.all(np.isfinite(arr)):
        raise NumericError(f"{opname} produced non-finite values")
    return arr


class Tensor:
    """A dense row-major array, optionally tracked for gradients: float32
    data stays float32, and anything else becomes float64."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data, order="C")
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
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
        a parameter.  A leaf takes its first contribution as its gradient
        array, and copies it only where the op may have handed the same
        memory to another tensor: where it overlaps the op's upstream
        gradient or another of the op's input gradients.  So each leaf
        owns its ``.grad``, and ``adam_step`` may write into it.  Later
        contributions add out of place, and leaves unreachable from the
        loss get zero gradients after the walk.  Only leaves keep
        ``.grad``: each node is dropped as soon as its backward has run
        and its output's ``.grad`` is reset to None, so the recording's
        memory is released during the walk.
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

        for node in self._nodes:
            self._tracked.pop(id(node.output), None)
        leaves = list(self._tracked.values())
        self._tracked = {}
        for t in leaves:
            t.grad = None
        leaf_ids = {id(t) for t in leaves}
        loss.grad = np.ones_like(loss.data)

        nodes = self._nodes
        while nodes:
            node = nodes.pop()
            gout = node.output.grad
            if gout is None:
                continue
            node.output.grad = None
            grads = node.backward_fn(gout)
            for t, g in zip(node.inputs, grads):
                if g is None or not t.requires_grad:
                    continue
                g = g.reshape(t.data.shape)
                if t.grad is not None:
                    # never in place: a first contribution may be a view of
                    # another tensor's gradient
                    t.grad = t.grad + g
                elif id(t) in leaf_ids and _may_be_shared(g, gout, grads):
                    t.grad = g.copy()
                else:
                    t.grad = g
        for t in leaves:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


def _may_be_shared(g, gout, grads) -> bool:
    """Whether a gradient ``g`` that one op's backward returned among
    ``grads``, given ``gout``, may overlap memory that another tensor can
    also be handed: ``gout`` itself, or another of the op's gradients."""
    if np.may_share_memory(g, gout):
        return True
    return sum(other is not None and np.may_share_memory(g, other) for other in grads) > 1


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


def _spread(g, axis, keepdims: bool, shape: tuple) -> np.ndarray:
    """Gradient ``g`` of a sum over ``axis`` copied back over the input
    ``shape``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        return (_spread(g, axis, keepdims, a.shape),)

    return record_op(out, (a,), bwd, "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g):
        return (_spread(g, axis, keepdims, a.shape) / count,)

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


def split(a, sizes: Sequence[int], axis: int) -> list:
    """Cut ``a`` along ``axis`` into consecutive pieces of the given
    ``sizes``: the inverse of ``concat``.  Each piece is an op of its own,
    whose gradient is zero outside the piece's slice."""
    a = as_tensor(a)
    if any(size < 0 for size in sizes) or sum(sizes) != a.shape[axis]:
        raise DimensionError(f"split: sizes {list(sizes)} do not add up to {a.shape[axis]}")
    ends = np.cumsum(sizes, dtype=int)
    return [_piece(a, axis, end - size, end) for size, end in zip(sizes, ends)]


def _piece(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    index = (slice(None),) * (axis % a.ndim) + (slice(start, stop),)

    def bwd(g):
        ga = np.zeros(a.shape)
        ga[index] = g
        return (ga,)

    return record_op(a.data[index], (a,), bwd, "split")


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
    back, in the order of the raveled indices; distinct indices, such as
    the rows ``arange(L)``, write them by assignment."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ContractError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def bwd(g):
        ga = np.zeros(a.shape)
        if np.unique(idx).size == idx.size:
            ga[idx] = g
        else:
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


def _sigmoid(x):
    """Logistic function as 0.5 * (1 + tanh(x / 2)): one branch-free pass
    that neither overflows nor yields subnormals for any finite input."""
    y = np.tanh(np.multiply(x, 0.5))
    y += 1.0
    y *= 0.5
    return y


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = _sigmoid(a.data)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return record_op(y, (a,), bwd, "sigmoid")


def _silu(h, t, u):
    """Given h = z/2, write 1 + tanh(h) into ``t`` and silu(z) = h * t into
    ``u``, which may be ``t``.

    1 + tanh(z/2) is 2 * sigmoid(z), so ``u`` has the bits of
    z * sigmoid(z) wherever z/2 is not subnormal: scaling by two is exact.
    Three passes over the array, where z * sigmoid(z) takes five.
    """
    np.tanh(h, out=t)
    t += 1.0
    np.multiply(h, t, out=u)


def _silu_slope(h, t, u):
    """Overwrite ``h`` with d silu(z)/dz, given h = z/2 and ``t`` and ``u``
    from ``_silu``, and return it; ``t`` is halved.

    With z = 2h and s = t/2 = sigmoid(z), both exact, the slope is
    s * (1 + z * (1 - s)), and z * (1 - s) is z - u.
    """
    h *= 2.0
    t *= 0.5
    h -= u
    h += 1.0
    h *= t
    return h


def silu(a) -> Tensor:
    """x * sigmoid(x), computed by ``_silu``, the silu of every MLP here."""
    a = as_tensor(a)
    h = np.multiply(a.data, 0.5)
    t = np.empty_like(h)
    y = np.empty_like(h)
    _silu(h, t, y)

    def bwd(g):
        return (g * _silu_slope(h, t, y),)

    return record_op(y, (a,), bwd, "silu")


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


# Values in one piece of an Adam step: 2**15 float64 values, 256 KB, the
# size of each part's one temporary.
_ADAM_PIECE = 2 ** 15
# A state of more values than this steps its pieces in two parts on the
# pool; a smaller one runs inline.  A state of 63k values, about the toy
# model's size at width 32, stepped in 1.36 ms inline and 1.43 ms on two
# threads (medians of 40 steps, 2-core Xeon).
_ADAM_POOL_VALUES = 2 ** 20


class AdamState:
    """Per-parameter first/second moment accumulators for Adam.

    Each moment is one flat ``np.zeros`` array over every parameter, in
    parameter order, and ``m[i]`` and ``v[i]`` are views of it shaped like
    parameter i.  numpy advises the kernel to back buffers of 4 MB and
    more with huge pages, so where transparent huge pages are on or
    madvised, a large state's pages, which are not written until the first
    step touches them, fault in 2 MB at a time: the width-320 model's 5.2M
    values take about 2k faults at their first step, against 14k when each
    moment array was allocated on its own.
    """

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.size = sum(p.size for p in self.params)
        shapes = [p.shape for p in self.params]
        self.m = _views(np.zeros(self.size), shapes)
        self.v = _views(np.zeros(self.size), shapes)
        self.step_count = 0


def _views(flat: np.ndarray, shapes: list) -> list:
    """Consecutive views of ``flat`` from its start, one of each shape."""
    sizes = [math.prod(shape) for shape in shapes]
    return [flat[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, np.cumsum(sizes, dtype=int))]


def _pieces(state: AdamState) -> list:
    """The state's (m, v, p, g) pieces, in parameter order.

    A piece is at most ``_ADAM_PIECE`` values of one parameter: slices of
    flat views of its moments, data and gradient, so that writing a piece
    writes the parameter.  A parameter whose data or gradient is not
    C-contiguous is one piece in its own shape, since its ``reshape(-1)``
    would be a copy.
    """
    pieces = []
    for m, v, p in zip(state.m, state.v, state.params):
        arrays = (m, v, p.data, p.grad)
        if p.data.flags.c_contiguous and p.grad.flags.c_contiguous:
            flats = [a.reshape(-1) for a in arrays]
            pieces += [[a[i:i + _ADAM_PIECE] for a in flats]
                       for i in range(0, m.size, _ADAM_PIECE)]
        elif m.size:
            pieces.append(arrays)
    return pieces


def _adam_part(pieces: list, t: int, lr: float) -> None:
    """Step Adam at step ``t`` over each (m, v, p, g) piece of one part,
    in place, with one temporary for the part."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    scratch = np.empty(max([m.size for m, _, _, _ in pieces], default=0))
    for m, v, p, g in pieces:
        tmp = scratch[:m.size].reshape(m.shape)
        np.multiply(g, 1.0 - b1, out=tmp)
        m *= b1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v *= b2
        v += tmp
        # g is spent: it takes lr·m̂, and tmp the denominator
        np.divide(m, 1.0 - b1 ** t, out=g)
        g *= lr
        np.divide(v, 1.0 - b2 ** t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        g /= tmp
        p -= g


def adam_step(state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the state's parameters; clears
    their grads and bumps the counter.

    The moments and parameters are updated in place, piece by piece (see
    ``_pieces``), in two parts (``geopro.pool.deal``) with one reusable
    temporary each, and each gradient array is overwritten as scratch
    before it is cleared.  Every in-place operation rounds as the
    out-of-place m = b1·m + (1 - b1)·g, v = b2·v + (1 - b2)·g², p -= lr·m̂
    / (√v̂ + eps) does, so the update has the same bits however the values
    are cut.  A state of more than ``_ADAM_POOL_VALUES`` values runs its
    two parts on the two-thread pool of ``geopro.pool``, whose first
    request sets OpenBLAS to one thread; a smaller one runs them inline
    and never asks for the pool.
    """
    if not (math.isfinite(lr) and lr >= 0):
        raise ContractError(f"learning rate must be finite and >= 0, got {lr}")
    if any(p.grad is None for p in state.params):
        raise StateError("adam_step called with missing gradients; run backward first")

    state.step_count += 1
    pool = part_pool() if state.size > _ADAM_POOL_VALUES else None
    run_parts(pool, _adam_part, [(part, state.step_count, lr) for part in deal(_pieces(state))])
    for p in state.params:
        p.grad = None


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
