"""Equivariant graph convolution over fully connected 3D graphs.

Each layer passes messages between every ordered node pair, updates the
node features invariantly, and moves the coordinates along the pair
difference vectors so that the whole map commutes with rotations,
translations and reflections of the input coordinates.  A batch of B
graphs of N nodes each is the arrays of one graph with a leading batch
axis, (B, N, 3) coordinates and (B, N, d) features, and runs through
each layer at once.

The pair work of a layer is two fused tape nodes written in numpy: the
gated message sum and the coordinate step.  Each walks the dense pair
grids one block of receiving rows at a time, sized so that a (rows, N, H)
array is about 1 MB, keeps nothing of size N² between forward and
backward, and computes every block again in its backward pass (gradient
checkpointing, Chen et al. 2016).  Memory therefore grows with N·H, not
N²·H.  The blocks are dealt into two parts that run on a module-level
two-thread pool.  The first kernel call of any size sets numpy's OpenBLAS
to one thread before its first product, so that BLAS rounds the same way
in every call of the process; a call with one block runs on the calling
thread.

A layer may be given the rows that its caller reads (``egcl_forward``):
its blocks then list only those receiving rows, and every other row
receives no messages.  ``egnn_forward`` gives such a mask to its last
layer only.
"""

import contextvars
import ctypes
import logging
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError
from .geometry import apply_rigid, random_rigid

log = logging.getLogger(__name__)


@dataclass
class MlpParams:
    """Weights of a two-layer perceptron with a silu hidden layer and a
    linear output."""

    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor

    def __post_init__(self):
        if self.w1.data.ndim != 2 or self.w2.data.ndim != 2:
            raise DimensionError("mlp weights must be 2-D matrices")
        if self.b1.shape != (self.w1.shape[1],) or self.b2.shape != (self.w2.shape[1],):
            raise DimensionError("mlp bias shapes must match weight output widths")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise DimensionError(
                "hidden widths disagree: %d vs %d" % (self.w1.shape[1], self.w2.shape[0])
            )

    @property
    def width_in(self):
        return self.w1.shape[0]

    @property
    def width_out(self):
        return self.w2.shape[1]

    def tensors(self):
        return [self.w1, self.b1, self.w2, self.b2]


def glorot_uniform(rng, width_in, width_out, scale=1.0):
    bound = scale * np.sqrt(6.0 / (width_in + width_out))
    return rng.uniform(-bound, bound, size=(width_in, width_out))


def init_mlp(rng, width_in, width_hidden, width_out, out_scale=1.0):
    """Fresh two-layer MLP with uniform fan-balanced weights, zero biases.

    ``out_scale`` shrinks the second-layer weights; used to keep early
    coordinate updates small.
    """
    return MlpParams(
        w1=ad.Tensor(glorot_uniform(rng, width_in, width_hidden), requires_grad=True),
        b1=ad.Tensor(np.zeros(width_hidden), requires_grad=True),
        w2=ad.Tensor(
            glorot_uniform(rng, width_hidden, width_out, scale=out_scale),
            requires_grad=True,
        ),
        b2=ad.Tensor(np.zeros(width_out), requires_grad=True),
    )


def mlp_forward(params, x):
    hidden = ad.silu(ad.add(ad.matmul(x, params.w1), params.b1))
    return ad.add(ad.matmul(hidden, params.w2), params.b2)


@dataclass
class EgclParams:
    """One layer's learnable pieces.

    ``message`` maps the pair input (both node features and their
    squared distance) to a message; ``gate_w``, (M, 1), and ``gate_b``,
    (1,), map each message m_ij to its gate sigmoid(m_ij · gate_w +
    gate_b), the linear edge gate of EGNN (Satorras et al. 2021, §3.3);
    ``feature`` maps a node's features plus its aggregated messages back
    to the feature width; and ``coord`` produces the scalar weight on
    each pair difference vector in the coordinate update.  The output
    activations of the pair MLPs are fixed by ``_gated_messages`` and
    ``_coord_step``.
    """

    message: MlpParams
    gate_w: ad.Tensor
    gate_b: ad.Tensor
    feature: MlpParams
    coord: MlpParams
    feat_width: int
    message_width: int

    def __post_init__(self):
        pair_width = 2 * self.feat_width + 1
        checks = [
            (self.message.width_in, pair_width, "message input width"),
            (self.message.width_out, self.message_width, "message output width"),
            (self.gate_w.shape, (self.message_width, 1), "gate weight shape"),
            (self.gate_b.shape, (1,), "gate bias shape"),
            (self.feature.width_in, self.feat_width + self.message_width, "feature input width"),
            (self.feature.width_out, self.feat_width, "feature output width"),
            (self.coord.width_in, pair_width, "coordinate input width"),
            (self.coord.width_out, 1, "coordinate output width"),
        ]
        for got, want, what in checks:
            if got != want:
                raise ContractError("%s is %s, expected %s" % (what, got, want))


@dataclass
class EgnnModel:
    """A stack of equivariant layers sharing one feature width."""

    layers: list
    feat_width: int

    def __post_init__(self):
        for k, layer in enumerate(self.layers):
            if layer.feat_width != self.feat_width:
                raise ContractError(
                    "layer %d has feature width %d, model expects %d"
                    % (k, layer.feat_width, self.feat_width)
                )


@dataclass
class GraphState:
    """Coordinates plus features of one fully connected graph of N nodes,
    or of a batch of B such graphs.

    ``coords`` is (N, 3) and ``feats`` is (N, d) for one graph; a batch
    adds a leading axis, (B, N, 3) and (B, N, d).  Every ordered pair of
    distinct nodes of a graph is an edge.
    """

    coords: ad.Tensor
    feats: ad.Tensor

    def __post_init__(self):
        self.coords = ad.as_tensor(self.coords)
        self.feats = ad.as_tensor(self.feats)
        if self.coords.ndim not in (2, 3) or self.coords.shape[-1] != 3:
            raise DimensionError(
                "coords must be (N, 3) or (B, N, 3), got shape %s" % (self.coords.shape,)
            )
        if self.feats.shape[:-1] != self.coords.shape[:-1]:
            raise DimensionError(
                "coords of shape %s do not match feats of shape %s"
                % (self.coords.shape, self.feats.shape)
            )

    @property
    def batch_shape(self):
        """(B, N): the number of graphs, 1 without a batch axis, and of
        nodes in each."""
        return int(np.prod(self.coords.shape[:-2])), self.coords.shape[-2]

    @property
    def node_count(self):
        return self.batch_shape[1]


# Values in one (rows, N, width) block of pair activations: 2**17
# float64 values, about 1 MB.  A part's walk keeps several such arrays
# live (see ``_scratch``), more than a 2 MB L2 cache holds; the size
# bounds scratch memory and keeps each BLAS product large.
_BLOCK_VALUES = 2 ** 17


def _row_blocks(receive, width):
    """Receiving rows per block, and the blocks that walk the receiving
    rows of ``receive``, a (B, N) bool mask over the nodes of B graphs of
    N nodes each that is True at the rows that receive messages.

    Each block is (b0, b1, rows, keep) for graphs b0:b1: ``rows`` is a
    (b1 - b0, r) int array of each graph's receiving rows, and ``keep``, a
    bool array of the same shape, is False at padding rows.  A block takes
    as many whole graphs as fit in it, so that small graphs share one
    block; each graph lists its receiving rows first, in index order, and
    the block pads every list to its longest with rows that receive
    nothing, whose outputs and upstream gradients the kernels zero.  A
    graph with more rows than fit is walked one block of its receiving rows
    at a time.  No block is made where no row receives.  With every row
    receiving, a block's rows are i0:i1 of each of its graphs.
    """
    batch, n = receive.shape
    rows = max(1, _BLOCK_VALUES // max(1, n * width))
    if n == 0:
        return rows, []
    order = np.argsort(~receive, axis=1, kind="stable")
    counts = receive.sum(axis=1)
    if rows >= n:
        graphs = rows // n
        spans = [(b, min(b + graphs, batch), 0, counts[b:b + graphs].max())
                 for b in range(0, batch, graphs)]
    else:
        spans = [(b, b + 1, i, min(i + rows, counts[b]))
                 for b in range(batch) for i in range(0, counts[b], rows)]
    return rows, [(b0, b1, order[b0:b1, i0:i1], np.arange(i0, i1) < counts[b0:b1, None])
                  for b0, b1, i0, i1 in spans if i1 > i0]


def _pick(rows):
    """Index of a block's receiving ``rows``, (graphs, r), into the
    block's (graphs, N, ·) node arrays."""
    return np.arange(rows.shape[0])[:, None], rows


def _diagonal(rows):
    """Index of the pairs (i, i) of a block's receiving ``rows`` into its
    (graphs, r, N) pair arrays."""
    graphs, count = rows.shape
    return np.arange(graphs)[:, None], np.arange(count), rows


def _put_rows(out, blk, sums):
    """Write a block's output rows, (graphs, r, ·), into their rows of
    ``out``, (B, N, ·), with the padding rows' outputs zeroed."""
    b0, b1, rows, keep = blk
    sums[~keep] = 0.0
    out[b0:b1][_pick(rows)] = sums


def _grad_rows(g_out, blk):
    """d(loss)/d(output) of a block's receiving rows, (graphs, r, ·), read
    from ``g_out``, (B, N, ·), with the padding rows' gradients zeroed."""
    b0, b1, rows, keep = blk
    g_rows = g_out[b0:b1][_pick(rows)]
    g_rows[~keep] = 0.0
    return g_rows


def _parts(blocks):
    """The blocks dealt round-robin into two parts, or one part when there
    is at most one block.  The split does not depend on the worker count,
    so sums over the parts take one order whether they run on two threads
    or one after the other."""
    return [blocks[0::2]] + ([blocks[1::2]] if len(blocks) > 1 else [])


def _scratch(parts, n, widths):
    """For each part, one (pairs, width) array per width, where pairs is
    the part's largest block's pair count, reused by every block of the
    part so that no block allocates arrays of its own.

    A forward walk holds the arrays it still reads: 4 per part for the
    gated messages and 2 for the coordinate step, since each silu writes
    its output over its own tanh array.  A backward walk needs every
    activation for the slopes, 6 and 3.

    A part's arrays are views of one flat allocation, made by the calling
    thread, so that no pool thread draws large arrays from a glibc arena
    of its own.  glibc reuses the same pages of such an allocation from
    call to call, where separate arrays of this size were returned to the
    system and faulted in again on every call (1317 minor page faults
    against 0 per forward and backward of a two-layer width-32 EGNN at
    N=30).  One allocation for both parts would be twice as large, and
    glibc would then serve the allocations below that size from its heap
    and keep them: over four width-320 training steps at L=100 on a
    2-core Xeon, peak RSS read 277 MB that way, against 268 MB with one
    allocation per part and 256 MB with a single part.
    """
    out = []
    for part in parts:
        count = n * max([blk[2].size for blk in part], default=0)
        flat = np.empty(count * sum(widths))
        arrays = np.split(flat, np.cumsum([count * width for width in widths[:-1]]))
        out.append([a.reshape(count, width) for a, width in zip(arrays, widths)])
    return out


def _sum_parts(per_part):
    """Add each part's arrays into the first part's, in part order, and
    return the first part's."""
    first, *rest = per_part
    for other in rest:
        for total, value in zip(first, other):
            total += value
    return first


# The pool that runs the parts of a kernel: None until the first kernel
# call, False if that call found no OpenBLAS thread setter.
_pool = None
_pool_lock = threading.Lock()


def _blas_thread_setter():
    """The thread-count setter of numpy's bundled OpenBLAS, or None.

    numpy has no API for it, so it is looked up by name in ``numpy.libs``.
    """
    # imported here and in _part_pool, so that importing geopro does not
    # pay for modules that only the pool needs
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            setter = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        return setter
    return None


def _part_pool():
    """The module's pool of min(2, usable cores) threads, or None when the
    parts must run inline.

    Made at the first call, which also sets OpenBLAS to one thread: with
    two pool threads, BLAS threads only contend for the same cores, and
    with one block BLAS's second thread spins in every small product.
    Each kernel calls this at entry, before its first product, so that
    every kernel product rounds the same way whatever ran before it.  The
    executor starts its threads only at its first ``submit``.  Without a
    setter the pool is never made, and one INFO record says so.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            setter = _blas_thread_setter()
            if setter is None:
                log.info("no OpenBLAS thread setter in numpy.libs: the EGNN pair "
                         "kernels run on one thread")
                _pool = False
            else:
                from concurrent.futures import ThreadPoolExecutor

                setter(1)
                _pool = ThreadPoolExecutor(
                    min(2, len(os.sched_getaffinity(0))), thread_name_prefix="geopro-egnn"
                )
        return _pool or None


def _run_parts(pool, work, jobs):
    """Call ``work(*job)`` for each job, one per part.

    Two or more jobs go to ``pool``, the kernel's ``_part_pool()``, each in
    a copy of the caller's context, since numpy's error state is a context
    variable; every job is waited for, and the first job's error is raised.
    A single job runs inline on the calling thread and is never submitted,
    and so do all jobs when ``pool`` is None.
    """
    if pool is None or len(jobs) == 1:
        for job in jobs:
            work(*job)
        return
    futures = [pool.submit(contextvars.copy_context().run, work, *job) for job in jobs]
    errors = [future.exception() for future in futures]  # waits for every job
    for error in errors:
        if error is not None:
            raise error


def _silu(h, t, u):
    """Given h = z/2, write 1 + tanh(h) into ``t`` and silu(z) = h * t into
    ``u``.

    1 + tanh(z/2) is 2 * sigmoid(z), so ``u`` has the bits of
    z * sigmoid(z): scaling by two is exact.  Three passes over the block,
    where z * sigmoid(z) takes five.
    """
    np.tanh(h, out=t)
    t += 1.0
    np.multiply(h, t, out=u)


def _silu_slope(h, t, u):
    """Overwrite ``h`` with d silu(z)/dz, given h = z/2 and ``t`` and ``u``
    from ``_silu``.

    With z = 2h and s = t/2 = sigmoid(z), both exact, the slope is
    s * (1 + z * (1 - s)), and z * (1 - s) is z - u.
    """
    h *= 2.0
    t *= 0.5
    h -= u
    h += 1.0
    h *= t
    return h


def _halves(*arrays):
    """Each array times 1/2: the weights whose products feed a ``_silu``,
    so that a block builds h = z/2 directly."""
    return [0.5 * a for a in arrays]


class _PairInput:
    """The pair input ``[h_i, h_j, d²_ij]`` of one pair MLP, built one
    block of receiving rows at a time, and its gradient.

    Its product with ``w1`` splits into ``h_i @ w1[:d]``, ``h_j @
    w1[d:2d]`` and ``d² * w1[2d]``: the node terms cost B·N rows of
    matmul, not B·N².  A block is a (b0, b1, rows, keep) of
    ``_row_blocks``, and its pair arrays are (graphs, r, N, ·).  A block
    holds half the pre-activations, the input ``_silu`` takes; the node
    terms are halved once, and the gradient is of the whole
    pre-activations.
    """

    def __init__(self, state, mlp):
        batch, n = state.batch_shape
        self.coords = state.coords.data.reshape(batch, n, 3)
        d = state.feats.shape[-1]
        self.feats = state.feats.data.reshape(-1, d)
        w1 = mlp.w1.data
        self.w_i, self.w_j, self.w_dist = w1[:d], w1[d:2 * d], w1[2 * d:]
        self.half_dist = 0.5 * self.w_dist
        shape = (batch, n, w1.shape[1])
        self.from_i = (self.feats @ self.w_i).reshape(shape)
        self.from_i *= 0.5
        self.from_j = (self.feats @ self.w_j + mlp.b1.data).reshape(shape)
        self.from_j *= 0.5

    def block(self, blk, out):
        """Write half the first-layer pre-activations of block ``blk`` into
        ``out``, (graphs * r * N, H), and return the difference vectors
        x_i - x_j, (graphs, r, N, 3), and d², (graphs, r, N).

        The diagonal pair (i, i) gets d² = 1, so that ``sqrt`` never sees
        a zero; its difference vector is exactly zero.
        """
        b0, b1, rows, _ = blk
        coords = self.coords[b0:b1]
        diff = coords[_pick(rows)][:, :, None, :] - coords[:, None, :, :]
        sq_dist = (diff * diff).sum(axis=3)
        sq_dist[_diagonal(rows)] = 1.0
        out4 = out.reshape(sq_dist.shape + (-1,))
        np.multiply(sq_dist[:, :, :, None], self.half_dist, out=out4)
        out4 += self.from_i[b0:b1][_pick(rows)][:, :, None, :]
        out4 += self.from_j[b0:b1, None, :, :]
        return diff, sq_dist

    def start_grad(self, count):
        """One ``_PairGrad`` for each of ``count`` parts, all sharing
        ``g_i``."""
        self.g_i = np.zeros_like(self.from_i)
        return [_PairGrad(self) for _ in range(count)]

    def grads(self, part_grads):
        """(d coords, d feats, d w1, d b1) once every part has added its
        blocks."""
        g_coords, g_j, g_dist = _sum_parts([(p.g_coords, p.g_j, p.g_dist) for p in part_grads])
        width = self.g_i.shape[2]
        g_i, g_j = self.g_i.reshape(-1, width), g_j.reshape(-1, width)
        g_feats = g_i @ self.w_i.T + g_j @ self.w_j.T
        g_w1 = np.concatenate([self.feats.T @ g_i, self.feats.T @ g_j, g_dist])
        return g_coords.reshape(-1, 3), g_feats, g_w1, g_j.sum(axis=0)


class _PairGrad:
    """One part's gradient accumulators of a ``_PairInput``.

    Every block adds into ``g_coords``, ``g_j`` and ``g_dist``, so each
    part has its own; a block writes only its own rows of the shared
    ``g_i``.
    """

    def __init__(self, pair):
        self.pair = pair
        self.g_coords = np.zeros_like(pair.coords)
        self.g_j = np.zeros_like(pair.from_j)
        self.g_dist = np.zeros_like(pair.w_dist)
        self._sum_i = np.empty_like(pair.from_j)

    def add_grad(self, blk, diff, sq_dist, d_out, d_sq_dist=None, d_diff=None):
        """Accumulate the gradient of block ``blk``, given what
        ``_PairInput.block`` returned for it, d(loss)/d(pre-activations)
        ``d_out``, (graphs * r * N, H), and any gradient that reaches d²
        or the difference vectors another way.  A block kept on the
        instance instead would outlive the forward pass on the tape: that
        raised the peak RSS of width-32 training (bench ``train-toy``, 2
        cores) from 63 to 69 MB.  On the diagonal the difference vector is
        zero, so d² passes nothing.
        """
        b0, b1, rows, _ = blk
        d_out4 = d_out.reshape(sq_dist.shape + (-1,))
        self.pair.g_i[b0:b1][_pick(rows)] = d_out4.sum(axis=2)
        self.g_j[b0:b1] += d_out4.sum(axis=1, out=self._sum_i[b0:b1])
        self.g_dist += sq_dist.reshape(1, -1) @ d_out
        d_sq = (d_out @ self.pair.w_dist.T).reshape(sq_dist.shape)
        if d_sq_dist is not None:
            d_sq += d_sq_dist
        total = d_sq[:, :, :, None] * diff
        total *= 2.0
        if d_diff is not None:
            total += d_diff
        self.g_coords[b0:b1][_pick(rows)] += total.sum(axis=2)
        self.g_coords[b0:b1] -= total.sum(axis=1)


def _message_grad(d_logit, gate, w_gate, g_rows, out):
    """Write d(loss)/d(m_ij) = d_logit_ij * gate_w + gate_ij * g_i into
    ``out``, (graphs, rows, N, M), and return it.

    ``d_logit`` is d(loss)/d(gate logit) and ``gate`` the gates, both
    (graphs, rows, N), and ``g_rows`` d(loss)/d(output) of the block's
    receiving rows, (graphs, rows, M).  Each receiving row is one (N, 2)
    @ (2, M) product, one pass over the block where the outer product,
    the scaled upstream gradient and their sum take three.
    """
    coef = np.stack([d_logit, gate], axis=3)
    rhs = np.empty(g_rows.shape[:2] + (2, w_gate.shape[0]))
    rhs[:, :, 0] = w_gate[:, 0]
    rhs[:, :, 1] = g_rows
    return np.matmul(coef, rhs, out=out)


def _gated_messages(state, message_mlp, gate_w, gate_b, receive):
    """sum_j gate_ij * m_ij for every node i that ``receive``, a (B, N)
    bool mask, selects, and zero for every other node, as one tape node
    shaped like the node features with width M.

    m_ij = silu(``message_mlp`` of the pair input) and gate_ij =
    sigmoid(m_ij · ``gate_w`` + ``gate_b``), a linear gate; the diagonal's
    gate is zero.  These output activations belong to the layer, since
    ``mlp_forward`` ends linearly.  The pairs are walked one block at a
    time and nothing of size N² is kept: the backward pass computes each
    block again.  Each part of the blocks has its own scratch and gradient
    accumulators, allocated here before the parts run.
    """
    pool = _part_pool()
    batch, n = state.batch_shape
    pair = _PairInput(state, message_mlp)
    w2, b2 = message_mlp.w2.data, message_mlp.b2.data
    w_gate, b_gate = gate_w.data, gate_b.data
    hidden, width = w2.shape
    _, blocks = _row_blocks(receive, max(hidden, width))
    parts = _parts(blocks)

    def block(scratch, halves, blk):
        half_w2, half_b2 = halves
        z1, s1, u1, z2, s2, msg = (a[:blk[2].size * n] for a in scratch)
        diff, sq_dist = pair.block(blk, out=z1)
        _silu(z1, s1, u1)
        np.matmul(u1, half_w2, out=z2)
        z2 += half_b2
        _silu(z2, s2, msg)
        gate = ad._sigmoid(msg @ w_gate + b_gate).reshape(sq_dist.shape)
        gate[_diagonal(blk[2])] = 0.0
        return diff, sq_dist, (z1, s1, u1, z2, s2, msg, gate)

    def forward(part, scratch, halves):
        # u1 shares s1's array and msg s2's: nothing reads them later
        z1, s1, z2, s2 = scratch
        scratch = (z1, s1, s1, z2, s2, s2)
        for blk in part:
            saved = block(scratch, halves, blk)[2]
            gate = saved[6]
            msg = saved[5].reshape(gate.shape + (width,))
            _put_rows(out, blk, np.matmul(gate[:, :, None, :], msg)[:, :, 0])

    out = np.zeros((batch, n, width))
    halves = _halves(w2, b2)
    scratches = _scratch(parts, n, [hidden, hidden, width, width])
    _run_parts(pool, forward, [(part, scratch, halves)
                               for part, scratch in zip(parts, scratches)])

    def backward(g_out):
        g_out = g_out.reshape(batch, n, width)
        halves = _halves(w2, b2)
        accs = [[np.zeros_like(w) for w in (w2, b2, w_gate, b_gate)] for _ in parts]
        tmps = [np.empty_like(w2) for _ in parts]
        pair_grads = pair.start_grad(len(parts))
        scratches = _scratch(parts, n, [hidden] * 3 + [width] * 3)

        def walk(part, scratch, pair_grad, acc, tmp_w2):
            g_w2, g_b2, g_w_gate, g_b_gate = acc
            for blk in part:
                diff, sq_dist, saved = block(scratch, halves, blk)
                z1, s1, u1, z2, s2, msg, gate = saved
                g_rows = _grad_rows(g_out, blk)
                msg4 = msg.reshape(gate.shape + (width,))
                # the zeroed diagonal gate has zero slope, so it passes nothing back
                d_z3 = np.matmul(msg4, g_rows[:, :, :, None]).reshape(-1, 1)
                d_z3 *= (gate * (1.0 - gate)).reshape(-1, 1)
                g_w_gate += msg.T @ d_z3
                g_b_gate += d_z3.sum(axis=0)
                slope2 = _silu_slope(z2, s2, msg)
                _message_grad(d_z3.reshape(gate.shape), gate, w_gate, g_rows, out=msg4)
                d_z2 = msg
                d_z2 *= slope2
                g_w2 += np.matmul(u1.T, d_z2, out=tmp_w2)
                g_b2 += d_z2.sum(axis=0)
                slope1 = _silu_slope(z1, s1, u1)
                d_z1 = np.matmul(d_z2, w2.T, out=u1)
                d_z1 *= slope1
                pair_grad.add_grad(blk, diff, sq_dist, d_z1)

        _run_parts(pool, walk, list(zip(parts, scratches, pair_grads, accs, tmps)))
        return pair.grads(pair_grads) + tuple(_sum_parts(accs))

    inputs = (state.coords, state.feats, *message_mlp.tensors(), gate_w, gate_b)
    out = out.reshape(state.feats.shape[:-1] + (width,))
    return ad.record_op(out, inputs, backward, "egnn.gated_messages")


def _coord_step(state, coord_mlp, receive):
    """sum_j (x_i - x_j) * c_ij / (d_ij + 1) for every node i that
    ``receive`` selects, and zero for every other node, as one tape node
    shaped like the coordinates, where c_ij is ``coord_mlp`` of the pair
    input, with no output activation.

    Walked one block at a time like ``_gated_messages``, in the same two
    parts, and computed again block by block in the backward pass.
    """
    pool = _part_pool()
    batch, n = state.batch_shape
    pair = _PairInput(state, coord_mlp)
    w2, b2 = coord_mlp.w2.data, coord_mlp.b2.data
    hidden = w2.shape[0]
    _, blocks = _row_blocks(receive, hidden)
    parts = _parts(blocks)

    def block(scratch, blk):
        y1, s1, v1 = (a[:blk[2].size * n] for a in scratch)
        diff, sq_dist = pair.block(blk, out=y1)
        _silu(y1, s1, v1)
        coef = (v1 @ w2 + b2).reshape(sq_dist.shape)
        dist = np.sqrt(sq_dist)
        return diff, sq_dist, (y1, s1, v1, coef, dist, coef / (dist + 1.0))

    def forward(part, scratch):
        # v1 shares s1's array: nothing reads it after the product
        y1, s1 = scratch
        for blk in part:
            diff, _, saved = block((y1, s1, s1), blk)
            weight = saved[5]
            _put_rows(out, blk, np.matmul(weight[:, :, None, :], diff)[:, :, 0])

    out = np.zeros((batch, n, 3))
    _run_parts(pool, forward, list(zip(parts, _scratch(parts, n, [hidden] * 2))))

    def backward(g_out):
        g_out = g_out.reshape(batch, n, 3)
        accs = [[np.zeros_like(w2), np.zeros_like(b2)] for _ in parts]
        pair_grads = pair.start_grad(len(parts))
        scratches = _scratch(parts, n, [hidden] * 3)

        def walk(part, scratch, pair_grad, acc):
            g_w2, g_b2 = acc
            for blk in part:
                diff, sq_dist, saved = block(scratch, blk)
                y1, s1, v1, coef, dist, weight = saved
                g_rows = _grad_rows(g_out, blk)
                d_weight = np.matmul(diff, g_rows[:, :, :, None])[:, :, :, 0]
                d_diff = weight[:, :, :, None] * g_rows[:, :, None, :]
                denom = dist + 1.0
                d_coef = d_weight / denom
                # weight = coef / (sqrt(d²) + 1), differentiated in d²; where two
                # distinct nodes share a point, d² = 0 and d_coef = 0: the term is 0
                d_sq_dist = -d_coef * coef
                np.divide(d_sq_dist, denom * 2.0 * dist, out=d_sq_dist, where=dist > 0.0)
                d_coef = d_coef.reshape(-1, 1)
                g_w2 += v1.T @ d_coef
                g_b2 += d_coef.sum(axis=0)
                d_y1 = _silu_slope(y1, s1, v1)
                d_y1 *= d_coef
                d_y1 *= w2[:, 0]
                pair_grad.add_grad(blk, diff, sq_dist, d_y1, d_sq_dist, d_diff)

        _run_parts(pool, walk, list(zip(parts, scratches, pair_grads, accs)))
        return pair.grads(pair_grads) + tuple(_sum_parts(accs))

    inputs = (state.coords, state.feats, *coord_mlp.tensors())
    return ad.record_op(out.reshape(state.coords.shape), inputs, backward, "egnn.coord_step")


def egcl_forward(state, params, receive=None):
    """One message-passing layer; returns the updated graph state.

    ``receive``, a bool mask shaped like the coordinates without their
    last axis, selects the nodes that receive messages; None selects every
    node.  A node outside the mask gets a zero message sum, so its new
    features are the feature MLP of its features alone, and a zero
    coordinate step, so its coordinates pass through unchanged.  It still
    sends messages to the nodes inside the mask, whose updates are those
    of the full graph, bit for bit.

    The pair work is two fused tape nodes, ``_gated_messages`` and
    ``_coord_step``, for every graph of the batch at once.  Each walks
    the dense (N, N) pair grids one block of receiving rows at a time,
    about 1 MB per (rows, N, H) array, keeps
    nothing of size N², and computes each block again in its backward
    pass, in the manner of gradient checkpointing.  The forward code is
    the same with and without a tape.  The diagonal pairs (i, i) are
    computed along with the rest: their gate is zeroed, and their
    difference vector is exactly zero, so they add nothing to either
    update.  Their squared distance is set to 1 so that ``sqrt``
    never sees a zero, and it passes no gradient back.  The feature MLP,
    its input concat and the final coordinate add are ordinary ops on the
    node rows.
    """
    d = state.feats.shape[-1]
    if d != params.feat_width:
        raise ContractError(
            "state features have width %d, layer expects %d" % (d, params.feat_width)
        )
    if receive is None:
        receive = np.ones(state.batch_shape, dtype=bool)
    elif np.shape(receive) != state.coords.shape[:-1] or np.asarray(receive).dtype != bool:
        raise ContractError(
            "receive must be a bool mask of shape %s" % (state.coords.shape[:-1],)
        )
    receive = np.reshape(receive, state.batch_shape)
    gathered = _gated_messages(state, params.message, params.gate_w, params.gate_b, receive)
    new_feats = mlp_forward(params.feature, ad.concat([state.feats, gathered], axis=-1))
    new_coords = ad.add(state.coords, _coord_step(state, params.coord, receive))
    return GraphState(new_coords, new_feats)


def egnn_forward(state, model, receive=None):
    """Apply every layer of the model in order.

    ``receive`` is the bool mask, shaped like the coordinates without
    their last axis, of the rows whose outputs the caller reads; None
    reads every row.  Only the last layer takes it (see
    ``egcl_forward``): every earlier layer updates every row, since each of
    them feeds the messages of the next.  So the rows inside the mask get
    the outputs of the full graph, and the rows outside it the last
    layer's update with no messages received.
    """
    out = state
    for k, layer in enumerate(model.layers):
        out = egcl_forward(out, layer, receive if k == len(model.layers) - 1 else None)
    return out


# The d² row of the pair MLPs' first layer is drawn at this fraction of
# its Glorot scale.  Squared distances of a starting chain reach ~2e3 Å²
# at L=30 and ~2e4 Å² at L=100, where node features are of order 1; a
# full-scale row lets d² swamp the features, and whether the first
# messages and shifts stay sane then depends on the weight draw.
_DIST_ROW_SCALE = 0.02


def init_egcl(rng, feat_width, message_width):
    """Fresh layer.  The gate weight starts at zero, so that every gate
    starts at 1/2 whatever the draw; the gate draws nothing."""
    pair_width = 2 * feat_width + 1
    layer = EgclParams(
        message=init_mlp(rng, pair_width, message_width, message_width),
        gate_w=ad.Tensor(np.zeros((message_width, 1)), requires_grad=True),
        gate_b=ad.Tensor(np.zeros(1), requires_grad=True),
        feature=init_mlp(rng, feat_width + message_width, message_width, feat_width),
        coord=init_mlp(rng, pair_width, message_width, 1, out_scale=0.01),
        feat_width=feat_width,
        message_width=message_width,
    )
    for mlp in (layer.message, layer.coord):
        mlp.w1.data[2 * feat_width] *= _DIST_ROW_SCALE
    return layer


def init_egnn(rng, depth, feat_width, message_width=None):
    message_width = feat_width if message_width is None else message_width
    layers = [init_egcl(rng, feat_width, message_width) for _ in range(depth)]
    return EgnnModel(layers=layers, feat_width=feat_width)


def equivariance_check(model, state, trials, rng, forward=None):
    """Largest equivariance violation over random rigid transforms.

    For each trial a random rotation-or-reflection plus translation is
    applied to the input coordinates; the result of mapping-then-
    transforming is compared against transforming-then-mapping, and the
    worst absolute coordinate or feature deviation across all trials is
    returned.  ``forward`` defaults to the model stack itself.
    """
    if trials < 1:
        raise ContractError("trials must be at least 1, got %d" % trials)
    run = egnn_forward if forward is None else forward
    base = run(state, model)
    worst = 0.0
    for _ in range(trials):
        transform = random_rigid(rng, reflect=bool(rng.integers(0, 2)))
        moved = GraphState(
            ad.Tensor(apply_rigid(transform, state.coords.data)), state.feats
        )
        out = run(moved, model)
        coord_dev = np.max(
            np.abs(out.coords.data - apply_rigid(transform, base.coords.data)),
            initial=0.0,
        )
        feat_dev = np.max(np.abs(out.feats.data - base.feats.data), initial=0.0)
        worst = max(worst, float(coord_dev), float(feat_dev))
    return worst
