"""Equivariant graph convolution over fully connected 3D graphs.

Each layer passes messages between every ordered node pair, updates the
node features invariantly, and moves the coordinates along the pair
difference vectors so that the whole map commutes with rotations,
translations and reflections of the input coordinates.  A batch of B
graphs of N nodes each is the arrays of one graph with a leading batch
axis, (B, N, 3) coordinates and (B, N, d) features, and runs through
each layer at once.

The pair work of a layer is one fused tape node written in numpy, which
computes the gated message sum and the coordinate step from one pair
input.  It walks the dense pair grids one block of receiving rows at a
time, sized so that a (rows, N, H) array is about 1 MB: both pair MLPs
read the block's one geometry, and the coordinate MLP runs in the
message MLP's spent arrays.  It keeps nothing of size N² between forward
and backward, and computes every block again in its backward pass
(gradient checkpointing, Chen et al. 2016).  Memory therefore grows with
N·H, not N²·H.  The blocks are dealt into two parts that run on the
two-thread pool of ``geopro.pool``.  The first kernel call of any size
sets numpy's OpenBLAS to one thread before its first product, so that
BLAS rounds the same way in every call of the process; a call with one
block runs on the calling thread.

Each layer's feature MLP is one tape node as well, ``mlp_forward``,
which also serves as the feed-forward of every transformer block in
``seqmodel``; it and the pair kernel share the one silu of ``autodiff``.

A layer may be given the rows that its caller reads (``egcl_forward``):
its blocks then list only those receiving rows, and every other row
receives no messages.  ``egnn_forward`` gives such a mask to its last
layer only.
"""

import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError
from .geometry import apply_rigid, random_rigid
from .pool import part_pool, run_parts


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
    """silu(x @ w1 + b1) @ w2 + b2 over the last axis of ``x`` as one tape
    node, ``"mlp"``: every transformer block's feed-forward and every EGNN
    layer's feature MLP.

    Every row of ``x`` runs through one 2-D product per layer, as in
    ``ad.matmul``, and the hidden layer has the bits of ``ad.silu``.  The
    node keeps only half the hidden pre-activations, z/2, and computes
    the silu again in its backward pass.
    """
    w1, b1, w2, b2 = (t.data for t in params.tensors())
    rows = x.data.reshape(-1, x.shape[-1])
    half = rows @ w1
    half += b1
    half *= 0.5
    hidden = np.empty_like(half)
    ad._silu(half, hidden, hidden)
    out = hidden @ w2
    out += b2

    def backward(g):
        g = g.reshape(-1, w2.shape[1])
        t, u = np.empty_like(half), np.empty_like(half)
        ad._silu(half, t, u)
        g_w2 = u.T @ g
        g_z = g @ w2.T
        # the node runs backward once, so the slope may overwrite half
        g_z *= ad._silu_slope(half, t, u)
        g_x = (g_z @ w1.T).reshape(x.shape)
        return g_x, rows.T @ g_z, g_z.sum(axis=0), g_w2, g.sum(axis=0)

    out = out.reshape(x.shape[:-1] + (w2.shape[1],))
    return ad.record_op(out, (x, *params.tensors()), backward, "mlp")


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
    activations of the pair MLPs are fixed by ``_pair_update``, which runs
    the coordinate MLP in the message MLP's arrays: the two share one
    hidden width.
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
            (self.coord.w1.shape[1], self.message.w1.shape[1], "coordinate hidden width"),
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
    nothing, whose outputs and upstream gradients the kernel zeroes.  A
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


# Each thread's kernel workspace: one flat float64 array per part (see
# ``_scratch``).  Per thread, so that kernels called from two threads at
# once never share scratch.
_workspace = threading.local()


def _scratch(parts, n, widths):
    """For each part, one (pairs, width) array per width, where pairs is
    the part's largest block's pair count, reused by every block of the
    part so that no block allocates arrays of its own.

    A forward walk holds the arrays it still reads, 4 per part, since
    each silu writes its output over its own tanh array.  A backward walk
    needs every activation for the slopes, 6.  The coordinate MLP runs in
    the message MLP's first-layer arrays once they are spent.

    A part's arrays are views of one flat array of the calling thread's
    workspace, kept from call to call and grown only when a call needs
    more, so that the kernel's scratch is allocated, and its pages
    faulted in, once per thread, not once per call.  A flat array freed
    at the end of each call is not reused from call to call: glibc maps
    an allocation of this size (4 to 6 MB per part at width 320, L=100)
    afresh and unmaps it when freed, until the process frees a mapped
    block larger than it, and no larger than 32 MB, which raises glibc's
    mmap threshold to that block's size.  In a process that never did,
    every call faulted its scratch in again: 7,873 minor page faults per
    ``design-paper`` bench op (two width-320 candidates at L=100, 2-core
    Xeon), against 906 with the workspace.  The workspace holds about
    12 MB at width 320, L=100, for the life of the thread.  The pool
    threads draw nothing from glibc arenas of their own, since the
    calling thread makes the arrays.
    """
    flats = vars(_workspace).setdefault("flats", [])
    out = []
    for index, part in enumerate(parts):
        count = n * max([blk[2].size for blk in part], default=0)
        size = count * sum(widths)
        if index == len(flats):
            flats.append(np.empty(0))
        if flats[index].size < size:
            flats[index] = np.empty(0)  # free the smaller array before the larger is made
            flats[index] = np.empty(size)
        arrays = np.split(flats[index][:size],
                          np.cumsum([count * width for width in widths[:-1]]))
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


def _halves(*arrays):
    """Each array times 1/2: the weights whose products feed an ``ad._silu``,
    so that a block builds h = z/2 directly."""
    return [0.5 * a for a in arrays]


def _geometry(coords, blk):
    """The difference vectors x_i - x_j, (graphs, r, N, 3), and d²,
    (graphs, r, N), of block ``blk`` of ``coords``, (B, N, 3).

    The diagonal pair (i, i) gets d² = 1, so that ``sqrt`` never sees a
    zero; its difference vector is exactly zero.
    """
    b0, b1, rows, _ = blk
    coords = coords[b0:b1]
    diff = coords[_pick(rows)][:, :, None, :] - coords[:, None, :, :]
    sq_dist = (diff * diff).sum(axis=3)
    sq_dist[_diagonal(rows)] = 1.0
    return diff, sq_dist


class _PairInput:
    """The pair input ``[h_i, h_j, d²_ij]`` of one pair MLP, built one
    block of receiving rows at a time, and its gradient.

    Its product with ``w1`` splits into ``h_i @ w1[:d]``, ``h_j @
    w1[d:2d]`` and ``d² * w1[2d]``: the node terms cost B·N rows of
    matmul, not B·N².  A block is a (b0, b1, rows, keep) of
    ``_row_blocks``, and its pair arrays are (graphs, r, N, ·).  A block
    holds half the pre-activations, the input ``ad._silu`` takes; the node
    terms are halved once, and the gradient is of the whole
    pre-activations.
    """

    def __init__(self, state, mlp):
        batch, n = state.batch_shape
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

    def block(self, blk, sq_dist, out):
        """Write half the first-layer pre-activations of block ``blk``, of
        squared distances ``sq_dist``, into ``out``, (graphs * r * N, H)."""
        b0, b1, rows, _ = blk
        out4 = out.reshape(sq_dist.shape + (-1,))
        np.multiply(sq_dist[:, :, :, None], self.half_dist, out=out4)
        out4 += self.from_i[b0:b1][_pick(rows)][:, :, None, :]
        out4 += self.from_j[b0:b1, None, :, :]

    def start_grad(self, count):
        """One ``_PairGrad`` for each of ``count`` parts, all sharing
        ``g_i``."""
        self.g_i = np.zeros_like(self.from_i)
        return [_PairGrad(self) for _ in range(count)]

    def grads(self, part_grads):
        """(d feats, d w1, d b1) once every part has added its blocks."""
        g_j, g_dist = _sum_parts([(p.g_j, p.g_dist) for p in part_grads])
        width = self.g_i.shape[2]
        g_i, g_j = self.g_i.reshape(-1, width), g_j.reshape(-1, width)
        g_feats = g_i @ self.w_i.T + g_j @ self.w_j.T
        g_w1 = np.concatenate([self.feats.T @ g_i, self.feats.T @ g_j, g_dist])
        return g_feats, g_w1, g_j.sum(axis=0)


class _PairGrad:
    """One part's gradient accumulators of a ``_PairInput``.

    Every block adds into ``g_j`` and ``g_dist``, so each part has its
    own; a block writes only its own rows of the shared ``g_i``.
    """

    def __init__(self, pair):
        self.pair = pair
        self.g_j = np.zeros_like(pair.from_j)
        self.g_dist = np.zeros_like(pair.w_dist)
        self._sum_i = np.empty_like(pair.from_j)

    def add_grad(self, blk, sq_dist, d_out):
        """Accumulate the gradient of block ``blk``, of squared distances
        ``sq_dist``, given d(loss)/d(pre-activations) ``d_out``, (graphs *
        r * N, H), and return d(loss)/d(d²), (graphs, r, N).  A block kept
        on the instance instead would outlive the forward pass on the
        tape: that raised the peak RSS of width-32 training (bench
        ``train-toy``, 2 cores) from 63 to 69 MB.
        """
        b0, b1, rows, _ = blk
        d_out4 = d_out.reshape(sq_dist.shape + (-1,))
        self.pair.g_i[b0:b1][_pick(rows)] = d_out4.sum(axis=2)
        self.g_j[b0:b1] += d_out4.sum(axis=1, out=self._sum_i[b0:b1])
        self.g_dist += sq_dist.reshape(1, -1) @ d_out
        return (d_out @ self.pair.w_dist.T).reshape(sq_dist.shape)


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


def _pair_update(state, params, receive):
    """The pair work of layer ``params`` as one tape node of shape (…, N,
    M + 3): for each node i that ``receive``, a (B, N) bool mask, selects,
    the gated message sum sum_j gate_ij * m_ij, then the moved coordinates
    x_i + sum_j (x_i - x_j) * c_ij / (d_ij + 1).  Every other node gets a
    zero message sum and its own coordinates.

    m_ij = silu(``params.message`` of the pair input) and gate_ij =
    sigmoid(m_ij · ``gate_w`` + ``gate_b``), a linear gate; c_ij is
    ``params.coord`` of the pair input, with no output activation.  These
    output activations belong to the layer, since ``mlp_forward`` ends
    linearly.  The diagonal pairs (i, i) are computed along with the rest:
    their gate is zeroed and their difference vector is exactly zero, so
    they add nothing to either sum, and their d² of 1 passes no gradient
    back.  Each part of the blocks has its own scratch, drawn from the
    calling thread's workspace, and its own gradient accumulators,
    allocated here before the parts run.
    """
    pool = part_pool()
    batch, n = state.batch_shape
    coords = state.coords.data.reshape(batch, n, 3)
    message, coord = _PairInput(state, params.message), _PairInput(state, params.coord)
    w2, b2 = params.message.w2.data, params.message.b2.data
    c_w2, c_b2 = params.coord.w2.data, params.coord.b2.data
    w_gate, b_gate = params.gate_w.data, params.gate_b.data
    hidden, width = w2.shape
    _, blocks = _row_blocks(receive, max(hidden, width))
    parts = _parts(blocks)

    def messages(blk, sq_dist, halves, z1, s1, u1, z2, s2, msg):
        half_w2, half_b2 = halves
        message.block(blk, sq_dist, out=z1)
        ad._silu(z1, s1, u1)
        np.matmul(u1, half_w2, out=z2)
        z2 += half_b2
        ad._silu(z2, s2, msg)
        gate = ad._sigmoid(msg @ w_gate + b_gate).reshape(sq_dist.shape)
        gate[_diagonal(blk[2])] = 0.0
        return gate

    def shifts(blk, sq_dist, y1, s1, v1):
        coord.block(blk, sq_dist, out=y1)
        ad._silu(y1, s1, v1)
        coef = (v1 @ c_w2 + c_b2).reshape(sq_dist.shape)
        dist = np.sqrt(sq_dist)
        return coef, dist, coef / (dist + 1.0)

    def forward(part, scratch, halves):
        for blk in part:
            # u1 is written over s1 and msg over s2, since nothing reads s1
            # or s2 later; the coordinate MLP then runs in the spent z1 and s1
            z1, s1, z2, s2 = (a[:blk[2].size * n] for a in scratch)
            diff, sq_dist = _geometry(coords, blk)
            gate = messages(blk, sq_dist, halves, z1, s1, s1, z2, s2, s2)
            msg = s2.reshape(gate.shape + (width,))
            _put_rows(out[..., :width], blk, np.matmul(gate[:, :, None, :], msg)[:, :, 0])
            weight = shifts(blk, sq_dist, z1, s1, s1)[2]
            _put_rows(out[..., width:], blk, np.matmul(weight[:, :, None, :], diff)[:, :, 0])

    out = np.zeros((batch, n, width + 3))
    halves = _halves(w2, b2)
    scratches = _scratch(parts, n, [hidden, hidden, width, width])
    run_parts(pool, forward, [(part, scratch, halves)
                              for part, scratch in zip(parts, scratches)])
    out[..., width:] += coords

    def backward(g_out):
        g_out = g_out.reshape(batch, n, width + 3)
        g_sums, g_moved = g_out[..., :width], g_out[..., width:]
        halves = _halves(w2, b2)
        accs = [[np.zeros_like(a) for a in (coords, w2, b2, w_gate, b_gate, c_w2, c_b2)]
                for _ in parts]
        tmps = [np.empty_like(w2) for _ in parts]
        message_grads = message.start_grad(len(parts))
        coord_grads = coord.start_grad(len(parts))
        scratches = _scratch(parts, n, [hidden] * 3 + [width] * 3)

        def walk(part, scratch, message_grad, coord_grad, acc, tmp_w2):
            g_coords, g_w2, g_b2, g_w_gate, g_b_gate, g_c_w2, g_c_b2 = acc
            for blk in part:
                z1, s1, u1, z2, s2, msg = (a[:blk[2].size * n] for a in scratch)
                diff, sq_dist = _geometry(coords, blk)
                gate = messages(blk, sq_dist, halves, z1, s1, u1, z2, s2, msg)
                g_rows = _grad_rows(g_sums, blk)
                msg4 = msg.reshape(gate.shape + (width,))
                # the zeroed diagonal gate has zero slope, so it passes nothing back
                d_z3 = np.matmul(msg4, g_rows[:, :, :, None]).reshape(-1, 1)
                d_z3 *= (gate * (1.0 - gate)).reshape(-1, 1)
                g_w_gate += msg.T @ d_z3
                g_b_gate += d_z3.sum(axis=0)
                slope2 = ad._silu_slope(z2, s2, msg)
                _message_grad(d_z3.reshape(gate.shape), gate, w_gate, g_rows, out=msg4)
                d_z2 = msg
                d_z2 *= slope2
                g_w2 += np.matmul(u1.T, d_z2, out=tmp_w2)
                g_b2 += d_z2.sum(axis=0)
                slope1 = ad._silu_slope(z1, s1, u1)
                d_z1 = np.matmul(d_z2, w2.T, out=u1)
                d_z1 *= slope1
                d_sq = message_grad.add_grad(blk, sq_dist, d_z1)

                # the coordinate MLP runs in the spent z1, s1 and u1
                coef, dist, weight = shifts(blk, sq_dist, z1, s1, u1)
                g_rows = _grad_rows(g_moved, blk)
                d_weight = np.matmul(diff, g_rows[:, :, :, None])[:, :, :, 0]
                denom = dist + 1.0
                d_coef = d_weight / denom
                # weight = coef / (sqrt(d²) + 1), differentiated in d²; where two
                # distinct nodes share a point, d² = 0 and d_coef = 0: the term is 0
                d_dist = -d_coef * coef
                np.divide(d_dist, denom * 2.0 * dist, out=d_dist, where=dist > 0.0)
                d_sq += d_dist
                d_coef = d_coef.reshape(-1, 1)
                g_c_w2 += u1.T @ d_coef
                g_c_b2 += d_coef.sum(axis=0)
                d_y1 = ad._silu_slope(z1, s1, u1)
                d_y1 *= d_coef
                d_y1 *= c_w2[:, 0]
                d_sq += coord_grad.add_grad(blk, sq_dist, d_y1)

                # d(loss)/d(x_i - x_j), through d² and the coordinate step
                d_diff = d_sq[:, :, :, None] * diff
                d_diff *= 2.0
                d_diff += weight[:, :, :, None] * g_rows[:, :, None, :]
                b0, b1, rows, _ = blk
                g_coords[b0:b1][_pick(rows)] += d_diff.sum(axis=2)
                g_coords[b0:b1] -= d_diff.sum(axis=1)

        run_parts(pool, walk, list(zip(parts, scratches, message_grads, coord_grads, accs,
                                       tmps)))
        g_coords, g_w2, g_b2, g_w_gate, g_b_gate, g_c_w2, g_c_b2 = _sum_parts(accs)
        g_coords += g_moved
        g_feats, *g_message = message.grads(message_grads)
        g_coord_feats, *g_coord = coord.grads(coord_grads)
        g_feats += g_coord_feats
        return (g_coords, g_feats, *g_message, g_w2, g_b2, g_w_gate, g_b_gate,
                *g_coord, g_c_w2, g_c_b2)

    inputs = (state.coords, state.feats, *params.message.tensors(), params.gate_w,
              params.gate_b, *params.coord.tensors())
    out = out.reshape(state.feats.shape[:-1] + (width + 3,))
    return ad.record_op(out, inputs, backward, "egnn.pair_update")


def egcl_forward(state, params, receive=None):
    """One message-passing layer; returns the updated graph state.

    ``receive``, a bool mask shaped like the coordinates without their
    last axis, selects the nodes that receive messages; None selects every
    node.  A node outside the mask gets a zero message sum, so its new
    features are the feature MLP of its features alone, and a zero
    coordinate step, so its coordinates pass through unchanged.  It still
    sends messages to the nodes inside the mask, whose updates are those
    of the full graph, bit for bit.

    The pair work of every graph of the batch is one tape node,
    ``_pair_update``, whose output ``ad.split`` cuts into the gated
    message sums and the moved coordinates.  The feature MLP is one
    ``"mlp"`` node (``mlp_forward``) on the node rows, after the ordinary
    concat of its input: five tape nodes a layer.  The forward code is the
    same with and without a tape.
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
    pairs = _pair_update(state, params, receive)
    gathered, new_coords = ad.split(pairs, [params.message_width, 3], axis=-1)
    new_feats = mlp_forward(params.feature, ad.concat([state.feats, gathered], axis=-1))
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
