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
N²·H.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError
from .geometry import apply_rigid, random_rigid


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

    ``message`` maps the pair input (both node features, squared
    distance, optional edge attributes) to a message; ``attention`` maps
    each message to its gate; ``feature`` maps a node's features plus
    its aggregated messages back to the feature width; and ``coord``
    produces the scalar weight on each pair difference vector in the
    coordinate update.  The output activations of the pair
    MLPs are fixed by ``_gated_messages`` and ``_coord_step``.
    """

    message: MlpParams
    attention: MlpParams
    feature: MlpParams
    coord: MlpParams
    feat_width: int
    message_width: int
    attr_width: int = 0

    def __post_init__(self):
        pair_width = 2 * self.feat_width + 1 + self.attr_width
        checks = [
            (self.message.width_in, pair_width, "message input"),
            (self.message.width_out, self.message_width, "message output"),
            (self.attention.width_in, self.message_width, "attention input"),
            (self.attention.width_out, 1, "attention output"),
            (self.feature.width_in, self.feat_width + self.message_width, "feature input"),
            (self.feature.width_out, self.feat_width, "feature output"),
            (self.coord.width_in, pair_width, "coordinate input"),
            (self.coord.width_out, 1, "coordinate output"),
        ]
        for got, want, what in checks:
            if got != want:
                raise ContractError("%s width is %d, expected %d" % (what, got, want))


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
    adds a leading axis, (B, N, 3) and (B, N, d).  Optional
    ``edge_attrs`` is a plain (N, N, A) float64 array shared by every graph.
    The edge attributes are constants: no gradient reaches them.  Every
    ordered pair of distinct nodes of a graph is an edge.
    """

    coords: ad.Tensor
    feats: ad.Tensor
    edge_attrs: Optional[np.ndarray] = None

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
        n = self.node_count
        if self.edge_attrs is not None:
            self.edge_attrs = np.asarray(self.edge_attrs, dtype=np.float64)
            if self.edge_attrs.ndim != 3 or self.edge_attrs.shape[:2] != (n, n):
                raise DimensionError(
                    "edge_attrs must be (N, N, A), got shape %s"
                    % (self.edge_attrs.shape,)
                )

    @property
    def batch_shape(self):
        """(B, N): the number of graphs, 1 without a batch axis, and of
        nodes in each."""
        return int(np.prod(self.coords.shape[:-2])), self.coords.shape[-2]

    @property
    def node_count(self):
        return self.batch_shape[1]

    @property
    def attr_width(self):
        return 0 if self.edge_attrs is None else self.edge_attrs.shape[2]


# Values in one (rows, N, width) block of pair activations: 2**17
# float64 values, about 1 MB, so that a block's activations stay in cache
# while they are built and consumed.
_BLOCK_VALUES = 2 ** 17


def _row_blocks(batch_shape, width):
    """Receiving rows per block, and the blocks of the B graphs of N
    nodes of ``batch_shape`` = (B, N), each as (b0, b1, i0, i1): rows
    i0:i1 of graphs b0:b1.

    A block takes as many whole graphs as fit in it, so that small graphs
    share one block; a graph with more rows than fit is walked one block
    of rows at a time.
    """
    batch, n = batch_shape
    rows = max(1, _BLOCK_VALUES // max(1, n * width))
    if n == 0:
        return rows, []
    if rows >= n:
        graphs = rows // n
        return rows, [(b, min(b + graphs, batch), 0, n) for b in range(0, batch, graphs)]
    return rows, [
        (b, b + 1, i, min(i + rows, n)) for b in range(batch) for i in range(0, n, rows)
    ]


def _scratch(blocks, n, widths):
    """One (pairs, width) array per width, where pairs is the largest
    block's pair count, reused by every block so that no block allocates
    arrays of its own.  They are views of one flat allocation: glibc's
    malloc then reuses the same pages from call to call, where separate
    arrays of this size were returned to the system and faulted in again
    on every call (1317 minor page faults against 0 per forward and
    backward of a two-layer width-32 EGNN at N=30)."""
    count = n * max([(b1 - b0) * (i1 - i0) for b0, b1, i0, i1 in blocks], default=0)
    flat = np.empty(count * sum(widths))
    parts = np.split(flat, np.cumsum([count * width for width in widths[:-1]]))
    return [part.reshape(count, width) for part, width in zip(parts, widths)]


def _silu(z, s, u):
    """Write sigmoid(z) into ``s`` and silu(z) = z * sigmoid(z) into ``u``."""
    ad._sigmoid(z, out=s)
    np.multiply(z, s, out=u)


def _silu_slope(z, s, u):
    """Overwrite ``z`` with d silu(z)/dz = s * (1 + z * (1 - s)), given
    ``s`` and ``u`` from ``_silu``; z * (1 - s) is z - u."""
    z -= u
    z += 1.0
    z *= s
    return z


class _PairInput:
    """The pair input ``[h_i, h_j, d²_ij, a_ij]`` of one pair MLP, built
    one block of receiving rows at a time, and its gradient.

    Its product with ``w1`` splits into ``h_i @ w1[:d]``, ``h_j @
    w1[d:2d]`` and ``[d², a] @ w1[2d:]``: the node terms cost B·N rows of
    matmul, not B·N².  The edge attributes are constants and get no
    gradient.  A block is a (b0, b1, i0, i1) of ``_row_blocks``, and its
    pair arrays are (graphs, rows, N, ·).
    """

    def __init__(self, state, mlp):
        batch, n = state.batch_shape
        self.coords = state.coords.data.reshape(batch, n, 3)
        self.attrs = state.edge_attrs
        d = state.feats.shape[-1]
        self.feats = state.feats.data.reshape(-1, d)
        w1 = mlp.w1.data
        self.w_i, self.w_j, self.w_edge = w1[:d], w1[d:2 * d], w1[2 * d:]
        shape = (batch, n, w1.shape[1])
        self.from_i = (self.feats @ self.w_i).reshape(shape)
        self.from_j = (self.feats @ self.w_j + mlp.b1.data).reshape(shape)

    def block(self, blk, out):
        """Write the first-layer pre-activations of block ``blk`` into
        ``out``, (graphs * rows * N, H), and return the difference vectors
        x_i - x_j, (graphs, rows, N, 3), and ``[d², a]``, (graphs, rows, N,
        1 + A).

        The diagonal pair (i, i) gets d² = 1, so that ``sqrt`` never sees
        a zero; its difference vector is exactly zero.
        """
        b0, b1, i0, i1 = blk
        coords = self.coords[b0:b1]
        diff = coords[:, i0:i1, None, :] - coords[:, None, :, :]
        sq_dist = (diff * diff).sum(axis=3)
        rows = np.arange(i1 - i0)
        sq_dist[:, rows, rows + i0] = 1.0
        edge_in = sq_dist[:, :, :, None]
        if self.attrs is not None:
            attrs = np.broadcast_to(self.attrs[i0:i1], sq_dist.shape + self.attrs.shape[2:])
            edge_in = np.concatenate([edge_in, attrs], axis=3)
        np.matmul(edge_in.reshape(-1, edge_in.shape[3]), self.w_edge, out=out)
        out4 = out.reshape(edge_in.shape[:3] + (-1,))
        out4 += self.from_i[b0:b1, i0:i1, None, :]
        out4 += self.from_j[b0:b1, None, :, :]
        return diff, edge_in

    def start_grad(self):
        self.g_coords = np.zeros_like(self.coords)
        self.g_i = np.zeros_like(self.from_i)
        self.g_j = np.zeros_like(self.from_j)
        self.g_edge = np.zeros_like(self.w_edge)
        self._sum_i = np.empty_like(self.from_j)

    def add_grad(self, blk, diff, edge_in, d_out, d_sq_dist=None, d_diff=None):
        """Accumulate the gradient of block ``blk``, given what ``block``
        returned for it, d(loss)/d(pre-activations) ``d_out``, (graphs *
        rows * N, H), and any gradient that reaches d² or the difference
        vectors another way.  A block kept on the instance instead would
        outlive the forward pass on the tape: that raised the peak RSS of
        width-32 training (bench ``train-toy``, 2 cores) from 63 to 69 MB.
        On the diagonal the difference vector is zero, so d² passes
        nothing.
        """
        b0, b1, i0, i1 = blk
        d_out4 = d_out.reshape(edge_in.shape[:3] + (-1,))
        d_out4.sum(axis=2, out=self.g_i[b0:b1, i0:i1])
        self.g_j[b0:b1] += d_out4.sum(axis=1, out=self._sum_i[b0:b1])
        self.g_edge += edge_in.reshape(-1, edge_in.shape[3]).T @ d_out
        d_sq = (d_out @ self.w_edge[:1].T).reshape(edge_in.shape[:3])
        if d_sq_dist is not None:
            d_sq += d_sq_dist
        total = d_sq[:, :, :, None] * diff
        total *= 2.0
        if d_diff is not None:
            total += d_diff
        self.g_coords[b0:b1, i0:i1] += total.sum(axis=2)
        self.g_coords[b0:b1] -= total.sum(axis=1)

    def grads(self):
        """(d coords, d feats, d w1, d b1) once every block has been added."""
        width = self.g_i.shape[2]
        g_i, g_j = self.g_i.reshape(-1, width), self.g_j.reshape(-1, width)
        g_feats = g_i @ self.w_i.T + g_j @ self.w_j.T
        g_w1 = np.concatenate([self.feats.T @ g_i, self.feats.T @ g_j, self.g_edge])
        return self.g_coords.reshape(-1, 3), g_feats, g_w1, g_j.sum(axis=0)


def _accumulate_product(acc, a, b, tmp):
    """acc += a.T @ b, through the preallocated ``tmp``."""
    np.matmul(a.T, b, out=tmp)
    acc += tmp


def _gated_messages(state, message_mlp, attention_mlp):
    """sum_j gate_ij * m_ij for every node i, as one tape node, shaped
    like the node features with width M.

    m_ij = silu(``message_mlp`` of the pair input) and gate_ij =
    sigmoid(``attention_mlp`` of m_ij); the diagonal's gate is zero.  These
    output activations belong
    to the layer, since ``mlp_forward`` ends linearly.  The pairs are
    walked one block at a time and nothing of size N² is kept: the
    backward pass computes each block again.  The edge attributes are not
    an input of the node.
    """
    batch, n = state.batch_shape
    pair = _PairInput(state, message_mlp)
    w2, b2 = message_mlp.w2.data, message_mlp.b2.data
    a_w1, a_b1 = attention_mlp.w1.data, attention_mlp.b1.data
    a_w2, a_b2 = attention_mlp.w2.data, attention_mlp.b2.data
    hidden, width, a_hidden = w2.shape[0], w2.shape[1], a_w1.shape[1]
    _, blocks = _row_blocks(state.batch_shape, max(hidden, width, a_hidden))
    widths = [hidden] * 3 + [width] * 3 + [a_hidden] * 3

    def block(scratch, blk):
        b0, b1, i0, i1 = blk
        z1, s1, u1, z2, s2, msg, z3, s3, u3 = (
            a[:(b1 - b0) * (i1 - i0) * n] for a in scratch
        )
        diff, edge_in = pair.block(blk, out=z1)
        _silu(z1, s1, u1)
        np.matmul(u1, w2, out=z2)
        z2 += b2
        _silu(z2, s2, msg)
        np.matmul(msg, a_w1, out=z3)
        z3 += a_b1
        _silu(z3, s3, u3)
        gate = ad._sigmoid(u3 @ a_w2 + a_b2).reshape(edge_in.shape[:3])
        diag = np.arange(i1 - i0)
        gate[:, diag, diag + i0] = 0.0
        return diff, edge_in, (z1, s1, u1, z2, s2, msg, z3, s3, u3, gate)

    out = np.empty((batch, n, width))
    scratch = _scratch(blocks, n, widths)
    for blk in blocks:
        b0, b1, i0, i1 = blk
        saved = block(scratch, blk)[2]
        gate = saved[9]
        msg = saved[5].reshape(gate.shape + (width,))
        np.matmul(gate[:, :, None, :], msg, out=out[b0:b1, i0:i1, None, :])

    def backward(g_out):
        g_out = g_out.reshape(batch, n, width)
        pair.start_grad()
        g_w2, g_b2 = np.zeros_like(w2), np.zeros_like(b2)
        g_a_w1, g_a_b1 = np.zeros_like(a_w1), np.zeros_like(a_b1)
        g_a_w2, g_a_b2 = np.zeros_like(a_w2), np.zeros_like(a_b2)
        tmp_w2, tmp_a_w1 = np.empty_like(w2), np.empty_like(a_w1)
        *scratch, d_z2_scratch = _scratch(blocks, n, widths + [width])
        for blk in blocks:
            b0, b1, i0, i1 = blk
            diff, edge_in, saved = block(scratch, blk)
            z1, s1, u1, z2, s2, msg, z3, s3, u3, gate = saved
            g_rows = g_out[b0:b1, i0:i1]
            msg4 = msg.reshape(gate.shape + (width,))
            # the zeroed diagonal gate has zero slope, so it passes nothing back
            d_z4 = np.matmul(msg4, g_rows[:, :, :, None]).reshape(-1, 1)
            d_z4 *= (gate * (1.0 - gate)).reshape(-1, 1)
            g_a_w2 += u3.T @ d_z4
            g_a_b2 += d_z4.sum(axis=0)
            d_z3 = _silu_slope(z3, s3, u3)
            d_z3 *= d_z4
            d_z3 *= a_w2[:, 0]
            _accumulate_product(g_a_w1, msg, d_z3, tmp_a_w1)
            g_a_b1 += d_z3.sum(axis=0)
            d_z2 = np.matmul(d_z3, a_w1.T, out=d_z2_scratch[:len(d_z3)])
            slope2 = _silu_slope(z2, s2, msg)
            np.multiply(gate[:, :, :, None], g_rows[:, :, None, :], out=msg4)
            d_z2 += msg
            d_z2 *= slope2
            _accumulate_product(g_w2, u1, d_z2, tmp_w2)
            g_b2 += d_z2.sum(axis=0)
            slope1 = _silu_slope(z1, s1, u1)
            d_z1 = np.matmul(d_z2, w2.T, out=u1)
            d_z1 *= slope1
            pair.add_grad(blk, diff, edge_in, d_z1)
        return pair.grads() + (g_w2, g_b2, g_a_w1, g_a_b1, g_a_w2, g_a_b2)

    inputs = (state.coords, state.feats, *message_mlp.tensors(), *attention_mlp.tensors())
    out = out.reshape(state.feats.shape[:-1] + (width,))
    return ad.record_op(out, inputs, backward, "egnn.gated_messages")


def _coord_step(state, coord_mlp):
    """sum_j (x_i - x_j) * c_ij / (d_ij + 1) for every node i, as one tape
    node shaped like the coordinates, where c_ij is ``coord_mlp`` of the
    pair input, with no output activation.

    Walked one block at a time like ``_gated_messages``, and computed
    again block by block in the backward pass.  The edge attributes are
    not an input of the node.
    """
    batch, n = state.batch_shape
    pair = _PairInput(state, coord_mlp)
    w2, b2 = coord_mlp.w2.data, coord_mlp.b2.data
    hidden = w2.shape[0]
    _, blocks = _row_blocks(state.batch_shape, hidden)

    def block(scratch, blk):
        b0, b1, i0, i1 = blk
        y1, s1, v1 = (a[:(b1 - b0) * (i1 - i0) * n] for a in scratch)
        diff, edge_in = pair.block(blk, out=y1)
        _silu(y1, s1, v1)
        coef = (v1 @ w2 + b2).reshape(edge_in.shape[:3])
        dist = np.sqrt(edge_in[:, :, :, 0])
        return diff, edge_in, (y1, s1, v1, coef, dist, coef / (dist + 1.0))

    out = np.empty((batch, n, 3))
    scratch = _scratch(blocks, n, [hidden] * 3)
    for blk in blocks:
        b0, b1, i0, i1 = blk
        diff, _, saved = block(scratch, blk)
        weight = saved[5]
        np.matmul(weight[:, :, None, :], diff, out=out[b0:b1, i0:i1, None, :])

    def backward(g_out):
        g_out = g_out.reshape(batch, n, 3)
        pair.start_grad()
        g_w2, g_b2 = np.zeros_like(w2), np.zeros_like(b2)
        scratch = _scratch(blocks, n, [hidden] * 3)
        for blk in blocks:
            b0, b1, i0, i1 = blk
            diff, edge_in, saved = block(scratch, blk)
            y1, s1, v1, coef, dist, weight = saved
            g_rows = g_out[b0:b1, i0:i1]
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
            pair.add_grad(blk, diff, edge_in, d_y1, d_sq_dist, d_diff)
        return pair.grads() + (g_w2, g_b2)

    inputs = (state.coords, state.feats, *coord_mlp.tensors())
    return ad.record_op(out.reshape(state.coords.shape), inputs, backward, "egnn.coord_step")


def egcl_forward(state, params):
    """One message-passing layer; returns the updated graph state.

    The pair work is two fused tape nodes, ``_gated_messages`` and
    ``_coord_step``, for every graph of the batch at once.  Each walks
    the dense (N, N) pair grids one block of receiving rows at a time,
    about 1 MB per (rows, N, H) array, keeps
    nothing of size N², and computes each block again in its backward
    pass, in the manner of gradient checkpointing.  The forward code is
    the same with and without a tape.  The diagonal pairs (i, i) are
    computed along with the rest: their attention gate is zeroed, and
    their difference vector is exactly zero, so they add nothing to
    either update.  Their squared distance is set to 1 so that ``sqrt``
    never sees a zero, and it passes no gradient back.  The feature MLP,
    its input concat and the final coordinate add are ordinary ops on the
    node rows.
    """
    d = state.feats.shape[-1]
    if d != params.feat_width:
        raise ContractError(
            "state features have width %d, layer expects %d" % (d, params.feat_width)
        )
    if state.attr_width != params.attr_width:
        raise ContractError(
            "state edge attributes have width %d, layer expects %d"
            % (state.attr_width, params.attr_width)
        )
    gathered = _gated_messages(state, params.message, params.attention)
    new_feats = mlp_forward(params.feature, ad.concat([state.feats, gathered], axis=-1))
    new_coords = ad.add(state.coords, _coord_step(state, params.coord))
    return GraphState(new_coords, new_feats, state.edge_attrs)


def egnn_forward(state, model):
    """Apply every layer of the model in order."""
    out = state
    for layer in model.layers:
        out = egcl_forward(out, layer)
    return out


def init_egcl(rng, feat_width, message_width, attr_width=0):
    pair_width = 2 * feat_width + 1 + attr_width
    return EgclParams(
        message=init_mlp(rng, pair_width, message_width, message_width),
        attention=init_mlp(rng, message_width, message_width, 1),
        feature=init_mlp(rng, feat_width + message_width, message_width, feat_width),
        coord=init_mlp(rng, pair_width, message_width, 1, out_scale=0.01),
        feat_width=feat_width,
        message_width=message_width,
        attr_width=attr_width,
    )


def init_egnn(rng, depth, feat_width, message_width=None, attr_width=0):
    message_width = feat_width if message_width is None else message_width
    layers = [init_egcl(rng, feat_width, message_width, attr_width) for _ in range(depth)]
    return EgnnModel(layers=layers, feat_width=feat_width)


SEQSEP_BOUNDS = (1, 2, 4, 8, 16, 32)


def sequence_separation_attrs(n):
    """One-hot sequence-separation buckets as (N, N, len(SEQSEP_BOUNDS)+1) attrs.

    Bucket k holds pairs whose index separation falls between bounds
    k-1 (exclusive) and k (inclusive); separations beyond the last bound
    share the final bucket.  Purely index-based, so rigid motions of the
    coordinates never change it.
    """
    sep = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    bucket = np.searchsorted(SEQSEP_BOUNDS, sep, side="left")
    out = np.zeros((n, n, len(SEQSEP_BOUNDS) + 1), dtype=np.float64)
    rows, cols = np.indices((n, n))
    out[rows, cols, bucket] = 1.0
    return out


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
            ad.Tensor(apply_rigid(transform, state.coords.data)),
            state.feats,
            state.edge_attrs,
        )
        out = run(moved, model)
        coord_dev = np.max(
            np.abs(out.coords.data - apply_rigid(transform, base.coords.data)),
            initial=0.0,
        )
        feat_dev = np.max(np.abs(out.feats.data - base.feats.data), initial=0.0)
        worst = max(worst, float(coord_dev), float(feat_dev))
    return worst
