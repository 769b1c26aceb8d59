"""Equivariant graph convolution over fully connected 3D graphs.

Each layer passes messages between every ordered node pair, updates the
node features invariantly, and moves the coordinates along the pair
difference vectors so that the whole map commutes with rotations,
translations and reflections of the input coordinates.

The pair work of a layer is two fused tape nodes written in numpy: the
gated message sum and the coordinate step.  Each walks the dense pair
grid one block of receiving rows at a time, sized so that a (rows, N, H)
array is about 1 MB, keeps nothing of size N² between forward and
backward, and computes every block again in its backward pass (gradient
checkpointing, Chen et al. 2016).  Memory therefore grows with N·H, not
N²·H.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError
from .geometry import apply_rigid, random_rigid

_ACTIVATIONS = ("none", "silu", "sigmoid")


@dataclass
class MlpParams:
    """Weights of a two-layer perceptron with a smooth hidden activation."""

    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor
    out_activation: str = "none"

    def __post_init__(self):
        if self.out_activation not in _ACTIVATIONS:
            raise ContractError(
                "unknown output activation %r, expected one of %s"
                % (self.out_activation, (_ACTIVATIONS,))
            )
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


def init_mlp(rng, width_in, width_hidden, width_out, out_activation="none", out_scale=1.0):
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
        out_activation=out_activation,
    )


def mlp_forward(params, x):
    hidden = ad.silu(ad.add(ad.matmul(x, params.w1), params.b1))
    out = ad.add(ad.matmul(hidden, params.w2), params.b2)
    if params.out_activation == "silu":
        out = ad.silu(out)
    elif params.out_activation == "sigmoid":
        out = ad.sigmoid(out)
    return out


@dataclass
class EgclParams:
    """One layer's learnable pieces.

    ``message_mlp`` maps the pair input (both node features, squared
    distance, optional edge attributes) to a message; ``attention_mlp``
    gates each message through a sigmoid; ``feature_mlp`` maps a node's
    features plus its aggregated messages back to the feature width; and
    ``coord_mlp`` produces the scalar weight on each pair difference
    vector in the coordinate update.
    """

    message_mlp: MlpParams
    attention_mlp: MlpParams
    feature_mlp: MlpParams
    coord_mlp: MlpParams
    feat_width: int
    message_width: int
    attr_width: int = 0

    def __post_init__(self):
        pair_width = 2 * self.feat_width + 1 + self.attr_width
        checks = [
            (self.message_mlp.width_in, pair_width, "message input"),
            (self.message_mlp.width_out, self.message_width, "message output"),
            (self.attention_mlp.width_in, self.message_width, "attention input"),
            (self.attention_mlp.width_out, 1, "attention output"),
            (self.feature_mlp.width_in, self.feat_width + self.message_width, "feature input"),
            (self.feature_mlp.width_out, self.feat_width, "feature output"),
            (self.coord_mlp.width_in, pair_width, "coordinate input"),
            (self.coord_mlp.width_out, 1, "coordinate output"),
        ]
        for got, want, what in checks:
            if got != want:
                raise ContractError("%s width is %d, expected %d" % (what, got, want))
        # the fused pair kernels hardcode these output activations
        for mlp, want, what in (
            (self.message_mlp, "silu", "message"),
            (self.attention_mlp, "sigmoid", "attention"),
            (self.coord_mlp, "none", "coordinate"),
        ):
            if mlp.out_activation != want:
                raise ContractError(
                    "%s output activation is %r, expected %r"
                    % (what, mlp.out_activation, want)
                )

    def named_tensors(self, prefix):
        out = []
        for mlp_name, mlp in (
            ("message", self.message_mlp),
            ("attention", self.attention_mlp),
            ("feature", self.feature_mlp),
            ("coord", self.coord_mlp),
        ):
            for t_name, tensor in zip(("w1", "b1", "w2", "b2"), mlp.tensors()):
                out.append(("%s.%s.%s" % (prefix, mlp_name, t_name), tensor))
        return out


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

    def named_parameters(self):
        out = []
        for k, layer in enumerate(self.layers):
            out.extend(layer.named_tensors("layer%d" % k))
        return out


@dataclass
class GraphState:
    """Coordinates plus features of a fully connected graph.

    ``coords`` is (N, 3), ``feats`` is (N, d); optional ``edge_attrs``
    is (N, N, A).  Every ordered pair of distinct nodes is an edge.
    """

    coords: ad.Tensor
    feats: ad.Tensor
    edge_attrs: Optional[ad.Tensor] = None

    def __post_init__(self):
        self.coords = ad.as_tensor(self.coords)
        self.feats = ad.as_tensor(self.feats)
        if self.coords.data.ndim != 2 or self.coords.shape[1] != 3:
            raise DimensionError(
                "coords must be (N, 3), got shape %s" % (self.coords.shape,)
            )
        if self.feats.data.ndim != 2:
            raise DimensionError(
                "feats must be (N, d), got shape %s" % (self.feats.shape,)
            )
        n = self.coords.shape[0]
        if self.feats.shape[0] != n:
            raise DimensionError(
                "coords have %d rows but feats have %d" % (n, self.feats.shape[0])
            )
        if self.edge_attrs is not None:
            self.edge_attrs = ad.as_tensor(self.edge_attrs)
            if self.edge_attrs.data.ndim != 3 or self.edge_attrs.shape[:2] != (n, n):
                raise DimensionError(
                    "edge_attrs must be (N, N, A), got shape %s"
                    % (self.edge_attrs.shape,)
                )

    @property
    def node_count(self):
        return self.coords.shape[0]

    @property
    def attr_width(self):
        return 0 if self.edge_attrs is None else self.edge_attrs.shape[2]


# Values in one (rows, N, width) block of pair activations: 2**17
# float64 values, about 1 MB, so that a block's activations stay in cache
# while they are built and consumed.
_BLOCK_VALUES = 2 ** 17


def _row_blocks(n, width):
    """Rows per block, and (start, stop) of each block of receiving rows i."""
    rows = max(1, _BLOCK_VALUES // max(1, n * width))
    return rows, [(start, min(start + rows, n)) for start in range(0, n, rows)]


def _scratch(count, widths):
    """One (count, width) array per width, reused by every block so that
    no block allocates arrays of its own.  They are views of one flat
    allocation: glibc's malloc then reuses the same pages from call to
    call, where separate arrays of this size were returned to the system
    and faulted in again on every call (1317 minor page faults against 0
    per forward and backward of a two-layer width-32 EGNN at N=30)."""
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


def _pair_geometry(coords, edge_attrs, start, stop):
    """Difference vectors x_i - x_j, (rows, N, 3), and the pair input
    [d²_ij, a_ij], (rows, N, 1 + A), for receiving rows start:stop.

    The diagonal pair (i, i) gets d² = 1, so that ``sqrt`` never sees a
    zero; its difference vector is exactly zero.
    """
    diff = coords[start:stop, None, :] - coords[None, :, :]
    sq_dist = (diff * diff).sum(axis=2)
    rows = np.arange(stop - start)
    sq_dist[rows, rows + start] = 1.0
    edge_in = sq_dist[:, :, None]
    if edge_attrs is not None:
        edge_in = np.concatenate([edge_in, edge_attrs[start:stop]], axis=2)
    return diff, edge_in


def _pair_geometry_grad(g_coords, diff, d_diff, d_sq_dist, start, stop):
    """Add to ``g_coords`` the gradient that reaches x through diff and d².

    On the diagonal the difference vector is zero, so d² passes nothing.
    """
    total = d_sq_dist[:, :, None] * diff
    total *= 2.0
    if d_diff is not None:
        total += d_diff
    g_coords[start:stop] += total.sum(axis=1)
    g_coords -= total.sum(axis=0)


class _SplitFirstLayer:
    """The first layer of a pair MLP, before its activation, and its gradient.

    The pair input is ``[h_i, h_j, d²_ij, a_ij]``, so its product with
    ``w1`` splits into ``h_i @ w1[:d]``, ``h_j @ w1[d:2d]`` and
    ``[d², a] @ w1[2d:]``: the node terms cost N rows of matmul, not N².
    """

    def __init__(self, mlp, feats):
        d = feats.shape[1]
        w1 = mlp.w1.data
        self.w_i, self.w_j, self.w_edge = w1[:d], w1[d:2 * d], w1[2 * d:]
        self.from_i = feats @ self.w_i
        self.from_j = feats @ self.w_j + mlp.b1.data

    def __call__(self, edge_in, start, stop, out):
        """Write the pre-activations of rows start:stop into ``out``,
        (rows * N, H)."""
        np.matmul(edge_in.reshape(-1, edge_in.shape[2]), self.w_edge, out=out)
        out3 = out.reshape(edge_in.shape[:2] + (-1,))
        out3 += self.from_i[start:stop, None, :]
        out3 += self.from_j

    def start_grad(self):
        self.g_i = np.zeros_like(self.from_i)
        self.g_j = np.zeros_like(self.from_j)
        self.g_edge = np.zeros_like(self.w_edge)
        self._sum_i = np.empty_like(self.from_j)

    def add_grad(self, d_out, edge_in, start, stop):
        """Accumulate one block's gradient; return d(loss)/d(edge_in)."""
        d_out3 = d_out.reshape(edge_in.shape[:2] + (-1,))
        d_out3.sum(axis=1, out=self.g_i[start:stop])
        self.g_j += d_out3.sum(axis=0, out=self._sum_i)
        self.g_edge += edge_in.reshape(-1, edge_in.shape[2]).T @ d_out
        return (d_out @ self.w_edge.T).reshape(edge_in.shape)

    def grads(self, feats):
        """(d feats, d w1, d b1) once every block has been added."""
        g_feats = self.g_i @ self.w_i.T + self.g_j @ self.w_j.T
        g_w1 = np.concatenate([feats.T @ self.g_i, feats.T @ self.g_j, self.g_edge])
        return g_feats, g_w1, self.g_j.sum(axis=0)


def _accumulate_product(acc, a, b, tmp):
    """acc += a.T @ b, through the preallocated ``tmp``."""
    np.matmul(a.T, b, out=tmp)
    acc += tmp


def _pair_arrays(state):
    attrs = None if state.edge_attrs is None else state.edge_attrs.data
    return state.coords.data, state.feats.data, attrs


def _pair_inputs(state):
    inputs = [state.coords, state.feats]
    if state.edge_attrs is not None:
        inputs.append(state.edge_attrs)
    return inputs


def _start_node_grads(state):
    """Zeroed gradients of the coordinates and, if tracked, the edge attributes."""
    g_coords = np.zeros_like(state.coords.data)
    g_attrs = None
    if state.edge_attrs is not None and state.edge_attrs.requires_grad:
        g_attrs = np.zeros_like(state.edge_attrs.data)
    return g_coords, g_attrs


def _node_grads(state, first, g_coords, g_attrs):
    """Gradients of the layer's state inputs, in ``_pair_inputs`` order,
    then those of the first layer's ``w1`` and ``b1``."""
    g_feats, g_w1, g_b1 = first.grads(state.feats.data)
    out = [g_coords, g_feats]
    if state.edge_attrs is not None:
        out.append(g_attrs)
    return tuple(out) + (g_w1, g_b1)


def _gated_messages(state, message_mlp, attention_mlp):
    """sum_j gate_ij * m_ij for every node i, as one tape node, (N, M).

    m_ij is ``message_mlp`` of the pair input and gate_ij is
    ``attention_mlp`` of m_ij; the diagonal's gate is zero.  The pairs are
    walked one block of receiving rows at a time and nothing of size N²
    is kept: the backward pass computes each block again.
    """
    coords, feats, attrs = _pair_arrays(state)
    n = coords.shape[0]
    first = _SplitFirstLayer(message_mlp, feats)
    w2, b2 = message_mlp.w2.data, message_mlp.b2.data
    a_w1, a_b1 = attention_mlp.w1.data, attention_mlp.b1.data
    a_w2, a_b2 = attention_mlp.w2.data, attention_mlp.b2.data
    hidden, width, a_hidden = w2.shape[0], w2.shape[1], a_w1.shape[1]
    rows, blocks = _row_blocks(n, max(hidden, width, a_hidden))
    widths = [hidden] * 3 + [width] * 3 + [a_hidden] * 3

    def block(scratch, start, stop):
        z1, s1, u1, z2, s2, msg, z3, s3, u3 = (a[:(stop - start) * n] for a in scratch)
        diff, edge_in = _pair_geometry(coords, attrs, start, stop)
        first(edge_in, start, stop, out=z1)
        _silu(z1, s1, u1)
        np.matmul(u1, w2, out=z2)
        z2 += b2
        _silu(z2, s2, msg)
        np.matmul(msg, a_w1, out=z3)
        z3 += a_b1
        _silu(z3, s3, u3)
        gate = ad._sigmoid(u3 @ a_w2 + a_b2).reshape(stop - start, n)
        diag = np.arange(stop - start)
        gate[diag, diag + start] = 0.0
        return diff, edge_in, (z1, s1, u1, z2, s2, msg, z3, s3, u3, gate)

    out = np.empty((n, width))
    scratch = _scratch(rows * n, widths)
    for start, stop in blocks:
        saved = block(scratch, start, stop)[2]
        msg, gate = saved[5].reshape(stop - start, n, width), saved[9]
        np.matmul(gate[:, None, :], msg, out=out[start:stop, None, :])

    def backward(g_out):
        first.start_grad()
        g_coords, g_attrs = _start_node_grads(state)
        g_w2, g_b2 = np.zeros_like(w2), np.zeros_like(b2)
        g_a_w1, g_a_b1 = np.zeros_like(a_w1), np.zeros_like(a_b1)
        g_a_w2, g_a_b2 = np.zeros_like(a_w2), np.zeros_like(a_b2)
        tmp_w2, tmp_a_w1 = np.empty_like(w2), np.empty_like(a_w1)
        *scratch, d_z2_scratch = _scratch(rows * n, widths + [width])
        for start, stop in blocks:
            diff, edge_in, saved = block(scratch, start, stop)
            z1, s1, u1, z2, s2, msg, z3, s3, u3, gate = saved
            g_rows = g_out[start:stop]
            msg3 = msg.reshape(stop - start, n, width)
            # the zeroed diagonal gate has zero slope, so it passes nothing back
            d_z4 = np.matmul(msg3, g_rows[:, :, None]).reshape(-1, 1)
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
            np.multiply(gate[:, :, None], g_rows[:, None, :], out=msg3)
            d_z2 += msg
            d_z2 *= slope2
            _accumulate_product(g_w2, u1, d_z2, tmp_w2)
            g_b2 += d_z2.sum(axis=0)
            slope1 = _silu_slope(z1, s1, u1)
            d_z1 = np.matmul(d_z2, w2.T, out=u1)
            d_z1 *= slope1
            d_edge = first.add_grad(d_z1, edge_in, start, stop)
            _pair_geometry_grad(g_coords, diff, None, d_edge[:, :, 0], start, stop)
            if g_attrs is not None:
                g_attrs[start:stop] = d_edge[:, :, 1:]
        node_grads = _node_grads(state, first, g_coords, g_attrs)
        return node_grads + (g_w2, g_b2, g_a_w1, g_a_b1, g_a_w2, g_a_b2)

    inputs = _pair_inputs(state) + message_mlp.tensors() + attention_mlp.tensors()
    return ad.record_op(out, tuple(inputs), backward, "egnn.gated_messages")


def _coord_step(state, coord_mlp):
    """sum_j (x_i - x_j) * c_ij / (d_ij + 1) for every node i, as one tape
    node, (N, 3), where c_ij is ``coord_mlp`` of the pair input.

    Walked one block of receiving rows at a time like ``_gated_messages``,
    and computed again block by block in the backward pass.
    """
    coords, feats, attrs = _pair_arrays(state)
    n = coords.shape[0]
    first = _SplitFirstLayer(coord_mlp, feats)
    w2, b2 = coord_mlp.w2.data, coord_mlp.b2.data
    hidden = w2.shape[0]
    rows, blocks = _row_blocks(n, hidden)

    def block(scratch, start, stop):
        y1, s1, v1 = (a[:(stop - start) * n] for a in scratch)
        diff, edge_in = _pair_geometry(coords, attrs, start, stop)
        first(edge_in, start, stop, out=y1)
        _silu(y1, s1, v1)
        coef = (v1 @ w2 + b2).reshape(stop - start, n)
        dist = np.sqrt(edge_in[:, :, 0])
        return diff, edge_in, (y1, s1, v1, coef, dist, coef / (dist + 1.0))

    out = np.empty((n, 3))
    scratch = _scratch(rows * n, [hidden] * 3)
    for start, stop in blocks:
        diff, _, saved = block(scratch, start, stop)
        weight = saved[5]
        np.matmul(weight[:, None, :], diff, out=out[start:stop, None, :])

    def backward(g_out):
        first.start_grad()
        g_coords, g_attrs = _start_node_grads(state)
        g_w2, g_b2 = np.zeros_like(w2), np.zeros_like(b2)
        scratch = _scratch(rows * n, [hidden] * 3)
        for start, stop in blocks:
            diff, edge_in, (y1, s1, v1, coef, dist, weight) = block(scratch, start, stop)
            g_rows = g_out[start:stop]
            d_weight = np.matmul(diff, g_rows[:, :, None])[:, :, 0]
            d_diff = weight[:, :, None] * g_rows[:, None, :]
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
            d_edge = first.add_grad(d_y1, edge_in, start, stop)
            d_sq_dist += d_edge[:, :, 0]
            _pair_geometry_grad(g_coords, diff, d_diff, d_sq_dist, start, stop)
            if g_attrs is not None:
                g_attrs[start:stop] = d_edge[:, :, 1:]
        return _node_grads(state, first, g_coords, g_attrs) + (g_w2, g_b2)

    inputs = _pair_inputs(state) + coord_mlp.tensors()
    return ad.record_op(out, tuple(inputs), backward, "egnn.coord_step")


def egcl_forward(state, params):
    """One message-passing layer; returns the updated graph state.

    The pair work is two fused tape nodes, ``_gated_messages`` and
    ``_coord_step``.  Each walks the dense (N, N) pair grid one block of
    receiving rows at a time, about 1 MB per (rows, N, H) array, keeps
    nothing of size N², and computes each block again in its backward
    pass, in the manner of gradient checkpointing.  The forward code is
    the same with and without a tape.  The diagonal pairs (i, i) are
    computed along with the rest: their attention gate is zeroed, and
    their difference vector is exactly zero, so they add nothing to
    either update.  Their squared distance is set to 1 so that ``sqrt``
    never sees a zero, and it passes no gradient back.  The feature MLP,
    its input concat and the final coordinate add are ordinary ops.
    """
    d = state.feats.shape[1]
    if d != params.feat_width:
        raise ContractError(
            "state features have width %d, layer expects %d" % (d, params.feat_width)
        )
    if state.attr_width != params.attr_width:
        raise ContractError(
            "state edge attributes have width %d, layer expects %d"
            % (state.attr_width, params.attr_width)
        )
    gathered = _gated_messages(state, params.message_mlp, params.attention_mlp)
    new_feats = mlp_forward(params.feature_mlp, ad.concat([state.feats, gathered], axis=1))
    new_coords = ad.add(state.coords, _coord_step(state, params.coord_mlp))
    return GraphState(new_coords, new_feats, state.edge_attrs)


def egnn_forward(state, model):
    """Apply every layer of the model in order."""
    out = state
    for layer in model.layers:
        out = egcl_forward(out, layer)
    return out


def init_egcl(rng, feat_width, message_width, attr_width=0, hidden=None):
    hidden = message_width if hidden is None else hidden
    pair_width = 2 * feat_width + 1 + attr_width
    return EgclParams(
        message_mlp=init_mlp(rng, pair_width, hidden, message_width, "silu"),
        attention_mlp=init_mlp(rng, message_width, hidden, 1, "sigmoid"),
        feature_mlp=init_mlp(rng, feat_width + message_width, hidden, feat_width),
        coord_mlp=init_mlp(rng, pair_width, hidden, 1, out_scale=0.01),
        feat_width=feat_width,
        message_width=message_width,
        attr_width=attr_width,
    )


def init_egnn(rng, depth, feat_width, message_width=None, attr_width=0, hidden=None):
    message_width = feat_width if message_width is None else message_width
    layers = [
        init_egcl(rng, feat_width, message_width, attr_width, hidden)
        for _ in range(depth)
    ]
    return EgnnModel(layers=layers, feat_width=feat_width)


def sequence_separation_attrs(n, bounds=(1, 2, 4, 8, 16, 32)):
    """One-hot sequence-separation buckets as (N, N, len(bounds)+1) attrs.

    Bucket k holds pairs whose index separation falls between bounds
    k-1 (exclusive) and k (inclusive); separations beyond the last bound
    share the final bucket.  Purely index-based, so rigid motions of the
    coordinates never change it.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.size == 0 or np.any(np.diff(bounds) <= 0) or bounds[0] < 1:
        raise ContractError("bucket bounds must be increasing positive integers")
    sep = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    bucket = np.searchsorted(bounds, sep, side="left")
    out = np.zeros((n, n, bounds.size + 1), dtype=np.float64)
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
