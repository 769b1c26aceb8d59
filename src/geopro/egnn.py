"""Equivariant graph convolution over fully connected 3D graphs.

Each layer passes messages between every ordered node pair, updates the
node features invariantly, and moves the coordinates along the pair
difference vectors so that the whole map commutes with rotations,
translations and reflections of the input coordinates.
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
    return _mlp_head(params, ad.silu(ad.add(ad.matmul(x, params.w1), params.b1)))


def _mlp_head(params, hidden):
    """The second layer and output activation, given the hidden layer."""
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
        if self.attention_mlp.out_activation != "sigmoid":
            raise ContractError("attention output must pass through a sigmoid")

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


def _pair_mlp(params, feats, edge_in):
    """An edge MLP over every ordered pair (i, j), as (N*N, out) rows.

    The pair input is ``[h_i, h_j, e_ij]``, so its product with ``w1``
    splits into ``h_i @ w1[:d]`` broadcast over j, ``h_j @ w1[d:2d]``
    broadcast over i, and ``e_ij @ w1[2d:]``: the node terms cost N rows
    of matmul instead of N^2.
    """
    n, d = feats.shape
    hidden = params.w1.shape[1]

    def w1_rows(start, stop):
        return ad.gather_rows(params.w1, np.arange(start, stop))

    from_i = ad.reshape(ad.matmul(feats, w1_rows(0, d)), (n, 1, hidden))
    from_j = ad.reshape(ad.add(ad.matmul(feats, w1_rows(d, 2 * d)), params.b1), (1, n, hidden))
    from_nodes = ad.reshape(ad.add(from_i, from_j), (n * n, hidden))
    from_edge = ad.matmul(edge_in, w1_rows(2 * d, params.width_in))
    return _mlp_head(params, ad.silu(ad.add(from_nodes, from_edge)))


def egcl_forward(state, params):
    """One message-passing layer; returns the updated graph state.

    Pairs are laid out densely as (N, N, .) arrays.  The diagonal pairs
    (i, i) are computed along with the rest: their attention gate is
    zeroed, and their difference vector is exactly zero, so they add
    nothing to either update.  Their squared distance is set to 1 so
    that ``sqrt`` never sees a zero, whose gradient would be NaN.
    """
    n = state.node_count
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
    eye = np.eye(n)
    diff = ad.sub(ad.reshape(state.coords, (n, 1, 3)), ad.reshape(state.coords, (1, n, 3)))
    sq_dist = ad.add(ad.tsum(ad.square(diff), axis=2, keepdims=True), eye[:, :, None])
    edge_in = ad.reshape(sq_dist, (n * n, 1))
    if state.edge_attrs is not None:
        flat_attrs = ad.reshape(state.edge_attrs, (n * n, params.attr_width))
        edge_in = ad.concat([edge_in, flat_attrs], axis=1)

    messages = _pair_mlp(params.message_mlp, state.feats, edge_in)
    gate = ad.mul(mlp_forward(params.attention_mlp, messages), (1.0 - eye).reshape(n * n, 1))
    gathered = ad.tsum(ad.reshape(ad.mul(gate, messages), (n, n, params.message_width)), axis=1)
    new_feats = mlp_forward(params.feature_mlp, ad.concat([state.feats, gathered], axis=1))

    coord_out = ad.reshape(_pair_mlp(params.coord_mlp, state.feats, edge_in), (n, n, 1))
    weight = ad.div(coord_out, ad.add(ad.sqrt(sq_dist), 1.0))
    new_coords = ad.add(state.coords, ad.tsum(ad.mul(diff, weight), axis=1))
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
            np.abs(out.coords.data - apply_rigid(transform, base.coords.data))
        )
        feat_dev = np.max(np.abs(out.feats.data - base.feats.data))
        worst = max(worst, float(coord_dev), float(feat_dev))
    return worst
