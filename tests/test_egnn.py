import tracemalloc

import numpy as np
import pytest

from geopro import autodiff as ad
from geopro import egnn
from geopro.checks import check_grads
from geopro.errors import ContractError, DimensionError
from geopro.geometry import apply_rigid, random_rigid


def _random_state(rng, n, d, scale=2.0):
    coords = ad.Tensor(rng.normal(scale=scale, size=(n, 3)))
    feats = ad.Tensor(rng.normal(size=(n, d)))
    return egnn.GraphState(coords, feats)


def test_empty_graph():
    rng = np.random.default_rng(1)
    model = egnn.init_egnn(rng, depth=2, feat_width=4, message_width=6)
    state = _random_state(rng, 0, 4)
    out = egnn.egnn_forward(state, model)
    assert out.coords.shape == (0, 3) and out.feats.shape == (0, 4)
    assert egnn.equivariance_check(model, state, trials=2, rng=rng) == 0.0


def test_single_node_has_no_edges():
    rng = np.random.default_rng(0)
    layer = egnn.init_egcl(rng, feat_width=4, message_width=6)
    state = _random_state(rng, 1, 4)
    out = egnn.egcl_forward(state, layer)
    assert np.array_equal(out.coords.data, state.coords.data)
    empty_messages = ad.Tensor(np.zeros((1, 6)))
    expected = egnn.mlp_forward(
        layer.feature, ad.concat([state.feats, empty_messages], axis=1)
    )
    assert np.allclose(out.feats.data, expected.data, atol=1e-15)


def test_mirror_pair_updates_are_antisymmetric():
    rng = np.random.default_rng(1)
    layer = egnn.init_egcl(rng, feat_width=4, message_width=6)
    shared = rng.normal(size=4)
    state = egnn.GraphState(
        ad.Tensor([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        ad.Tensor(np.stack([shared, shared])),
    )
    out = egnn.egcl_forward(state, layer)
    delta = out.coords.data - state.coords.data
    assert np.allclose(delta[0], -delta[1], atol=1e-14)
    assert abs(delta[0][1]) < 1e-14 and abs(delta[0][2]) < 1e-14
    assert np.allclose(out.feats.data[0], out.feats.data[1], atol=1e-14)


def test_single_layer_commutes_with_rigid_transforms():
    rng = np.random.default_rng(2)
    layer = egnn.init_egcl(rng, feat_width=5, message_width=8)
    state = _random_state(rng, 5, 5)
    base = egnn.egcl_forward(state, layer)
    for reflect in (False, True):
        t = random_rigid(rng, reflect=reflect)
        moved = egnn.GraphState(
            ad.Tensor(apply_rigid(t, state.coords.data)), state.feats
        )
        out = egnn.egcl_forward(moved, layer)
        assert np.max(np.abs(out.coords.data - apply_rigid(t, base.coords.data))) < 1e-8
        assert np.max(np.abs(out.feats.data - base.feats.data)) < 1e-8


def test_stack_composition_and_equivariance():
    rng = np.random.default_rng(3)
    state = _random_state(rng, 6, 4)

    empty = egnn.EgnnModel(layers=[], feat_width=4)
    out = egnn.egnn_forward(state, empty)
    assert out is state

    single = egnn.init_egnn(rng, depth=1, feat_width=4, message_width=6)
    via_stack = egnn.egnn_forward(state, single)
    via_layer = egnn.egcl_forward(state, single.layers[0])
    assert np.array_equal(via_stack.coords.data, via_layer.coords.data)
    assert np.array_equal(via_stack.feats.data, via_layer.feats.data)

    double = egnn.init_egnn(rng, depth=2, feat_width=4, message_width=6)
    deviation = egnn.equivariance_check(double, state, trials=10, rng=rng)
    assert deviation < 1e-8


def test_translation_only_cancels_exactly():
    rng = np.random.default_rng(4)
    model = egnn.init_egnn(rng, depth=2, feat_width=4, message_width=6)
    state = _random_state(rng, 5, 4)
    base = egnn.egnn_forward(state, model)
    shift = rng.uniform(-10.0, 10.0, size=3)
    moved = egnn.GraphState(ad.Tensor(state.coords.data + shift), state.feats)
    out = egnn.egnn_forward(moved, model)
    assert np.max(np.abs(out.coords.data - (base.coords.data + shift))) < 1e-10
    assert np.max(np.abs(out.feats.data - base.feats.data)) < 1e-10


def test_equivariance_check_catches_position_leak():
    # Deliberately corrupt the layer so the absolute position of the
    # receiving node leaks into the pair input; the checker must report
    # a deviation far above the correctness threshold.
    rng = np.random.default_rng(5)
    model = egnn.init_egnn(rng, depth=1, feat_width=4, message_width=6)

    def leak_position(h_i, x_i):
        pad = ad.Tensor(np.zeros((x_i.shape[0], h_i.shape[1] - 3)))
        return ad.add(h_i, ad.concat([x_i, pad], axis=1))

    def corrupted_forward(state, mdl):
        return _edge_list_forward(state, mdl.layers[0], leak=leak_position)

    state = _random_state(rng, 5, 4)
    honest = egnn.equivariance_check(model, state, trials=10, rng=np.random.default_rng(6))
    corrupted = egnn.equivariance_check(
        model, state, trials=10, rng=np.random.default_rng(6), forward=corrupted_forward
    )
    assert honest < 1e-8
    assert corrupted > 1e-2


def _edge_list_forward(state, params, leak=None):
    # The layer written over the explicit list of N(N-1) ordered pairs,
    # with row gathers and scatter-adds: the reference for the dense form.
    # ``leak``, if given, maps (h_i, x_i) to the h_i of the pair input, so
    # that a test can corrupt the layer on purpose.
    n = state.node_count
    src, dst = np.where(~np.eye(n, dtype=bool))
    h_i = ad.gather_rows(state.feats, src)
    h_j = ad.gather_rows(state.feats, dst)
    x_i = ad.gather_rows(state.coords, src)
    x_j = ad.gather_rows(state.coords, dst)
    if leak is not None:
        h_i = leak(h_i, x_i)
    diff = ad.sub(x_i, x_j)
    sq_dist = ad.tsum(ad.square(diff), axis=1, keepdims=True)
    pair_input = ad.concat([h_i, h_j, sq_dist], axis=1)
    messages = ad.silu(egnn.mlp_forward(params.message, pair_input))
    attention = ad.sigmoid(egnn.mlp_forward(params.attention, messages))
    gathered = ad.index_add_rows(ad.mul(attention, messages), src, n)
    new_feats = egnn.mlp_forward(
        params.feature, ad.concat([state.feats, gathered], axis=1)
    )
    dist = ad.sqrt(sq_dist)
    weight = ad.div(egnn.mlp_forward(params.coord, pair_input), ad.add(dist, 1.0))
    new_coords = ad.add(state.coords, ad.index_add_rows(ad.mul(diff, weight), src, n))
    return egnn.GraphState(new_coords, new_feats)


def _layer_outputs_and_grads(forward, layer, coords, feats, probe):
    x = ad.Tensor(coords, requires_grad=True)
    h = ad.Tensor(feats, requires_grad=True)
    params = [t for _, t in ad.named_tensors(layer)]
    with ad.Tape() as tape:
        out = forward(egnn.GraphState(x, h), layer)
        loss = ad.add(
            ad.tsum(ad.mul(out.coords, probe[0])), ad.tsum(ad.mul(out.feats, probe[1]))
        )
        tape.backward(loss)
    return out, [x.grad, h.grad] + [p.grad for p in params]


def _max_abs(a):
    return np.max(np.abs(a), initial=0.0)


def _rel_dev(got, want):
    return _max_abs(got - want) / max(_max_abs(want), np.finfo(float).tiny)


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_dense_layer_matches_edge_list_reference(n):
    rng = np.random.default_rng(10 + n)
    layer = egnn.init_egcl(rng, feat_width=4, message_width=6)
    coords = rng.normal(scale=2.0, size=(n, 3))
    feats = rng.normal(size=(n, 4))
    probe = (rng.normal(size=(n, 3)), rng.normal(size=(n, 4)))

    dense, dense_grads = _layer_outputs_and_grads(
        egnn.egcl_forward, layer, coords, feats, probe
    )
    ref, ref_grads = _layer_outputs_and_grads(
        _edge_list_forward, layer, coords, feats, probe
    )
    assert dense.coords.shape == (n, 3) and dense.feats.shape == (n, 4)
    assert _max_abs(dense.coords.data - ref.coords.data) < 1e-12
    assert _max_abs(dense.feats.data - ref.feats.data) < 1e-12
    assert len(dense_grads) == 2 + 16
    for got, want in zip(dense_grads, ref_grads):
        assert got.shape == want.shape
        assert _rel_dev(got, want) < 1e-10


def test_blocked_layer_matches_edge_list_reference():
    # n=100 at width 32 walks the pair grid in blocks of 40, 40 and 20 rows
    n, width = 100, 32
    rows, blocks = egnn._row_blocks((1, n), width)
    assert len(blocks) >= 3 and blocks[-1][3] - blocks[-1][2] < rows
    rng = np.random.default_rng(20)
    layer = egnn.init_egcl(rng, feat_width=width, message_width=width)
    coords = rng.normal(scale=4.0, size=(n, 3))
    feats = rng.normal(size=(n, width))
    probe = (rng.normal(size=(n, 3)), rng.normal(size=(n, width)))

    results = [
        _layer_outputs_and_grads(forward, layer, coords, feats, probe)
        for forward in (egnn.egcl_forward, _edge_list_forward)
    ]
    (dense, dense_grads), (ref, ref_grads) = results
    assert np.max(np.abs(dense.coords.data - ref.coords.data)) < 1e-12
    assert np.max(np.abs(dense.feats.data - ref.feats.data)) < 1e-12
    assert len(dense_grads) == 2 + 16
    for got, want in zip(dense_grads, ref_grads):
        assert got.shape == want.shape
        assert _rel_dev(got, want) < 1e-10


def test_small_graphs_share_one_block():
    # four width-32 graphs of 30 nodes fit one ~1 MB block; one width-320
    # graph of 100 nodes is walked in blocks of 4 rows
    assert egnn._row_blocks((4, 30), 32)[1] == [(0, 4, 0, 30)]
    rows, blocks = egnn._row_blocks((1, 100), 320)
    assert rows == 4 and len(blocks) == 25 and blocks[1] == (0, 1, 4, 8)


def test_batch_matches_each_graph_alone():
    rng = np.random.default_rng(24)
    n = 6
    layer = egnn.init_egcl(rng, feat_width=4, message_width=6)
    coords = rng.normal(scale=2.0, size=(2, n, 3))
    feats = rng.normal(size=(2, n, 4))
    out = egnn.egcl_forward(egnn.GraphState(coords, feats), layer)
    assert out.coords.shape == (2, n, 3) and out.feats.shape == (2, n, 4)
    for b in range(2):
        alone = egnn.egcl_forward(egnn.GraphState(coords[b], feats[b]), layer)
        assert _max_abs(out.coords.data[b] - alone.coords.data) < 1e-13
        assert _max_abs(out.feats.data[b] - alone.feats.data) < 1e-13


def test_graph_state_rejects_coords_and_feats_of_different_leading_axes():
    for coords, feats in [((7, 3), (6, 4)), ((2, 7, 3), (14, 4)), ((2, 7, 3), (7, 4)),
                          ((7, 2), (7, 4)), ((1, 2, 7, 3), (1, 2, 7, 4))]:
        with pytest.raises(DimensionError):
            egnn.GraphState(np.zeros(coords), np.zeros(feats))


def test_layer_outputs_identical_with_and_without_tape():
    rng = np.random.default_rng(21)
    n = 60
    layer = egnn.init_egcl(rng, feat_width=32, message_width=32)
    coords = rng.normal(scale=3.0, size=(n, 3))
    feats = rng.normal(size=(n, 32))
    plain = egnn.egcl_forward(egnn.GraphState(coords, feats), layer)
    with ad.Tape() as tape:
        state = egnn.GraphState(
            ad.Tensor(coords, requires_grad=True), ad.Tensor(feats, requires_grad=True)
        )
        taped = egnn.egcl_forward(state, layer)
    assert len(tape) > 0
    assert np.array_equal(plain.coords.data, taped.coords.data)
    assert np.array_equal(plain.feats.data, taped.feats.data)


def test_layer_memory_stays_below_a_few_pair_arrays():
    # The fused pair kernels keep nothing of size N^2 between forward and
    # backward; one (N, N, H) float64 array is the unit of the bound.
    n, width = 200, 32
    rng = np.random.default_rng(22)
    layer = egnn.init_egcl(rng, feat_width=width, message_width=width)
    coords = rng.normal(scale=5.0, size=(n, 3))
    feats = rng.normal(size=(n, width))
    probe = (rng.normal(size=(n, 3)), rng.normal(size=(n, width)))
    tracemalloc.start()
    try:
        _layer_outputs_and_grads(egnn.egcl_forward, layer, coords, feats, probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n * width * 8


def test_layer_gradients_finite_at_zero_diagonal_distance():
    # Every pair (i, i) of the dense layout sits at distance zero, where
    # the gradient of sqrt is infinite; none of it may leak out.
    rng = np.random.default_rng(12)
    layer = egnn.init_egcl(rng, feat_width=4, message_width=6)
    probe = (rng.normal(size=(5, 3)), rng.normal(size=(5, 4)))
    with np.errstate(divide="raise", invalid="raise"):
        _, grads = _layer_outputs_and_grads(
            egnn.egcl_forward, layer, rng.normal(size=(5, 3)), rng.normal(size=(5, 4)),
            probe,
        )
    assert all(np.all(np.isfinite(g)) for g in grads)


def test_layer_gradients_finite_for_coincident_nodes():
    # Two distinct nodes at one point have d² = 0 off the diagonal too.
    rng = np.random.default_rng(13)
    layer = egnn.init_egcl(rng, feat_width=8, message_width=8)
    coords = rng.normal(size=(4, 3))
    coords[1] = coords[0]
    feats = rng.normal(size=(4, 8))
    probe = (rng.normal(size=(4, 3)), rng.normal(size=(4, 8)))
    with np.errstate(divide="raise", invalid="raise"):
        _, grads = _layer_outputs_and_grads(
            egnn.egcl_forward, layer, coords, feats, probe
        )
    assert all(np.all(np.isfinite(g)) for g in grads)

    nearby = coords.copy()
    nearby[1] += [0.05, -0.03, 0.02]
    x = ad.Tensor(nearby, requires_grad=True)

    def build_loss():
        out = egnn.egcl_forward(egnn.GraphState(x, ad.Tensor(feats)), layer)
        return ad.add(ad.tsum(ad.mul(out.coords, probe[0])),
                      ad.tsum(ad.mul(out.feats, probe[1])))

    assert check_grads(build_loss, [x]) < 1e-4


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    model = egnn.init_egnn(rng, depth=2, feat_width=4, message_width=5)
    state = _random_state(rng, 6, 4)
    out = egnn.egnn_forward(state, model)
    perm = rng.permutation(6)
    permuted = egnn.GraphState(
        ad.Tensor(state.coords.data[perm]), ad.Tensor(state.feats.data[perm])
    )
    out_p = egnn.egnn_forward(permuted, model)
    assert np.max(np.abs(out_p.coords.data - out.coords.data[perm])) < 1e-10
    assert np.max(np.abs(out_p.feats.data - out.feats.data[perm])) < 1e-10


def test_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    model = egnn.init_egnn(rng, depth=1, feat_width=4, message_width=6)
    coords = rng.normal(size=(4, 3))
    feats = rng.normal(size=(4, 4))
    params = [t for _, t in ad.named_tensors(model)]

    def build_loss():
        state = egnn.GraphState(ad.Tensor(coords), ad.Tensor(feats))
        out = egnn.egnn_forward(state, model)
        return ad.add(
            ad.tsum(ad.square(out.coords)), ad.tsum(ad.square(out.feats))
        )

    assert check_grads(build_loss, params) < 1e-4


def test_width_contracts():
    rng = np.random.default_rng(9)
    layer = egnn.init_egcl(rng, feat_width=4, message_width=6)
    with pytest.raises(ContractError):
        egnn.egcl_forward(_random_state(rng, 3, 5), layer)
    with pytest.raises(ContractError):
        egnn.EgclParams(
            message=egnn.init_mlp(rng, 9, 6, 6),
            attention=egnn.init_mlp(rng, 6, 6, 2),
            feature=egnn.init_mlp(rng, 10, 6, 4),
            coord=egnn.init_mlp(rng, 9, 6, 1),
            feat_width=4,
            message_width=6,
        )
    with pytest.raises(ContractError):
        egnn.EgnnModel(layers=[layer], feat_width=5)
