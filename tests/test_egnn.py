import logging
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from geopro import autodiff as ad
from geopro import egnn, pool
from geopro.checks import check_grads
from geopro.errors import ContractError, DimensionError
from geopro.geometry import apply_rigid, random_rigid


def _draw_gates(rng, layers):
    # init_egcl starts every gate weight at zero, which would pass no
    # gradient from the gates back into the messages; draw them instead
    for layer in layers:
        layer.gate_w.data = rng.normal(size=layer.gate_w.shape)
        layer.gate_b.data = rng.normal(size=1)
    return layers[0]


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


def _edge_list_forward(state, params, leak=None, receive=None):
    # The layer written over the explicit list of the ordered pairs (i, j),
    # i != j, of each graph, with row gathers and scatter-adds: the
    # reference for the dense form.  Only the pairs whose receiving node i
    # ``receive`` selects are listed, every pair if it is None.  ``leak``,
    # if given, maps (h_i, x_i) to the h_i of the pair input, so that a
    # test can corrupt the layer on purpose.
    batch, n = state.batch_shape
    edges = np.broadcast_to(~np.eye(n, dtype=bool), (batch, n, n))
    if receive is not None:
        edges = edges & np.reshape(receive, (batch, n, 1))
    graph, src, dst = np.nonzero(edges)
    src, dst = graph * n + src, graph * n + dst
    feats = ad.reshape(state.feats, (batch * n, state.feats.shape[-1]))
    coords = ad.reshape(state.coords, (batch * n, 3))
    h_i = ad.gather_rows(feats, src)
    h_j = ad.gather_rows(feats, dst)
    x_i = ad.gather_rows(coords, src)
    x_j = ad.gather_rows(coords, dst)
    if leak is not None:
        h_i = leak(h_i, x_i)
    diff = ad.sub(x_i, x_j)
    sq_dist = ad.tsum(ad.square(diff), axis=1, keepdims=True)
    pair_input = ad.concat([h_i, h_j, sq_dist], axis=1)
    messages = ad.silu(egnn.mlp_forward(params.message, pair_input))
    gate = ad.sigmoid(ad.add(ad.matmul(messages, params.gate_w), params.gate_b))
    gathered = ad.index_add_rows(ad.mul(gate, messages), src, batch * n)
    new_feats = egnn.mlp_forward(params.feature, ad.concat([feats, gathered], axis=1))
    dist = ad.sqrt(sq_dist)
    weight = ad.div(egnn.mlp_forward(params.coord, pair_input), ad.add(dist, 1.0))
    new_coords = ad.add(coords, ad.index_add_rows(ad.mul(diff, weight), src, batch * n))
    return egnn.GraphState(ad.reshape(new_coords, state.coords.shape),
                           ad.reshape(new_feats, state.feats.shape))


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
    layer = _draw_gates(rng, [egnn.init_egcl(rng, feat_width=4, message_width=6)])
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
    assert len(dense_grads) == 2 + 14
    for got, want in zip(dense_grads, ref_grads):
        assert got.shape == want.shape
        assert _rel_dev(got, want) < 1e-10


def test_blocked_layer_matches_edge_list_reference():
    # n=100 at width 32 walks the pair grid in blocks of 40, 40 and 20 rows
    n, width = 100, 32
    rows, blocks = _every_row_blocks((1, n), width)
    assert len(blocks) >= 3 and blocks[-1][2].shape[1] < rows
    rng = np.random.default_rng(20)
    layer = _draw_gates(rng, [egnn.init_egcl(rng, feat_width=width, message_width=width)])
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
    assert len(dense_grads) == 2 + 14
    for got, want in zip(dense_grads, ref_grads):
        assert got.shape == want.shape
        assert _rel_dev(got, want) < 1e-10


def _every_row_blocks(batch_shape, width):
    return egnn._row_blocks(np.ones(batch_shape, dtype=bool), width)


def _block_spans(blocks):
    # (b0, b1, rows as nested lists, keep as nested lists) of each block
    return [(b0, b1, rows.tolist(), keep.tolist()) for b0, b1, rows, keep in blocks]


def test_small_graphs_share_one_block():
    # four width-32 graphs of 30 nodes fit one ~1 MB block; one width-320
    # graph of 100 nodes is walked in blocks of 4 rows
    assert _block_spans(_every_row_blocks((4, 30), 32)[1]) == [
        (0, 4, [list(range(30))] * 4, [[True] * 30] * 4)]
    rows, blocks = _every_row_blocks((1, 100), 320)
    assert rows == 4 and len(blocks) == 25
    assert _block_spans(blocks)[1] == (0, 1, [[4, 5, 6, 7]], [[True] * 4])


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


def test_a_layer_records_five_tape_nodes():
    # the pair kernel, the two pieces of its output's split, the feature
    # MLP's input concat and the MLP node; a change that adds nodes to a
    # layer shows here
    rng = np.random.default_rng(23)
    layer = egnn.init_egcl(rng, feat_width=4, message_width=6)
    with ad.Tape() as tape:
        state = egnn.GraphState(ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True),
                                ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True))
        egnn.egcl_forward(state, layer)
    assert len(tape) == 5


def test_layer_memory_stays_below_a_few_pair_arrays():
    # The fused pair kernel keeps nothing of size N^2 between forward and
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
    layer = _draw_gates(rng, [egnn.init_egcl(rng, feat_width=8, message_width=8)])
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


def test_permutation_equivariance_with_the_receiving_mask_permuted():
    rng = np.random.default_rng(7)
    model = egnn.init_egnn(rng, depth=2, feat_width=4, message_width=5)
    _draw_gates(rng, model.layers)
    state = _random_state(rng, 6, 4)
    mask = np.array([True, False, True, True, False, True])
    out = egnn.egnn_forward(state, model, mask)
    full = egnn.egnn_forward(state, model)
    assert out.coords.data[mask].tobytes() == full.coords.data[mask].tobytes()
    assert out.feats.data[mask].tobytes() == full.feats.data[mask].tobytes()
    perm = rng.permutation(6)
    permuted = egnn.GraphState(
        ad.Tensor(state.coords.data[perm]), ad.Tensor(state.feats.data[perm])
    )
    out_p = egnn.egnn_forward(permuted, model, mask[perm])
    assert np.max(np.abs(out_p.coords.data - out.coords.data[perm])) < 1e-10
    assert np.max(np.abs(out_p.feats.data - out.feats.data[perm])) < 1e-10


def test_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    model = egnn.init_egnn(rng, depth=1, feat_width=4, message_width=6)
    _draw_gates(rng, model.layers)
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
    for receive in (np.ones(4, dtype=bool), np.ones((1, 3), dtype=bool), np.ones(3)):
        with pytest.raises(ContractError):
            egnn.egcl_forward(_random_state(rng, 3, 4), layer, receive)

    def layer_params(gate_columns, coord_hidden):
        return egnn.EgclParams(
            message=egnn.init_mlp(rng, 9, 6, 6),
            gate_w=ad.Tensor(np.zeros((6, gate_columns))),
            gate_b=ad.Tensor(np.zeros(1)),
            feature=egnn.init_mlp(rng, 10, 6, 4),
            coord=egnn.init_mlp(rng, 9, coord_hidden, 1),
            feat_width=4,
            message_width=6,
        )

    layer_params(1, 6)
    # the gate weight's shape, and the coordinate MLP's hidden width, which
    # must be the message MLP's, since the two share the kernel's arrays
    for gate_columns, coord_hidden in ((2, 6), (1, 5)):
        with pytest.raises(ContractError):
            layer_params(gate_columns, coord_hidden)
    with pytest.raises(ContractError):
        egnn.EgnnModel(layers=[layer], feat_width=5)


def _several_blocks(monkeypatch, n, width, rows):
    # Shrink the block size so that a small graph walks one block per
    # ``rows`` receiving rows; the tests below want an odd count, at least 5.
    monkeypatch.setattr(egnn, "_BLOCK_VALUES", n * width * rows)
    blocks = _every_row_blocks((1, n), width)[1]
    assert len(blocks) >= 5 and len(blocks) % 2 == 1
    return blocks


def _layer_case(seed, n, feat_width, message_width):
    rng = np.random.default_rng(seed)
    layer = _draw_gates(rng, [egnn.init_egcl(rng, feat_width=feat_width,
                                             message_width=message_width)])
    coords = rng.normal(scale=2.0, size=(n, 3))
    feats = rng.normal(size=(n, feat_width))
    probe = (rng.normal(size=(n, 3)), rng.normal(size=(n, feat_width)))
    return layer, coords, feats, probe


def _layer_bytes(layer, coords, feats, probe):
    out, grads = _layer_outputs_and_grads(egnn.egcl_forward, layer, coords, feats, probe)
    return [a.tobytes() for a in [out.coords.data, out.feats.data] + grads]


def test_parts_give_the_same_bits_on_the_pool_and_inline(monkeypatch):
    _several_blocks(monkeypatch, n=7, width=6, rows=1)
    case = _layer_case(30, n=7, feat_width=4, message_width=6)
    if pool.part_pool() is None:
        pytest.skip("no OpenBLAS thread setter: the parts always run inline")
    pooled = _layer_bytes(*case)
    monkeypatch.setattr(pool, "_pool", False)
    assert _layer_bytes(*case) == pooled


def test_several_blocks_match_edge_list_reference(monkeypatch):
    n = 7
    _several_blocks(monkeypatch, n=n, width=6, rows=1)
    layer, coords, feats, probe = _layer_case(31, n=n, feat_width=4, message_width=6)
    (dense, dense_grads), (ref, ref_grads) = [
        _layer_outputs_and_grads(forward, layer, coords, feats, probe)
        for forward in (egnn.egcl_forward, _edge_list_forward)
    ]
    assert _max_abs(dense.coords.data - ref.coords.data) < 1e-12
    assert _max_abs(dense.feats.data - ref.feats.data) < 1e-12
    assert len(dense_grads) == 2 + 14
    for got, want in zip(dense_grads, ref_grads):
        assert _rel_dev(got, want) < 1e-10


def test_pooled_gradients_repeat_bit_for_bit_under_fast_thread_switching(monkeypatch):
    # Each part adds into its own accumulators; an add shared between the
    # parts would lose updates when the threads interleave, and the bits
    # would change from run to run.
    _several_blocks(monkeypatch, n=30, width=8, rows=6)
    case = _layer_case(32, n=30, feat_width=8, message_width=8)
    first = _layer_bytes(*case)
    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 10.0
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert _layer_bytes(*case) == first
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)


def test_a_second_call_of_the_same_size_allocates_no_scratch():
    # a fresh thread starts with an empty workspace of its own
    n, width = 60, 64
    layer, coords, feats, _ = _layer_case(37, n=n, feat_width=width, message_width=width)
    state = egnn.GraphState(ad.Tensor(coords), ad.Tensor(feats))
    receive = np.ones((1, n), dtype=bool)
    parts = pool.deal(egnn._row_blocks(receive, width)[1])
    assert len(parts) == 2
    # a forward walk's four (pairs, width) arrays per part
    scratch = sum(n * max(blk[2].size for blk in part) for part in parts) * 4 * width * 8
    peaks = []

    def calls():
        for _ in range(2):
            tracemalloc.start()
            try:
                egnn._pair_update(state, layer, receive)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

    thread = threading.Thread(target=calls)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert peaks[0] > scratch
    assert peaks[1] < 0.1 * scratch


def test_a_second_backward_pass_of_the_same_size_draws_its_scratch_from_the_workspace(
        monkeypatch):
    # A fresh thread starts with an empty workspace of its own.  A second
    # backward pass then allocates each part's zeroed sums, the gradients
    # it returns and each block's few (graphs, r, N) temporaries, but no
    # scratch: (B, N, H) row sums or g_i, or a (H, M) product.
    batch, n, width = 16, 16, 48
    monkeypatch.setattr(egnn, "_BLOCK_VALUES", n * width)
    rng = np.random.default_rng(43)
    layer = _draw_gates(rng, [egnn.init_egcl(rng, feat_width=4, message_width=width)])
    state = egnn.GraphState(ad.Tensor(rng.normal(size=(batch, n, 3))),
                            ad.Tensor(rng.normal(size=(batch, n, 4))))
    receive = np.ones((batch, n), dtype=bool)
    parts = pool.deal(egnn._row_blocks(receive, width)[1])
    assert len(parts) == 2
    nodes = batch * n * width
    # per part six (pairs, width) arrays, a (width, width) product and the
    # row sums, and g_i of both pair inputs
    scratch = (sum(6 * n * max(blk[2].size for blk in part) * width + width * width + nodes
                   for part in parts) + 2 * nodes) * 8
    # per part g_j and g_dist of both pair inputs, and the gradients of the
    # coordinates, w2, b2, the gate and the coordinate MLP's second layer
    sums = 2 * (2 * nodes + 2 * width + batch * n * 3 + width * width + 3 * width + 2) * 8
    g_out = rng.normal(size=(batch, n, width + 3))
    peaks, returned = [], []

    def calls():
        for _ in range(2):
            with ad.Tape() as tape:
                egnn._pair_update(state, layer, receive)
            backward = tape._nodes[-1].backward_fn
            tracemalloc.start()
            try:
                grads = backward(g_out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            returned.append(sum(g.nbytes for g in grads if g.flags.owndata))

    thread = threading.Thread(target=calls)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert peaks[0] > scratch
    assert peaks[1] < sums + returned[1] + 0.25 * scratch


def test_deal_gives_one_part_for_at_most_one_item_and_two_near_halves_otherwise():
    for count in range(7):
        parts = pool.deal(list(range(count)))
        assert sorted(item for part in parts for item in part) == list(range(count))
        assert len(parts) == (1 if count <= 1 else 2)
        assert max(map(len, parts)) - min(map(len, parts)) <= 1


def test_the_parts_are_dealt_alike_with_the_pool_and_without(monkeypatch):
    if pool.part_pool() is None:
        pytest.skip("no OpenBLAS thread setter: the parts always run inline")
    _several_blocks(monkeypatch, n=7, width=6, rows=1)
    case = _layer_case(44, n=7, feat_width=4, message_width=6)
    monkeypatch.setattr(ad, "_ADAM_POOL_VALUES", 1000)
    params = [ad.Tensor(np.zeros(size), requires_grad=True) for size in (40000, 9, 70000)]
    state = ad.AdamState(params)
    seen = []

    def recording(module, describe):
        def run_parts(pool, work, jobs):
            seen.append((module.__name__, pool is not None,
                         [[describe(item) for item in job[0]] for job in jobs]))
            return real(pool, work, jobs)
        return run_parts

    real = pool.run_parts
    # a block by its graphs and rows, an Adam piece by where its moment starts
    monkeypatch.setattr(egnn, "run_parts", recording(egnn, lambda blk: (
        blk[0], blk[1], blk[2].tolist())))
    monkeypatch.setattr(ad, "run_parts", recording(ad, lambda piece: (
        piece[0].ctypes.data, piece[0].size)))

    def run():
        _layer_bytes(*case)
        for p in params:
            p.grad = np.zeros(p.shape)
        ad.adam_step(state, 0.1)

    run()
    pooled = seen[:]
    seen.clear()
    monkeypatch.setattr(pool, "_pool", False)
    run()
    assert {on_pool for _, on_pool, _ in pooled} == {True}
    assert {on_pool for _, on_pool, _ in seen} == {False}
    assert [(module, parts) for module, _, parts in seen] == [
        (module, parts) for module, _, parts in pooled]
    assert {len(parts) for _, _, parts in pooled} == {2}


def test_each_dtype_computes_in_scratch_of_its_own(monkeypatch):
    # float64, float32 and float64 calls in one thread: a workspace shared
    # by the dtypes would hand the float32 call the float64 arrays, in which
    # it computes in float64 and gains nothing
    n, width = 30, 8
    layer, coords, feats, _ = _layer_case(42, n=n, feat_width=width, message_width=width)
    cast = egnn.cast_pair_weights(egnn.EgnnModel([layer], width), np.float32).layers[0]
    state = egnn.GraphState(ad.Tensor(coords[None]), ad.Tensor(feats[None]))
    receive = np.ones((1, n), dtype=bool)
    seen = []
    scratch = egnn._scratch

    def recording(*args):
        out = scratch(*args)
        seen.append({a.dtype for part in out for a in part})
        return out

    monkeypatch.setattr(egnn, "_scratch", recording)
    outs = [egnn._pair_update(state, params, receive).data for params in (layer, cast, layer)]
    assert seen == [{np.dtype(np.float64)}, {np.dtype(np.float32)}, {np.dtype(np.float64)}]
    assert all(out.dtype == np.float64 for out in outs)
    assert outs[2].tobytes() == outs[0].tobytes()
    assert np.linalg.norm(outs[1] - outs[0]) < 1e-6 * np.linalg.norm(outs[0])


def test_nothing_a_call_returns_shares_the_workspace(monkeypatch):
    _several_blocks(monkeypatch, n=30, width=8, rows=6)
    out, grads = _layer_outputs_and_grads(
        egnn.egcl_forward, *_layer_case(38, n=30, feat_width=8, message_width=8)
    )
    returned = [out.coords.data, out.feats.data] + grads
    kept = [a.tobytes() for a in returned]
    _layer_bytes(*_layer_case(39, n=30, feat_width=8, message_width=8))
    assert [a.tobytes() for a in returned] == kept


def test_layers_run_at_once_on_two_threads_get_the_bits_of_a_serial_run(monkeypatch):
    # Each thread has a workspace of its own; a shared one would mix the
    # two threads' blocks.  Forward only, since the tape stack is shared
    # by every thread of the process.
    _several_blocks(monkeypatch, n=30, width=8, rows=6)
    cases = [_layer_case(seed, n=30, feat_width=8, message_width=8) for seed in (40, 41)]

    def forward(case):
        layer, coords, feats, _ = case
        out = egnn.egcl_forward(egnn.GraphState(coords, feats), layer)
        return [out.coords.data.tobytes(), out.feats.data.tobytes()]

    serial = [forward(case) for case in cases]
    seen = [[], []]

    def run(k):
        for _ in range(10):
            seen[k].append(forward(cases[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [[serial[0]] * 10, [serial[1]] * 10]


def _reference_blocks(state, layer):
    # The pair kernel's forward walk with a separate array for every
    # activation of both MLPs, each block's geometry from ``_geometry``:
    # the reference for the forward walk, which writes u1 over s1 and msg
    # over s2, and runs the coordinate MLP in the spent z1 and s1.
    batch, n = state.batch_shape
    coords = state.coords.data.reshape(batch, n, 3)
    messages = np.empty((batch, n, layer.message_width))
    shifts = np.empty((batch, n, 3))
    message, coord = (egnn._PairInput(state, mlp) for mlp in (layer.message, layer.coord))
    w2, b2 = layer.message.w2.data, layer.message.b2.data
    hidden, width = w2.shape
    for blk in _every_row_blocks(state.batch_shape, max(hidden, width))[1]:
        b0, b1, rows, _ = blk
        count = rows.size * n
        diff, sq_dist = egnn._geometry(coords, blk)
        z1, s1, u1, y1, t1, v1 = (np.empty((count, hidden)) for _ in range(6))
        message.block(blk, sq_dist, out=z1)
        ad._silu(z1, s1, u1)
        half_w2, half_b2 = 0.5 * w2, 0.5 * b2
        z2, s2, msg = (np.empty((count, width)) for _ in range(3))
        np.matmul(u1, half_w2, out=z2)
        z2 += half_b2
        ad._silu(z2, s2, msg)
        gate = ad._sigmoid(msg @ layer.gate_w.data + layer.gate_b.data).reshape(sq_dist.shape)
        gate[:, np.arange(rows.shape[1]), rows[0]] = 0.0
        sums = np.matmul(gate[:, :, None, :], msg.reshape(gate.shape + (width,)))
        messages[b0:b1, rows[0]] = sums[:, :, 0, :]
        coord.block(blk, sq_dist, out=y1)
        ad._silu(y1, t1, v1)
        coef = (v1 @ layer.coord.w2.data + layer.coord.b2.data).reshape(sq_dist.shape)
        weight = coef / (np.sqrt(sq_dist) + 1.0)
        shifts[b0:b1, rows[0]] = np.matmul(weight[:, :, None, :], diff)[:, :, 0, :]
    return messages, coords + shifts


def test_aliased_forward_walks_match_separate_arrays_bit_for_bit(monkeypatch):
    n, width = 35, 8
    blocks = _several_blocks(monkeypatch, n=n, width=width, rows=5)
    assert len(blocks) == 7
    layer, coords, feats, _ = _layer_case(33, n=n, feat_width=width, message_width=width)
    state = egnn.GraphState(ad.Tensor(coords[None]), ad.Tensor(feats[None]))
    pairs = egnn._pair_update(state, layer, np.ones((1, n), dtype=bool)).data
    want_messages, want_coords = _reference_blocks(state, layer)
    assert pairs[..., :width].tobytes() == want_messages.tobytes()
    assert pairs[..., width:].tobytes() == want_coords.tobytes()


def test_rank_two_message_gradient_matches_three_passes(monkeypatch):
    # d(msg) = d_logit * gate_w + gate * g_i as one (N, 2) @ (2, M)
    # product per receiving row, against the outer product, the scaled
    # upstream gradient and their sum, in every block of the backward walk
    n, width = 30, 8
    blocks = _several_blocks(monkeypatch, n=n, width=width, rows=6)
    layer, coords, feats, probe = _layer_case(34, n=n, feat_width=width, message_width=width)
    seen = []
    rank_two = egnn._message_grad

    def compare(d_logit, gate, w_gate, g_rows, out):
        three_passes = d_logit[:, :, :, None] * w_gate[:, 0]
        three_passes += gate[:, :, :, None] * g_rows[:, :, None, :]
        got = rank_two(d_logit, gate, w_gate, g_rows, out)
        seen.append(np.linalg.norm(got - three_passes) / np.linalg.norm(three_passes))
        return got

    monkeypatch.setattr(egnn, "_message_grad", compare)
    _layer_outputs_and_grads(egnn.egcl_forward, layer, coords, feats, probe)
    assert len(seen) == len(blocks)
    assert max(seen) < 1e-15


def test_layer_gradients_finite_for_coincident_nodes_in_several_blocks(monkeypatch):
    # The parts run on pool threads; numpy's error state must reach them.
    n = 5
    _several_blocks(monkeypatch, n=n, width=8, rows=1)
    layer, coords, feats, probe = _layer_case(14, n=n, feat_width=8, message_width=8)
    coords[1] = coords[0]
    with np.errstate(divide="raise", invalid="raise"):
        _, grads = _layer_outputs_and_grads(egnn.egcl_forward, layer, coords, feats, probe)
    assert all(np.all(np.isfinite(g)) for g in grads)


# (B, N, receiving rows of each graph, rows per block or None for the
# default block size): one block of three graphs padded to the longest
# list; blocks of two graphs each, one of them padded with a graph that
# receives nothing; and graphs walked two receiving rows at a time, in
# six blocks over two parts
_MASKED_LAYOUTS = [
    (3, 9, (4, 9, 0), None),
    (5, 6, (1, 6, 3, 0, 2), 12),
    (2, 11, (7, 3), 2),
]


def _masked_case(monkeypatch, batch, n, counts, rows):
    width = 6
    if rows is not None:
        monkeypatch.setattr(egnn, "_BLOCK_VALUES", n * width * rows)
    rng = np.random.default_rng(40 + n)
    layer = _draw_gates(rng, [egnn.init_egcl(rng, feat_width=4, message_width=width)])
    coords = rng.normal(scale=2.0, size=(batch, n, 3))
    feats = rng.normal(size=(batch, n, 4))
    mask = np.zeros((batch, n), dtype=bool)
    for b, count in enumerate(counts):
        mask[b, rng.choice(n, count, replace=False)] = True
    probe = (rng.normal(size=(batch, n, 3)), rng.normal(size=(batch, n, 4)))
    return layer, coords, feats, mask, probe


@pytest.mark.parametrize("batch, n, counts, rows", _MASKED_LAYOUTS)
def test_masked_kernels_give_the_full_rows_and_zero_elsewhere(monkeypatch, batch, n, counts,
                                                              rows):
    layer, coords, feats, mask, _ = _masked_case(monkeypatch, batch, n, counts, rows)
    state = egnn.GraphState(ad.Tensor(coords), ad.Tensor(feats))
    full, masked = (egnn._pair_update(state, layer, receive).data
                    for receive in (np.ones((batch, n), dtype=bool), mask))
    assert masked[mask].tobytes() == full[mask].tobytes()
    assert np.all(masked[~mask][:, :6] == 0.0)
    assert masked[~mask][:, 6:].tobytes() == coords[~mask].tobytes()
    out = egnn.egcl_forward(state, layer, mask)
    assert out.coords.data[~mask].tobytes() == coords[~mask].tobytes()
    alone = egnn.mlp_forward(
        layer.feature, ad.concat([ad.Tensor(feats), ad.Tensor(np.zeros((batch, n, 6)))], axis=-1)
    )
    assert out.feats.data[~mask].tobytes() == alone.data[~mask].tobytes()


@pytest.mark.parametrize("batch, n, counts, rows", _MASKED_LAYOUTS)
def test_masked_layer_matches_edge_list_reference(monkeypatch, batch, n, counts, rows):
    layer, coords, feats, mask, probe = _masked_case(monkeypatch, batch, n, counts, rows)

    def dense(state, params):
        return egnn.egcl_forward(state, params, mask)

    def reference(state, params):
        return _edge_list_forward(state, params, receive=mask)

    (got, got_grads), (ref, ref_grads) = [
        _layer_outputs_and_grads(forward, layer, coords, feats, probe)
        for forward in (dense, reference)
    ]
    assert _max_abs(got.coords.data - ref.coords.data) < 1e-12
    assert _max_abs(got.feats.data - ref.feats.data) < 1e-12
    assert len(got_grads) == 2 + 14
    for g, want in zip(got_grads, ref_grads):
        assert _rel_dev(g, want) < 1e-10
    if pool.part_pool() is not None and len(egnn._row_blocks(mask, 6)[1]) > 1:
        pooled = [a.tobytes() for a in [got.coords.data, got.feats.data] + got_grads]
        monkeypatch.setattr(pool, "_pool", False)
        inline, inline_grads = _layer_outputs_and_grads(dense, layer, coords, feats, probe)
        assert [a.tobytes() for a in [inline.coords.data, inline.feats.data]
                + inline_grads] == pooled


def test_floating_point_error_in_a_part_reaches_the_caller(monkeypatch):
    _several_blocks(monkeypatch, n=7, width=6, rows=1)
    case = _layer_case(33, n=7, feat_width=4, message_width=6)
    if pool.part_pool() is None:
        pytest.skip("no OpenBLAS thread setter: the parts always run inline")
    threads = set()
    silu = ad._silu

    def dividing_silu(h, t, u):
        threads.add(threading.current_thread())
        np.divide(1.0, np.zeros(1))
        silu(h, t, u)

    monkeypatch.setattr(ad, "_silu", dividing_silu)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        _layer_bytes(*case)
    assert threading.current_thread() not in threads


def test_one_block_never_touches_the_pool(monkeypatch):
    class RefusingPool:
        def submit(self, *args, **kwargs):
            raise AssertionError("a one-block call reached the pool")

    case = _layer_case(34, n=7, feat_width=4, message_width=6)
    assert len(_every_row_blocks((1, 7), 6)[1]) == 1
    monkeypatch.setattr(pool, "_pool", RefusingPool())
    _layer_bytes(*case)
    _several_blocks(monkeypatch, n=7, width=6, rows=1)
    with pytest.raises(AssertionError, match="one-block"):
        _layer_bytes(*case)


def test_without_a_blas_thread_setter_the_parts_run_inline(monkeypatch, caplog):
    _several_blocks(monkeypatch, n=7, width=6, rows=1)
    case = _layer_case(35, n=7, feat_width=4, message_width=6)
    expected = _layer_bytes(*case)
    monkeypatch.setattr(pool, "_pool", None)
    monkeypatch.setattr(pool, "_blas_thread_setter", lambda: None)
    caplog.set_level(logging.INFO, logger=pool.__name__)
    assert _layer_bytes(*case) == expected
    assert _layer_bytes(*case) == expected
    assert pool._pool is False
    records = [r for r in caplog.records if r.name == pool.__name__]
    assert [r.levelno for r in records] == [logging.INFO]


def test_first_one_block_call_sets_blas_to_one_thread_and_starts_no_thread(monkeypatch):
    calls = []
    case = _layer_case(36, n=7, feat_width=4, message_width=6)
    assert len(_every_row_blocks((1, 7), 6)[1]) == 1
    monkeypatch.setattr(pool, "_pool", None)
    monkeypatch.setattr(pool, "_blas_thread_setter", lambda: calls.append)
    threads = threading.active_count()
    _layer_bytes(*case)
    assert calls == [1]
    assert threading.active_count() == threads
    _layer_bytes(*case)
    assert calls == [1]


# Hashes the gradients of one width-32 layer over a (2, 30, 32) stack, one
# block of 1800 pairs, after an optional width-8 L=150 call of two blocks.
_ONE_BLOCK_GRADS = """
import hashlib, sys
import numpy as np
from geopro import autodiff as ad, egnn

def grads(seed, batch, n, width):
    rng = np.random.default_rng(seed)
    layer = egnn.init_egcl(rng, feat_width=width, message_width=width)
    x = ad.Tensor(rng.normal(scale=2.0, size=(batch, n, 3)), requires_grad=True)
    h = ad.Tensor(rng.normal(size=(batch, n, width)), requires_grad=True)
    params = [t for _, t in ad.named_tensors(layer)]
    with ad.Tape() as tape:
        out = egnn.egcl_forward(egnn.GraphState(x, h), layer)
        tape.backward(ad.add(ad.tsum(out.coords), ad.tsum(out.feats)))
    return [x.grad, h.grad] + [p.grad for p in params]

if sys.argv[1] == "after":
    assert len(egnn._row_blocks(np.ones((1, 150), dtype=bool), 8)[1]) > 1
    grads(1, 1, 150, 8)
assert len(egnn._row_blocks(np.ones((2, 30), dtype=bool), 32)[1]) == 1
print(hashlib.sha256(b"".join(g.tobytes() for g in grads(0, 2, 30, 32))).hexdigest())
"""


def test_one_block_gradients_do_not_depend_on_an_earlier_multi_block_call():
    # OpenBLAS starts at its default thread count, as in a user's process
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(egnn.__file__))
    alone, after = [
        subprocess.run([sys.executable, "-c", _ONE_BLOCK_GRADS, order], capture_output=True,
                       text=True, env=env, check=True, timeout=120).stdout
        for order in ("alone", "after")
    ]
    assert alone == after


def test_importing_geopro_starts_no_thread():
    # nor does building an Adam state and stepping one below the pool limit
    src = os.path.dirname(os.path.dirname(egnn.__file__))
    code = ("import threading, numpy as np, geopro.cli, geopro.egnn, geopro.pool; "
            "from geopro import autodiff as ad; "
            "p = ad.Tensor(np.ones((300, 250)), requires_grad=True); "
            "state = ad.AdamState([p]); p.grad = np.ones(p.shape); ad.adam_step(state, 0.1); "
            "print(threading.active_count(), geopro.pool._pool)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout.split() == ["1", "None"]
