import tracemalloc

import numpy as np
import pytest

import oracles_blocks
from geopro import autodiff as ad
from geopro import egnn
from geopro import seqmodel as sm
from geopro.checks import check_grads
from geopro.errors import ConfigError, ContractError, DataError


def test_vocabulary_is_bijective():
    assert len(set(sm.AMINO_ACIDS)) == sm.RESIDUE_COUNT == 20
    assert (sm.MASK, sm.VOCAB_SIZE) == (20, 21)
    seq = sm.AMINO_ACIDS
    assert np.array_equal(sm.encode_sequence(seq), np.arange(20))
    assert sm.decode_sequence(sm.encode_sequence(seq)) == seq
    with pytest.raises(DataError):
        sm.encode_sequence("ABC")
    with pytest.raises(ContractError):
        sm.decode_sequence([sm.MASK])


def test_corrupt_sequence_cases():
    tokens = sm.encode_sequence("ACDE")
    out = sm.corrupt_sequence(tokens, {0, 3})
    assert list(out) == [tokens[0], sm.MASK, sm.MASK, tokens[3]]
    assert np.array_equal(sm.corrupt_sequence(tokens, {0, 1, 2, 3}), tokens)
    assert np.all(sm.corrupt_sequence(tokens, set()) == sm.MASK)
    with pytest.raises(ContractError):
        sm.corrupt_sequence(tokens, {4})
    with pytest.raises(ContractError):
        sm.corrupt_sequence(tokens, {-1})


def test_encode_context_basics():
    rng = np.random.default_rng(0)
    enc = sm.init_context_encoder(rng, width=8, depth=1, n_heads=2, max_len=8)
    single = sm.encode_context(np.array([3]), enc)
    assert single.shape == (1, 8)

    tokens = sm.encode_sequence("ACDEFGHI")
    a = sm.encode_context(tokens, enc)
    b = sm.encode_context(tokens, enc)
    assert np.array_equal(a.data, b.data)

    reordered = sm.encode_context(tokens[::-1].copy(), enc)
    assert np.max(np.abs(reordered.data - a.data)) > 1e-6

    with pytest.raises(ContractError):
        sm.encode_context(sm.encode_sequence("ACDEFGHIK"), enc)
    for token in (21, 25):
        with pytest.raises(ContractError):
            sm.encode_context(np.array([token]), enc)


def test_head_count_must_be_positive_and_divide_width():
    rng = np.random.default_rng(0)
    for n_heads in (0, 3):
        with pytest.raises(ConfigError, match="heads"):
            sm.init_context_encoder(rng, width=8, depth=1, n_heads=n_heads, max_len=8)
        with pytest.raises(ConfigError, match="heads"):
            sm.init_gsd_decoder(rng, width=8, depth=1, n_heads=n_heads)


def test_feature_select_modes():
    rng = np.random.default_rng(2)
    feats = ad.Tensor(rng.normal(size=(4, 6)))
    mask_emb = ad.Tensor(rng.normal(size=6))

    kept = sm.gsd_feature_select(feats, np.zeros(4, dtype=bool), mask_emb)
    assert np.array_equal(kept.data, feats.data)

    blanked = sm.gsd_feature_select(feats, np.ones(4, dtype=bool), mask_emb)
    assert np.array_equal(blanked.data, np.tile(mask_emb.data, (4, 1)))

    single = ad.Tensor(rng.normal(size=(1, 6)))
    masked = sm.gsd_feature_select(single, [True], mask_emb)
    assert np.array_equal(masked.data, mask_emb.data.reshape(1, 6))

    mixed = sm.gsd_feature_select(feats, sm.motif_mask({1, 3}, 4), mask_emb)
    assert np.array_equal(mixed.data[0], feats.data[0])
    assert np.array_equal(mixed.data[1], mask_emb.data)

    # a stack of two is each sequence alone
    stack = ad.Tensor(np.stack([feats.data, feats.data[::-1]]))
    masks = np.stack([sm.motif_mask({1, 3}, 4), sm.motif_mask({0}, 4)])
    both = sm.gsd_feature_select(stack, masks, mask_emb)
    for b in range(2):
        alone = sm.gsd_feature_select(ad.Tensor(stack.data[b]), masks[b], mask_emb)
        assert np.array_equal(both.data[b], alone.data)

    with pytest.raises(ContractError):
        sm.gsd_feature_select(feats, np.ones(5, dtype=bool), mask_emb)


def test_feature_select_trains_the_mask_row():
    rng = np.random.default_rng(3)
    feats = ad.Tensor(rng.normal(size=(4, 6)))
    mask_emb = ad.Tensor(rng.normal(size=6), requires_grad=True)
    with ad.Tape() as tape:
        out = sm.gsd_feature_select(feats, sm.motif_mask({0}, 4), mask_emb)
        tape.backward(ad.tsum(ad.square(out)))
    assert np.max(np.abs(mask_emb.grad)) > 0.0


def test_decode_logits_shape_and_uniform_head():
    rng = np.random.default_rng(4)
    dec = sm.init_gsd_decoder(rng, width=8, depth=1, n_heads=2)
    rows = ad.Tensor(rng.normal(size=(5, 8)))
    logits = sm.decode_logits(rows, dec)
    assert logits.shape == (5, 20)
    probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    again = sm.decode_logits(rows, dec)
    assert np.array_equal(logits.data, again.data)

    dec.head_w = ad.Tensor(np.zeros((8, 20)), requires_grad=True)
    dec.head_b = ad.Tensor(np.zeros(20), requires_grad=True)
    flat = sm.decode_logits(rows, dec)
    assert np.array_equal(flat.data, np.zeros((5, 20)))


def test_sequence_loss_values():
    uniform = ad.Tensor(np.zeros((5, 20)))
    target = np.array([3, 1, 4, 1, 5])
    def motif(*positions):
        return sm.motif_mask(positions, 5)

    loss = sm.sequence_loss(uniform, target, motif(1, 2))
    assert abs(loss.item() - 3.0 * np.log(20.0)) < 1e-12

    spiked = np.zeros((5, 20))
    spiked[np.arange(5), target] = 1e3
    loss = sm.sequence_loss(ad.Tensor(spiked), target, motif())
    assert loss.item() < 1e-12

    row = np.zeros((1, 20))
    row[0, 0] = 1.0
    loss = sm.sequence_loss(ad.Tensor(row), np.array([0]), [False])
    assert abs(loss.item() - (np.log(np.e + 19.0) - 1.0)) < 1e-12

    all_motif = sm.sequence_loss(uniform, target, motif(0, 1, 2, 3, 4))
    assert all_motif.item() == 0.0

    rng = np.random.default_rng(5)
    noisy = ad.Tensor(rng.normal(size=(5, 20)))
    assert sm.sequence_loss(noisy, target, motif(0)).item() >= 0.0

    # a stack of two gives each sequence's loss
    stacked = sm.sequence_loss(
        ad.Tensor(np.stack([noisy.data, spiked])), np.stack([target, target]),
        np.stack([motif(0), motif()]))
    assert stacked.shape == (2,)
    assert stacked.data[0] == sm.sequence_loss(noisy, target, motif(0)).item()
    assert stacked.data[1] < 1e-12

    masked_target = target.copy()
    masked_target[2] = sm.MASK
    with pytest.raises(ContractError):
        sm.sequence_loss(uniform, masked_target, motif(0))
    sm.sequence_loss(uniform, masked_target, motif(0, 2))
    with pytest.raises(ContractError):
        sm.sequence_loss(uniform, target, sm.motif_mask({0}, 4))


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(6)
    raw = rng.normal(size=(4, 20))
    logits = ad.Tensor(raw, requires_grad=True)
    target = np.array([2, 7, 0, 19])
    with ad.Tape() as tape:
        loss = sm.sequence_loss(logits, target, sm.motif_mask({1}, 4))
        tape.backward(loss)
    exp = np.exp(raw - raw.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    expected = probs.copy()
    expected[np.arange(4), target] -= 1.0
    expected[1] = 0.0
    assert np.max(np.abs(logits.grad - expected)) < 1e-10


def test_model_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    enc = sm.init_context_encoder(rng, width=8, depth=1, n_heads=2, max_len=8)
    dec = sm.init_gsd_decoder(rng, width=8, depth=1, n_heads=2)
    target = sm.encode_sequence("ACDE")
    corrupted = sm.corrupt_sequence(target, {0})
    params = [t for _, t in ad.named_tensors([enc, dec])]

    def build_loss():
        feats = sm.encode_context(corrupted, enc)
        motif = sm.motif_mask({0}, 4)
        selected = sm.gsd_feature_select(feats, motif, dec.mask_emb)
        logits = sm.decode_logits(selected, dec)
        return sm.sequence_loss(logits, target, motif)

    assert check_grads(build_loss, params) < 1e-4


def test_top_k_selection_and_ties():
    row = np.zeros(20)
    row[0] = 1.0
    top, probs = sm.top_k_probs(row, 2)
    assert list(top) == [0, 1]
    assert abs(probs.sum() - 1.0) < 1e-15

    flat_top, flat_probs = sm.top_k_probs(np.zeros(20), 3)
    assert list(flat_top) == [0, 1, 2]
    assert np.allclose(flat_probs, 1.0 / 3.0, atol=1e-15)

    with pytest.raises(ContractError):
        sm.top_k_probs(np.zeros(20), 0)
    with pytest.raises(ContractError):
        sm.top_k_probs(np.zeros(20), 21)


def test_greedy_sampling_is_argmax():
    rng = np.random.default_rng(8)
    for _ in range(50):
        row = rng.normal(size=20)
        assert sm.sample_top_k(row, 1, rng) == int(np.argmax(row))


def test_uniform_sampling_frequencies():
    rng = np.random.default_rng(9)
    draws = 100_000
    counts = np.zeros(20)
    row = np.zeros(20)
    for _ in range(draws):
        counts[sm.sample_top_k(row, 20, rng)] += 1
    expected = draws / 20.0
    sigma = np.sqrt(draws * 0.05 * 0.95)
    assert np.max(np.abs(counts - expected)) < 3.0 * sigma


def test_top3_sampling_frequencies():
    rng = np.random.default_rng(10)
    row = np.zeros(20)
    row[0], row[1], row[2] = 5.0, 2.0, 1.0
    weights = np.exp([5.0, 2.0, 1.0])
    probs = weights / weights.sum()
    draws = 100_000
    counts = np.zeros(20)
    for _ in range(draws):
        counts[sm.sample_top_k(row, 3, rng)] += 1
    assert counts[3:].sum() == 0
    for cls in range(3):
        sigma = np.sqrt(draws * probs[cls] * (1.0 - probs[cls]))
        assert abs(counts[cls] - draws * probs[cls]) < 3.0 * sigma


# ---------------------------------------------------------------------------
# the fused transformer sub-layers against the composed oracles


def _sublayers(block):
    """(name, fused, composed, parameters) of each sub-layer of ``block``."""
    att, ln, ff = block.attention, block.ln1, block.feedforward
    return [
        ("attention", lambda x: sm.attention_forward(x, att),
         lambda x: oracles_blocks.attention(x, att),
         [att.wq, att.bq, att.wk, att.wv, att.bv, att.wo, att.bo]),
        ("layer_norm", lambda x: sm.layer_norm(x, ln),
         lambda x: oracles_blocks.layer_norm(x, ln), [ln.gamma, ln.beta]),
        ("mlp", lambda x: egnn.mlp_forward(ff, x),
         lambda x: oracles_blocks.mlp(ff, x), ff.tensors()),
    ]


def _drawn_block(rng, width, heads):
    block = sm._init_block(rng, width, heads)
    # the initial gamma of ones and beta of zeros would hide a mix-up
    block.ln1.gamma.data = rng.normal(size=width)
    block.ln1.beta.data = rng.normal(size=width)
    return block


def _output_and_grads(forward, x, params, probe):
    x = ad.Tensor(x, requires_grad=True)
    with ad.Tape() as tape:
        out = forward(x)
        tape.backward(ad.tsum(ad.mul(out, probe)))
    return out.data, [x.grad] + [p.grad for p in params]


def _rel(got, want):
    return np.abs(got - want).max(initial=0.0) / max(np.abs(want).max(initial=0.0), 1e-300)


@pytest.mark.parametrize("score_values", [None, 40])
@pytest.mark.parametrize("shape", [(13,), (3, 11)])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("width", [8, 32, 320])
def test_fused_sublayers_match_the_composed_ops(monkeypatch, width, heads, shape, score_values):
    # score_values=40 walks the attention in blocks of 1 to 13 query rows
    if score_values is not None:
        monkeypatch.setattr(sm, "_SCORE_VALUES", score_values)
    rng = np.random.default_rng(width + 10 * heads + len(shape))
    block = _drawn_block(rng, width, heads)
    x = rng.normal(size=shape + (width,))
    probe = rng.normal(size=x.shape)
    for name, fused, composed, params in _sublayers(block):
        out, grads = _output_and_grads(fused, x, params, probe)
        want_out, want_grads = _output_and_grads(composed, x, params, probe)
        assert _rel(out, want_out) <= 1e-12, name
        assert np.array_equal(fused(ad.Tensor(x)).data, out), name
        for got, want in zip(grads, want_grads):
            assert _rel(got, want) <= 1e-10, name


def test_fused_sublayers_match_finite_differences(monkeypatch):
    # the op sweep's tolerance, with the input among the checked tensors
    monkeypatch.setattr(sm, "_SCORE_VALUES", 20)
    rng = np.random.default_rng(31)
    block = _drawn_block(rng, 8, 2)
    x = ad.Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
    probe = rng.normal(size=x.shape)
    for name, fused, _, params in _sublayers(block):
        err = check_grads(lambda: ad.tsum(ad.mul(fused(x), probe)), [x] + params)
        assert err < 1e-4, "%s: relative error %.3e" % (name, err)


def test_attention_memory_stays_below_one_attention_map():
    # The attention node keeps only each softmax row's max and sum between
    # forward and backward, and walks the scores in blocks; a kept
    # (heads, L, L) float64 map would exceed the bound on its own.
    length, width, heads = 256, 32, 8
    rng = np.random.default_rng(32)
    params = sm._init_attention(rng, width, heads)
    x = ad.Tensor(rng.normal(size=(length, width)), requires_grad=True)
    probe = rng.normal(size=(length, width))
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            tape.backward(ad.tsum(ad.mul(sm.attention_forward(x, params), probe)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < heads * length * length * 8


def test_a_transformer_block_records_thirteen_tape_nodes():
    # two layer norms, the Q, K, V and output projections (seven ops), the
    # attention node, the feed-forward node and two residual adds; a change
    # that adds nodes to a block shows here
    rng = np.random.default_rng(33)
    block = sm._init_block(rng, 8, 2)
    with ad.Tape() as tape:
        sm.block_forward(ad.Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True), block)
    assert len(tape) == 13
