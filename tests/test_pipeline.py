"""Tests for the joint model: init, losses, training, design, and I/O."""

import dataclasses
import math
import os

import numpy as np
import pytest

from geopro import autodiff as ad
from geopro import pipeline as pl
from geopro.checks import check_grads
from geopro.data import ProteinRecord
from geopro.errors import (
    ConfigError,
    ContractError,
    DomainError,
    GenerationError,
    NumericError,
    ParseError,
)
from geopro.geometry import apply_rigid, random_rigid
from geopro.seqmodel import corrupt_sequence, encode_context


def tiny_config(**kw):
    base = dict(
        width=8, egnn_depth=1, enc_depth=1, dec_depth=1, n_heads=2,
        epochs=2, batch_size=2, base_lr=1e-3, warmup_steps=2, seed=3,
        max_len=64,
    )
    base.update(kw)
    return pl.TrainingConfig(**base)


def toy_example(rng, length=10, motif_positions=(0, 4)):
    coords = np.cumsum(rng.normal(scale=2.0, size=(length, 3)), axis=0)
    sequence = rng.integers(0, 20, size=length)
    record = ProteinRecord("toy", sequence, coords)
    motif = pl.motif_from_record(record, motif_positions)
    return record, motif


# ---------------------------------------------------------------------------
# motif and placement


def test_motif_validation():
    good = pl.Motif([1, 4], [0, 19], np.zeros((2, 3)))
    assert good.size == 2 and good.span == 5
    with pytest.raises(ContractError):
        pl.Motif([], [], np.zeros((0, 3)))
    with pytest.raises(ContractError):
        pl.Motif([4, 1], [0, 1], np.zeros((2, 3)))
    with pytest.raises(ContractError):
        pl.Motif([1, 1], [0, 1], np.zeros((2, 3)))
    with pytest.raises(ContractError):
        pl.Motif([-1, 2], [0, 1], np.zeros((2, 3)))
    with pytest.raises(ContractError):
        pl.Motif([1, 2], [0, 20], np.zeros((2, 3)))
    with pytest.raises(ContractError):
        pl.Motif([1, 2], [0, 1], np.zeros((3, 3)))


def test_motif_from_record():
    rng = np.random.default_rng(0)
    record, motif = toy_example(rng, length=8, motif_positions=(5, 2))
    assert motif.positions.tolist() == [2, 5]
    assert np.array_equal(motif.coords, record.ca_coords[[2, 5]])
    assert np.array_equal(motif.residues, record.sequence[[2, 5]])
    for positions in ([0, 8], [-1, 2], [-73, 2]):
        with pytest.raises(ContractError, match="out of range"):
            pl.motif_from_record(record, positions)


def test_placement_plan_hand_case():
    # Anchors at both ends of a 10-long chain: each side chains outward
    # one step at a time, and every center was placed strictly earlier.
    plan = pl.placement_plan([0, 9], 10)
    centers = dict(plan)
    assert centers == {1: 0, 2: 1, 3: 2, 4: 3, 8: 9, 7: 8, 6: 7, 5: 6}
    placed = {0, 9}
    for j, center in plan:
        assert center in placed
        placed.add(j)

    # Exact midpoint between two anchors prefers the left anchor.
    assert dict(pl.placement_plan([0, 8], 9))[4] == 3

    # Single interior anchor chains left and right.
    assert dict(pl.placement_plan([2], 5)) == {1: 2, 0: 1, 3: 2, 4: 3}

    with pytest.raises(ContractError):
        pl.placement_plan([], 5)
    with pytest.raises(ContractError):
        pl.placement_plan([5], 5)


def test_init_coords_radius_exact_and_motif_bits():
    rng = np.random.default_rng(42)
    for _ in range(200):
        length = int(rng.integers(2, 25))
        n_motif = int(rng.integers(1, length + 1))
        positions = np.sort(rng.choice(length, size=n_motif, replace=False))
        motif = pl.Motif(positions, rng.integers(0, 20, n_motif),
                         rng.normal(scale=8.0, size=(n_motif, 3)))
        radius = float(rng.uniform(1.0, 6.0))
        coords = pl.init_backbone_coords(motif, length, radius, rng)
        assert np.array_equal(coords[motif.positions], motif.coords)
        for j, center in pl.placement_plan(motif.positions, length):
            d = np.linalg.norm(coords[j] - coords[center])
            assert abs(d - radius) < 1e-9


def test_init_coords_length_too_small():
    motif = pl.Motif([0, 6], [1, 2], np.zeros((2, 3)))
    with pytest.raises(ContractError):
        pl.init_backbone_coords(motif, 5, 3.75, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# losses


def test_backbone_loss_values():
    motif = pl.Motif([1], [0], np.zeros((1, 3)))
    target = np.arange(12, dtype=np.float64).reshape(4, 3)

    assert pl.backbone_loss(ad.Tensor(target.copy()), target, motif).item() == 0.0

    off = target.copy()
    off[2] += np.array([1.0, 0.0, 0.0])
    assert pl.backbone_loss(ad.Tensor(off), target, motif).item() == pytest.approx(1.0)

    # Motif rows never score, however wrong they are.
    off = target.copy()
    off[1] += 100.0
    assert pl.backbone_loss(ad.Tensor(off), target, motif).item() == 0.0

    all_motif = pl.Motif([0, 1, 2, 3], [0, 1, 2, 3], target.copy())
    wild = ad.Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    assert pl.backbone_loss(wild, target, all_motif).item() == 0.0

    with pytest.raises(ContractError):
        pl.backbone_loss(ad.Tensor(np.zeros((3, 3))), target, motif)
    # A Motif outside the 4 positions, or a mask of another shape.
    outside = pl.Motif([1, 6], [0, 0], np.zeros((2, 3)))
    with pytest.raises(ContractError, match="out of range"):
        pl.backbone_loss(ad.Tensor(target.copy()), target, outside)
    for bad in (np.zeros(5, dtype=bool), np.zeros((1, 4), dtype=bool)):
        with pytest.raises(ContractError, match="mask shape"):
            pl.backbone_loss(ad.Tensor(target.copy()), target, bad)

    # The same loss from a mask, and per example for a stack.
    mask = np.array([False, True, False, False])
    off = target + 1.0
    assert pl.backbone_loss(ad.Tensor(off), target, mask).item() == 9.0
    stacked = pl.backbone_loss(
        ad.Tensor(np.stack([off, target])), np.stack([target, target]), np.stack([mask, mask]))
    assert stacked.shape == (2,) and np.array_equal(stacked.data, [9.0, 0.0])


def test_backbone_loss_gradient_is_two_delta():
    rng = np.random.default_rng(7)
    target = rng.normal(size=(5, 3))
    pred = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    motif = pl.Motif([0, 3], [4, 5], target[[0, 3]])
    with ad.Tape() as tape:
        loss = pl.backbone_loss(pred, target, motif)
        tape.backward(loss)
    expected = 2.0 * (pred.data - target)
    expected[[0, 3]] = 0.0
    assert np.allclose(pred.grad, expected, atol=1e-12)


def test_total_loss_worked_cases():
    assert pl.total_loss(10.0, 2.0, 0.1, 1.0).item() == pytest.approx(3.0)
    assert pl.total_loss(100.0, 1.0, 0.01, 1.0).item() == pytest.approx(2.0)
    with pytest.raises(DomainError):
        pl.total_loss(1.0, 1.0, -0.1, 1.0)

    # Zero backbone weight cuts the gradient path to the backbone term.
    l_b = ad.Tensor(5.0, requires_grad=True)
    l_s = ad.Tensor(2.0, requires_grad=True)
    with ad.Tape() as tape:
        tape.backward(pl.total_loss(l_b, l_s, 0.0, 1.0))
    assert l_b.grad == 0.0
    assert l_s.grad == 1.0


def test_gaussian_log_density_matches_backbone_loss():
    # Sum of unit-covariance Gaussian log densities at the prediction,
    # accumulated per scalar coordinate, against the squared-error sum.
    rng = np.random.default_rng(11)
    target = rng.normal(size=(7, 3))
    pred = rng.normal(size=(7, 3))
    motif = pl.Motif([2, 5], [0, 0], target[[2, 5]])
    l_b = pl.backbone_loss(ad.Tensor(pred), target, motif).item()

    scored = [j for j in range(7) if j not in (2, 5)]
    log_density = 0.0
    for j in scored:
        for c in range(3):
            d = pred[j, c] - target[j, c]
            log_density += -0.5 * d * d - 0.5 * math.log(2.0 * math.pi)
    constant = 1.5 * len(scored) * math.log(2.0 * math.pi)
    assert abs(log_density - (-0.5 * l_b - constant)) < 1e-10


# ---------------------------------------------------------------------------
# forward passes


def test_forward_joint_zero_depth_is_identity_stack():
    rng = np.random.default_rng(1)
    record, motif = toy_example(rng)
    cfg = tiny_config(egnn_depth=0)
    model = pl.build_model(cfg)
    coords, feats, logits = pl.forward_joint(
        record, motif, model, np.random.default_rng(9)
    )
    start = pl.init_backbone_coords(
        motif, record.length, cfg.radius, np.random.default_rng(9)
    )
    assert np.array_equal(coords.data, start)
    corrupted = corrupt_sequence(record.sequence, motif.position_set())
    h0 = encode_context(corrupted, model.encoder)
    assert np.array_equal(feats.data, h0.data)
    assert logits.shape == (record.length, 20)


def test_forward_joint_deterministic_per_seed():
    rng = np.random.default_rng(2)
    record, motif = toy_example(rng)
    model = pl.build_model(tiny_config())
    out1 = pl.forward_joint(record, motif, model, np.random.default_rng(4))
    out2 = pl.forward_joint(record, motif, model, np.random.default_rng(4))
    for a, b in zip(out1, out2):
        assert np.array_equal(a.data, b.data)
    out3 = pl.forward_joint(record, motif, model, np.random.default_rng(5))
    assert not np.array_equal(out1[0].data, out3[0].data)


def test_forward_joint_rejects_overlong_record():
    rng = np.random.default_rng(3)
    record, motif = toy_example(rng, length=12)
    model = pl.build_model(tiny_config(max_len=10))
    with pytest.raises(ContractError):
        pl.forward_joint(record, motif, model, np.random.default_rng(0))


def test_joint_loss_and_logits_invariant_under_rigid_motion():
    rng = np.random.default_rng(20)
    for trial in range(6):
        record, motif = toy_example(
            rng, length=int(rng.integers(6, 14)), motif_positions=(1, 3)
        )
        model = pl.build_model(tiny_config(seed=trial))
        tokens = corrupt_sequence(record.sequence, motif.position_set())
        start = pl.init_backbone_coords(motif, record.length, 3.75, rng)
        transform = random_rigid(rng, reflect=bool(trial % 2))

        c1, _, lg1 = pl.forward_with_coords(tokens, start, motif.position_set(), model)
        c2, _, lg2 = pl.forward_with_coords(
            tokens, apply_rigid(transform, start), motif.position_set(), model
        )
        l1 = pl.backbone_loss(c1, record.ca_coords, motif).item()
        l2 = pl.backbone_loss(c2, apply_rigid(transform, record.ca_coords), motif).item()
        assert np.abs(lg1.data - lg2.data).max() < 1e-8
        assert abs(l1 - l2) < 1e-8


def test_pipeline_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    record, motif = toy_example(rng, length=6, motif_positions=(0, 3))
    model = pl.build_model(tiny_config(width=4, n_heads=2, seed=8))
    params = [t for _, t in model.named_parameters()]

    def build_loss():
        _, _, total = pl.example_losses(
            record, motif, model, np.random.default_rng(77)
        )
        return total

    assert check_grads(build_loss, params) < 1e-3


def test_scalars_have_shape_empty():
    assert ad.Tensor(3.0).shape == ()
    assert ad.reshape(ad.Tensor([2.0]), ()).shape == ()
    record, motif = toy_example(np.random.default_rng(6))
    model = pl.build_model(tiny_config())
    losses = pl.example_losses(record, motif, model, np.random.default_rng(7))
    assert [t.shape for t in losses] == [(), (), ()]


# ---------------------------------------------------------------------------
# stacked mini-batches


def mixed_batch():
    """Four synthetic examples of lengths 12, 7, 12 and 30."""
    return [
        pl.generate_synthetic_dataset(1, n, 0.3, seed=40 + k)[0]
        for k, n in enumerate((12, 7, 12, 30))
    ]


def streams(count):
    return [np.random.default_rng(900 + k) for k in range(count)]


def _rel_dev(got, want):
    return float(np.abs(got - want).max(initial=0.0)) / max(
        float(np.abs(want).max(initial=0.0)), 1e-300)


def test_batch_losses_and_gradients_equal_the_per_example_sum():
    examples = mixed_batch()
    model = pl.build_model(tiny_config(width=8, egnn_depth=2, feature_select="inverted"))
    params = [t for _, t in model.named_parameters()]
    with ad.Tape() as tape:
        batched = pl.batch_losses(examples, model, streams(4))
        tape.backward(ad.tsum(batched[2]))
    batch_grads = [p.grad for p in params]
    singles = []
    summed = [np.zeros_like(p.data) for p in params]
    for (record, motif), rng in zip(examples, streams(4)):
        with ad.Tape() as tape:
            losses = pl.example_losses(record, motif, model, rng)
            tape.backward(losses[2])
        singles.append([t.item() for t in losses])
        for total, p in zip(summed, params):
            total += p.grad
    assert all(t.shape == (4,) for t in batched)
    assert _rel_dev(np.stack([t.data for t in batched], axis=1), np.array(singles)) < 1e-12
    for got, want in zip(batch_grads, summed):
        assert _rel_dev(got, want) < 1e-12


def test_stacking_leaves_an_example_unchanged():
    first, _, second, _ = mixed_batch()
    model = pl.build_model(tiny_config(width=8, egnn_depth=2))
    outputs = []
    for batch in ([first], [first, second]):
        stack = pl._stack(batch, model, streams(len(batch)))
        features = encode_context(stack.tokens, model.encoder)
        coords, _, logits = pl.refine_and_decode(features, stack.start, stack.motif, model)
        losses = pl.batch_losses(batch, model, streams(len(batch)))
        outputs.append((coords.data[0], logits.data[0], [t.data[0] for t in losses]))
    for alone, stacked in zip(*outputs):
        assert _rel_dev(np.asarray(stacked), np.asarray(alone)) < 1e-12


def test_a_mixed_length_batch_stacks_each_length_and_pads_nothing(monkeypatch):
    shapes = []
    forward = pl.egnn_forward

    def recording(state, model):
        shapes.append(state.batch_shape)
        return forward(state, model)

    monkeypatch.setattr(pl, "egnn_forward", recording)
    model = pl.build_model(tiny_config(width=8))
    pl.batch_losses(mixed_batch(), model, streams(4))
    assert sorted(shapes) == [(1, 7), (1, 30), (2, 12)]
    with pytest.raises(ContractError):
        pl._stack(mixed_batch()[:2], model, streams(2))


def test_training_step_tape_does_not_grow_with_the_batch(monkeypatch):
    recorded = []
    backward = ad.Tape.backward

    def counting(tape, loss):
        recorded.append(len(tape))
        return backward(tape, loss)

    monkeypatch.setattr(ad.Tape, "backward", counting)
    data = pl.generate_synthetic_dataset(4, 12, 0.3, seed=8)
    for size in (1, 4):
        cfg = tiny_config(epochs=1, batch_size=size)
        pl.train(data[:size], cfg, pl.build_model(cfg))
    assert recorded[0] == recorded[1]


# ---------------------------------------------------------------------------
# training


def test_train_zero_epochs_leaves_model_unchanged():
    data = pl.generate_synthetic_dataset(1, 8, 0.3, seed=0)
    cfg = tiny_config(epochs=0)
    model = pl.build_model(cfg)
    before = {n: t.data.copy() for n, t in model.named_parameters()}
    history = pl.train(data, cfg, model)
    assert history == []
    for name, tensor in model.named_parameters():
        assert np.array_equal(tensor.data, before[name])
    with pytest.raises(ContractError):
        pl.train([], cfg, model)


def test_train_aborts_on_non_finite_loss_with_diagnostic():
    data = pl.generate_synthetic_dataset(2, 8, 0.3, seed=1)
    cfg = tiny_config()
    model = pl.build_model(cfg)
    model.encoder.token_emb.data[:] = 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"step 0 on example 'syn00[01]'"):
            pl.train(data, cfg, model)


def test_train_smoke_reduces_sequence_loss():
    data = pl.generate_synthetic_dataset(2, 12, 0.3, seed=5)
    # warmup_steps deliberately longer than the run to exercise the
    # schedule shortening path.
    cfg = tiny_config(width=12, epochs=40, batch_size=2, warmup_steps=4000,
                      feature_select="inverted", seed=1)
    model = pl.build_model(cfg)
    history = pl.train(data, cfg, model)
    assert len(history) == 40
    assert all(math.isfinite(h.train_total) for h in history)
    assert history[-1].train_sequence < 0.5 * history[0].train_sequence


def test_train_checkpoints_best_validation_weights(tmp_path):
    data = pl.generate_synthetic_dataset(5, 8, 0.3, seed=9)
    cfg = tiny_config(epochs=4, batch_size=2, base_lr=1e-3, seed=2)
    model = pl.build_model(cfg)
    path = str(tmp_path / "best.ckpt")
    history = pl.train(data[:3], cfg, model, valid_set=data[3:], checkpoint_path=path)
    assert os.path.exists(path)
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    best = min(h.valid_total for h in history)
    restored = pl.load_checkpoint(path, pl.build_model(cfg))
    assert pl.evaluate_loss(data[3:], restored) == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = tiny_config(seed=10)
    model = pl.build_model(cfg)
    path = str(tmp_path / "model.ckpt")
    pl.save_checkpoint(path, model)

    other = pl.build_model(tiny_config(seed=11))
    trained = dict(model.named_parameters())
    assert any(
        not np.array_equal(t.data, trained[n].data)
        for n, t in other.named_parameters()
    )
    pl.load_checkpoint(path, other)
    for name, tensor in other.named_parameters():
        assert np.array_equal(tensor.data, trained[name].data)


def _mlp_shapes(prefix, width_in, hidden, width_out):
    return [
        (prefix + ".w1", (width_in, hidden)), (prefix + ".b1", (hidden,)),
        (prefix + ".w2", (hidden, width_out)), (prefix + ".b2", (width_out,)),
    ]


def _block_shapes(prefix):
    return [
        (prefix + ".ln1.gamma", (8,)), (prefix + ".ln1.beta", (8,)),
        (prefix + ".attention.wq", (8, 8)), (prefix + ".attention.bq", (8,)),
        (prefix + ".attention.wk", (8, 8)),
        (prefix + ".attention.wv", (8, 8)), (prefix + ".attention.bv", (8,)),
        (prefix + ".attention.wo", (8, 8)), (prefix + ".attention.bo", (8,)),
        (prefix + ".ln2.gamma", (8,)), (prefix + ".ln2.beta", (8,)),
    ] + _mlp_shapes(prefix + ".feedforward", 8, 16, 8)


def test_parameter_names_and_shapes_are_pinned():
    # checkpoints are keyed by these names: a rename orphans old files
    model = pl.build_model(tiny_config())
    expected = (
        [("encoder.token_emb", (21, 8)), ("encoder.pos_emb", (64, 8))]
        + _block_shapes("encoder.block0")
        + _mlp_shapes("egnn.layer0.message", 17, 8, 8)
        + _mlp_shapes("egnn.layer0.attention", 8, 8, 1)
        + _mlp_shapes("egnn.layer0.feature", 16, 8, 8)
        + _mlp_shapes("egnn.layer0.coord", 17, 8, 1)
        + [("decoder.in_w", (8, 8)), ("decoder.in_b", (8,)), ("decoder.mask_emb", (8,))]
        + _block_shapes("decoder.block0")
        + [("decoder.head_w", (8, 20)), ("decoder.head_b", (20,))]
    )
    assert [(n, t.shape) for n, t in model.named_parameters()] == expected


def _reachable_tensors(obj, found):
    # brute force: every attribute, list, tuple and dict value
    if isinstance(obj, ad.Tensor):
        found.append(obj)
    elif dataclasses.is_dataclass(obj):
        _reachable_tensors(list(vars(obj).values()), found)
    elif isinstance(obj, dict):
        _reachable_tensors(list(obj.values()), found)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _reachable_tensors(item, found)


def test_named_parameters_name_every_reachable_tensor_once():
    model = pl.build_model(tiny_config(enc_depth=2, egnn_depth=2, dec_depth=2))
    found = []
    _reachable_tensors(model, found)
    named = model.named_parameters()
    names = [n for n, _ in named]
    assert len(set(names)) == len(names)
    assert sorted(id(t) for _, t in named) == sorted({id(t) for t in found})
    assert {"encoder.block1.ln2.beta", "egnn.layer1.coord.b2",
            "decoder.block1.feedforward.w2"} <= set(names)


def test_checkpoint_rejects_corruption_and_mismatch(tmp_path, monkeypatch):
    cfg = tiny_config(seed=12)
    model = pl.build_model(cfg)
    path = str(tmp_path / "model.ckpt")
    pl.save_checkpoint(path, model)
    payload = open(path, "rb").read()

    bad_magic = str(tmp_path / "magic.ckpt")
    open(bad_magic, "wb").write(b"NOTAFILE" + payload[8:])
    with pytest.raises(ParseError):
        pl.load_checkpoint(bad_magic, model)

    truncated = str(tmp_path / "short.ckpt")
    open(truncated, "wb").write(payload[:-9])
    with pytest.raises(ParseError):
        pl.load_checkpoint(truncated, model)

    padded = str(tmp_path / "long.ckpt")
    open(padded, "wb").write(payload + b"xx")
    with pytest.raises(ParseError):
        pl.load_checkpoint(padded, model)

    wider = pl.build_model(tiny_config(seed=12, width=12))
    with pytest.raises(ConfigError):
        pl.load_checkpoint(path, wider)

    other_layout = str(tmp_path / "layout.ckpt")
    with monkeypatch.context() as patch:
        patch.setattr(pl, "LAYOUT_VERSION", pl.LAYOUT_VERSION + 1)
        pl.save_checkpoint(other_layout, model)
    with pytest.raises(ConfigError, match="architecture hash"):
        pl.load_checkpoint(other_layout, model)

    not_finite = str(tmp_path / "nan.ckpt")
    model.decoder.head_w.data[0, 0] = np.nan
    pl.save_checkpoint(not_finite, model)
    with pytest.raises(ParseError, match="decoder.head_w"):
        pl.load_checkpoint(not_finite, pl.build_model(cfg))


# ---------------------------------------------------------------------------
# configuration


def test_config_file_override_precedence():
    text = "alpha = 0.3\nwidth = 16   # trailing comment\n\n# full comment\n"
    cfg = pl.build_config(file_text=text)
    assert cfg.alpha == 0.3 and cfg.width == 16

    cfg = pl.build_config(file_text=text, overrides={"alpha": 0.5})
    assert cfg.alpha == 0.5

    with pytest.raises(ConfigError):
        pl.build_config(file_text="bogus_knob = 3\n")
    with pytest.raises(ConfigError):
        pl.build_config(file_text="width = abc\n")
    with pytest.raises(ConfigError):
        pl.build_config(file_text="alpha\n")
    with pytest.raises(ConfigError):
        pl.build_config(overrides={"bogus_knob": 3})


def test_config_with_every_field_changed_round_trips():
    changed = pl.TrainingConfig(
        alpha=0.25, beta=0.5, batch_size=3, base_lr=2.5e-4, warmup_steps=7,
        epochs=5, seed=11, feature_select="inverted", egnn_depth=3, width=12,
        top_k=5, enc_depth=3, dec_depth=1, n_heads=3, max_len=100, radius=4.5,
    )
    for f in dataclasses.fields(pl.TrainingConfig):
        # edge_attrs has one legal value, its default
        if f.name != "edge_attrs":
            assert getattr(changed, f.name) != f.default, f.name
    again = pl.build_config(file_text=pl.format_config(changed))
    assert again == changed
    for f in dataclasses.fields(pl.TrainingConfig):
        assert type(getattr(again, f.name)) is f.type, f.name


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        pl.TrainingConfig(alpha=-1.0)
    with pytest.raises(ConfigError):
        pl.TrainingConfig(alpha=0.0, beta=0.0)
    with pytest.raises(ConfigError):
        pl.TrainingConfig(top_k=0)
    with pytest.raises(ConfigError):
        pl.TrainingConfig(top_k=21)
    with pytest.raises(ConfigError):
        pl.TrainingConfig(feature_select="sideways")
    with pytest.raises(ConfigError):
        pl.TrainingConfig(edge_attrs="distance")
    with pytest.raises(ConfigError, match="retired"):
        pl.TrainingConfig(edge_attrs="seqsep")
    with pytest.raises(ConfigError):
        pl.TrainingConfig(warmup_steps=0)
    with pytest.raises(ConfigError):
        pl.TrainingConfig(epochs=-1)
    with pytest.raises(ConfigError):
        pl.TrainingConfig(base_lr=0.0)
    with pytest.raises(ConfigError):
        pl.TrainingConfig(radius=0.0)


def test_arch_hash_tracks_shape_knobs_only(monkeypatch):
    assert pl.TrainingConfig().arch_hash() == pl.TrainingConfig().arch_hash()
    assert pl.TrainingConfig(alpha=0.9).arch_hash() == pl.TrainingConfig().arch_hash()
    assert pl.TrainingConfig(width=64).arch_hash() != pl.TrainingConfig().arch_hash()
    assert (pl.TrainingConfig(feature_select="inverted").arch_hash()
            != pl.TrainingConfig().arch_hash())
    current = pl.TrainingConfig().arch_hash()
    monkeypatch.setattr(pl, "LAYOUT_VERSION", pl.LAYOUT_VERSION + 1)
    assert pl.TrainingConfig().arch_hash() != current


def test_default_arch_hash_is_pinned():
    # every checkpoint of the default architecture saved so far carries
    # this hash; a change to it orphans them
    assert pl.TrainingConfig().arch_hash() == 0x2353931d


# ---------------------------------------------------------------------------
# synthetic data


def test_synthetic_dataset_spacing_and_determinism():
    data = pl.generate_synthetic_dataset(3, 20, 0.25, seed=13)
    assert len(data) == 3
    for record, motif in data:
        gaps = np.linalg.norm(np.diff(record.ca_coords, axis=0), axis=1)
        assert gaps.min() >= 3.7 - 1e-12
        assert gaps.max() <= 3.9 + 1e-12
        assert motif.size == math.ceil(0.25 * 20)

    again = pl.generate_synthetic_dataset(3, 20, 0.25, seed=13)
    for (r1, m1), (r2, m2) in zip(data, again):
        assert np.array_equal(r1.ca_coords, r2.ca_coords)
        assert np.array_equal(r1.sequence, r2.sequence)
        assert np.array_equal(m1.positions, m2.positions)

    other = pl.generate_synthetic_dataset(3, 20, 0.25, seed=14)
    assert not np.array_equal(data[0][0].ca_coords, other[0][0].ca_coords)


def test_synthetic_residues_follow_curvature_rule():
    # Independent route: bend angle from the law of cosines on each
    # triple of consecutive points, bucketed into twenty residue classes.
    data = pl.generate_synthetic_dataset(2, 15, 0.3, seed=21)
    for record, motif in data:
        x = record.ca_coords
        angles = np.empty(15)
        for i in range(1, 14):
            a = np.linalg.norm(x[i] - x[i - 1])
            b = np.linalg.norm(x[i + 1] - x[i])
            c = np.linalg.norm(x[i + 1] - x[i - 1])
            interior = math.acos(
                max(-1.0, min(1.0, (a * a + b * b - c * c) / (2 * a * b)))
            )
            angles[i] = math.pi - interior
        angles[0] = angles[1]
        angles[14] = angles[13]
        buckets = np.minimum((angles / math.pi * 20).astype(int), 19)
        assert np.array_equal(record.sequence, buckets)

        expected = sorted(
            sorted(range(15), key=lambda i: (-angles[i], i))[: math.ceil(0.3 * 15)]
        )
        assert motif.positions.tolist() == expected


def test_synthetic_contracts_and_generation_failure(monkeypatch):
    with pytest.raises(ContractError):
        pl.generate_synthetic_dataset(1, 4, 0.3, seed=0)
    with pytest.raises(DomainError):
        pl.generate_synthetic_dataset(1, 10, 0.0, seed=0)
    with pytest.raises(DomainError):
        pl.generate_synthetic_dataset(1, 10, 1.0, seed=0)
    # A clash radius no chain can satisfy: two bonds of length < 3.9
    # cannot put the second neighbor 8 apart.
    monkeypatch.setattr(pl, "SYNTH_CLASH_DISTANCE", 8.0)
    monkeypatch.setattr(pl, "SYNTH_MAX_RESTARTS", 3)
    with pytest.raises(GenerationError):
        pl.generate_synthetic_dataset(1, 8, 0.3, seed=0)


# ---------------------------------------------------------------------------
# design


def test_design_all_motif_returns_motif_exactly():
    rng = np.random.default_rng(30)
    coords = np.cumsum(rng.normal(scale=2.0, size=(5, 3)), axis=0)
    motif = pl.Motif(np.arange(5), rng.integers(0, 20, 5), coords)
    model = pl.build_model(tiny_config(seed=31))
    (candidate,) = pl.design(motif, 5, 1, 3, model, seed=0)
    assert np.array_equal(candidate.sequence, motif.residues)
    assert np.array_equal(candidate.coords, motif.coords)


def test_design_preserves_motif_and_varies_elsewhere():
    data = pl.generate_synthetic_dataset(1, 12, 0.3, seed=33)
    _, motif = data[0]
    model = pl.build_model(tiny_config(seed=34))
    candidates = pl.design(motif, 12, 10, 3, model, seed=500)
    assert len(candidates) == 10
    flexible = np.setdiff1d(np.arange(12), motif.positions)
    for cand in candidates:
        assert np.array_equal(cand.sequence[motif.positions], motif.residues)
        assert np.array_equal(cand.coords[motif.positions], motif.coords)
        assert cand.sequence[flexible].max() < 20
        assert np.all(cand.token_probs > 0.0) and np.all(cand.token_probs <= 1.0)
    assert all(cand.seed == 500 for cand in candidates)

    differing = sum(
        1
        for i in range(9)
        if not np.array_equal(
            candidates[i].sequence[flexible], candidates[i + 1].sequence[flexible]
        )
    )
    assert differing >= 8

    unpinned = pl.design(motif, 12, 1, 3, model, seed=500, pin_motif=False)
    assert not np.array_equal(unpinned[0].coords[motif.positions], motif.coords)
    assert np.array_equal(
        unpinned[0].sequence[motif.positions], motif.residues
    )


def test_design_streams_of_neighbouring_seeds_differ():
    # with one stream per seed + index, candidate 1 of seed 7 was
    # candidate 0 of seed 8, bit for bit
    data = pl.generate_synthetic_dataset(1, 12, 0.3, seed=33)
    _, motif = data[0]
    model = pl.build_model(tiny_config(seed=34))
    pair = pl.design(motif, 12, 2, 3, model, seed=7)
    (next_seed,) = pl.design(motif, 12, 1, 3, model, seed=8)
    assert not np.array_equal(pair[1].coords, next_seed.coords)
    (first,) = pl.design(motif, 12, 1, 3, model, seed=7)
    assert np.array_equal(first.coords, pair[0].coords)
    assert np.array_equal(first.sequence, pair[0].sequence)


def test_design_encodes_once_and_matches_the_full_forward(monkeypatch):
    data = pl.generate_synthetic_dataset(1, 12, 0.3, seed=33)
    _, motif = data[0]
    model = pl.build_model(tiny_config(seed=34))
    calls = []

    def counted(*args):
        calls.append(args)
        return encode_context(*args)

    monkeypatch.setattr(pl, "encode_context", counted)
    candidates = pl.design(motif, 12, 3, 3, model, seed=7, pin_motif=False)
    assert len(calls) == 1
    tokens = calls[0][0]
    for index, cand in enumerate(candidates):
        rng = pl.substream(7, "design-%d" % index)
        start = pl.init_backbone_coords(motif, 12, model.config.radius, rng)
        coords, _, _ = pl.forward_with_coords(tokens, start, motif.position_set(), model)
        assert np.array_equal(cand.coords, coords.data)


def test_design_rejects_short_length():
    motif = pl.Motif([0, 8], [1, 2], np.zeros((2, 3)))
    model = pl.build_model(tiny_config())
    with pytest.raises(ContractError):
        pl.design(motif, 6, 1, 3, model, seed=0)
