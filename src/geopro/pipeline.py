"""Joint backbone/sequence model: init, losses, training, and design.

A model couples the sequence encoder, the equivariant coordinate stack,
and the sequence decoder.  Flexible coordinates start on spheres chained
outward from the motif anchors; training balances a coordinate loss and
a residue reconstruction loss; design samples flexible residues from
the decoder under a fixed motif.
"""

import contextlib
import dataclasses
import logging
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import ProteinRecord, content_lines
from .egnn import EgnnModel, GraphState, cast_pair_weights, egnn_forward, init_egnn
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    DomainError,
    GenerationError,
    NumericError,
    ParseError,
)
from .geometry import sample_sphere_point
from .seqmodel import (
    MASK,
    RESIDUE_COUNT,
    ContextEncoder,
    GsdDecoder,
    decode_logits,
    encode_context,
    gsd_feature_select,
    init_context_encoder,
    init_gsd_decoder,
    motif_mask,
    sample_top_k,
    sequence_loss,
)
from . import __version__

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"GEOPRO01"
SIDECAR_SUFFIX = ".config"  # <checkpoint>.config holds the config it was trained under
SYNTH_CLASH_DISTANCE = 3.0
SYNTH_MAX_RESTARTS = 200


def substream(seed, label):
    """Independent generator derived from a base seed and a purpose label."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8"))])
    )


@dataclass
class Motif:
    """The fixed region: positions with their residues and coordinates."""

    positions: np.ndarray
    residues: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.residues = np.asarray(self.residues, dtype=np.int64)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.positions.ndim != 1 or self.positions.shape[0] == 0:
            raise ContractError("motif needs at least one position")
        if np.any(np.diff(self.positions) <= 0):
            raise ContractError("motif positions must be strictly increasing")
        if self.positions[0] < 0:
            raise ContractError("motif positions must be non-negative")
        m = self.positions.shape[0]
        if self.residues.shape != (m,) or self.coords.shape != (m, 3):
            raise ContractError(
                "motif arrays disagree: %d positions, %s residues, %s coords"
                % (m, self.residues.shape, self.coords.shape)
            )
        if self.residues.min() < 0 or self.residues.max() >= RESIDUE_COUNT:
            raise ContractError("motif residues must be amino-acid tokens")

    @property
    def size(self):
        return int(self.positions.shape[0])

    @property
    def span(self):
        return int(self.positions[-1]) + 1

    def position_set(self):
        return set(int(p) for p in self.positions)


def motif_from_record(record, positions):
    """Motif built from a record's residues and coordinates."""
    positions = np.asarray(sorted(set(int(p) for p in positions)), dtype=np.int64)
    outside = positions[(positions < 0) | (positions >= record.length)]
    if outside.size:
        raise ContractError(
            "record %r: motif position %d out of range for length %d"
            % (record.record_id, outside[0], record.length)
        )
    return Motif(
        positions=positions,
        residues=record.sequence[positions],
        coords=record.ca_coords[positions],
    )


_ARCH_FIELDS = (
    "width", "egnn_depth", "enc_depth", "dec_depth", "n_heads", "max_len",
    "feature_select", "edge_attrs",
)
# Hashed with the fields above.  Bump it with any change to the parameter
# layout or meaning that no config field records, so that a checkpoint
# written before the change fails the hash check on load.
LAYOUT_VERSION = 2


@dataclass
class TrainingConfig:
    """Every knob of the model and its training run."""

    alpha: float = 0.1
    beta: float = 1.0
    batch_size: int = 4
    base_lr: float = 1e-7
    warmup_steps: int = 4000
    epochs: int = 10
    seed: int = 0
    # Retired, like edge_attrs below: "inverted" is the only value.  The
    # decoder has no positional embedding, so "as_printed", which gave every
    # flexible row the mask row, gave every flexible row the same logits.
    feature_select: str = "inverted"
    egnn_depth: int = 2
    width: int = 320
    top_k: int = 3
    enc_depth: int = 2
    dec_depth: int = 2
    n_heads: int = 4
    max_len: int = 512
    radius: float = 3.75
    # Retired: "none" is the only value.  The key stays because every sidecar
    # written so far holds "edge_attrs = none", and stays in _ARCH_FIELDS so
    # that arch_hash, and with it every saved checkpoint, keeps its value.
    edge_attrs: str = "none"

    def __post_init__(self):
        for name in ("alpha", "beta", "base_lr", "radius"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.alpha == 0 and self.beta == 0:
            raise ConfigError("at least one loss weight must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if self.warmup_steps < 1:
            raise ConfigError("warmup_steps must be at least 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.feature_select != "inverted":
            raise ConfigError(
                "feature_select is retired and accepts only 'inverted', got %r; a "
                "model trained under another value must be retrained" % self.feature_select
            )
        if self.edge_attrs != "none":
            raise ConfigError(
                "edge_attrs is retired and accepts only 'none', got %r" % self.edge_attrs
            )
        if self.egnn_depth < 0 or self.enc_depth < 0 or self.dec_depth < 0:
            raise ConfigError("egnn_depth, enc_depth and dec_depth must be >= 0")
        if self.width < 1 or self.n_heads < 1 or self.width % self.n_heads != 0:
            raise ConfigError(
                "width must be a positive multiple of n_heads >= 1, got width %d "
                "and n_heads %d" % (self.width, self.n_heads)
            )
        if self.max_len < 1:
            raise ConfigError("max_len must be at least 1")
        if not 1 <= self.top_k <= RESIDUE_COUNT:
            raise ConfigError("top_k must be in [1, %d]" % RESIDUE_COUNT)
        if self.radius <= 0:
            raise ConfigError("radius must be positive")

    def arch_hash(self):
        """Hash over the fields that determine parameter layout and meaning."""
        fields = ["%s=%s" % (k, getattr(self, k)) for k in _ARCH_FIELDS]
        canon = ";".join(["layout=%d" % LAYOUT_VERSION] + fields)
        return zlib.crc32(canon.encode("utf-8"))


# key -> int, float or str, from the annotations of TrainingConfig
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainingConfig)}


def parse_config_text(text):
    """Parse 'key = value' lines; blank lines and '#' comments allowed."""
    out = {}
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, line))
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def build_config(file_text=None, overrides=None):
    """Config from defaults, then file values, then explicit overrides."""
    values = {}
    if file_text is not None:
        for key, raw in parse_config_text(file_text).items():
            values[key] = _convert_config_value(key, raw)
    if overrides:
        for key, val in overrides.items():
            if key not in _FIELD_TYPES:
                raise ConfigError("unknown config key %r" % key)
            values[key] = val
    return TrainingConfig(**values)


def format_config(config):
    """Render a config as `key = value` lines that build_config reparses."""
    lines = []
    for f in dataclasses.fields(config):
        lines.append("%s = %s" % (f.name, getattr(config, f.name)))
    return "\n".join(lines) + "\n"


def _convert_config_value(key, raw):
    if key not in _FIELD_TYPES:
        raise ConfigError("unknown config key %r" % key)
    try:
        return _FIELD_TYPES[key](raw)
    except ValueError:
        raise ConfigError("bad value %r for config key %r" % (raw, key)) from None


@dataclass
class JointModel:
    """Encoder, coordinate stack, and decoder trained together."""

    encoder: ContextEncoder
    egnn: EgnnModel
    decoder: GsdDecoder
    config: TrainingConfig

    def named_parameters(self):
        return list(ad.named_tensors(self))

    @property
    def version(self):
        return "geopro-%s/%08x" % (__version__, self.config.arch_hash())


def build_model(config):
    """Fresh model with weights drawn from the config seed."""
    rng = substream(config.seed, "model-init")
    return JointModel(
        encoder=init_context_encoder(
            rng, config.width, config.enc_depth, config.n_heads, config.max_len
        ),
        egnn=init_egnn(rng, depth=config.egnn_depth, feat_width=config.width),
        decoder=init_gsd_decoder(rng, config.width, config.dec_depth, config.n_heads),
        config=config,
    )


# ---------------------------------------------------------------------------
# coordinate initialization


def placement_plan(motif_positions, length):
    """Order in which flexible positions chain off the placed set.

    Every flexible position is claimed by its nearest motif anchor in
    sequence distance (ties go to the lower-index anchor) and is placed
    relative to its sequence neighbor one step back toward that anchor,
    wave by wave, so the neighbor is always placed first.
    """
    anchors = sorted(int(p) for p in motif_positions)
    if not anchors:
        raise ContractError("at least one anchor position is required")
    if anchors[0] < 0 or anchors[-1] >= length:
        raise ContractError(
            "anchor positions must lie in [0, %d), got %s" % (length, anchors)
        )
    anchor_set = set(anchors)
    plan = []
    for j in range(length):
        if j in anchor_set:
            continue
        best = min(anchors, key=lambda a: (abs(j - a), a))
        center = j - 1 if best < j else j + 1
        plan.append((abs(j - best), j, center))
    plan.sort()
    return [(j, center) for _, j, center in plan]


def init_backbone_coords(motif, length, radius, rng):
    """Motif coordinates verbatim; flexible positions on chained spheres.

    Each flexible position is dropped onto the sphere of the given
    radius around its already-placed neighbor, at polar and azimuthal
    angles drawn uniformly from [0, pi] and [0, 2*pi].
    """
    if length < motif.span:
        raise ContractError(
            "length %d cannot hold a motif spanning %d" % (length, motif.span)
        )
    coords = np.zeros((length, 3))
    coords[motif.positions] = motif.coords
    for j, center in placement_plan(motif.positions, length):
        omega1 = rng.uniform(0.0, np.pi)
        omega2 = rng.uniform(0.0, 2.0 * np.pi)
        coords[j] = sample_sphere_point(coords[center], radius, omega1, omega2)
    return coords


# ---------------------------------------------------------------------------
# losses


def backbone_loss(predicted, target, motif):
    """Sum of squared coordinate errors over flexible positions only.

    ``predicted`` and ``target`` are (…, L, 3); ``motif`` is the
    example's ``Motif``, or a (…, L) bool mask that is True at the motif
    positions.  The result has the leading shape: a scalar for one
    example, (B,) for a stack.
    """
    predicted = ad.as_tensor(predicted)
    target = np.asarray(target.data if isinstance(target, ad.Tensor) else target)
    if target.shape != predicted.shape or target.shape[-1:] != (3,):
        raise ContractError(
            "target shape %s does not match predicted points %s"
            % (target.shape, predicted.shape)
        )
    if isinstance(motif, Motif):
        motif = motif_mask(motif.positions, target.shape[-2])
    motif = np.asarray(motif, dtype=bool)
    if motif.shape != target.shape[:-1]:
        raise ContractError(
            "motif mask shape %s does not match target %s" % (motif.shape, target.shape)
        )
    keep = (~motif)[..., None].astype(np.float64)
    squares = ad.mul(ad.square(ad.sub(predicted, target)), keep)
    return ad.tsum(ad.reshape(squares, target.shape[:-2] + (-1,)), axis=-1)


def total_loss(backbone_term, sequence_term, alpha, beta):
    """Weighted sum of the two training losses."""
    if alpha < 0 or beta < 0:
        raise DomainError("loss weights must be non-negative")
    return ad.add(ad.mul(ad.as_tensor(backbone_term), alpha),
                  ad.mul(ad.as_tensor(sequence_term), beta))


# ---------------------------------------------------------------------------
# forward passes


def refine_and_decode(features, start_coords, motif, model, *, every_row=False):
    """EGNN refinement and decoding of already-encoded features: the one
    forward below the encoder.

    Returns (revised coords, revised features, residue logits).  Taking
    the realized starting coordinates as an argument lets callers apply
    group actions to them directly.  ``features`` is (L, d),
    ``start_coords`` (L, 3) and ``motif`` an (L,) bool mask that is True
    at the motif positions; a stack of B examples adds a leading axis to
    each, and to each output.

    The last EGNN layer updates only the flexible rows, whose features
    ``gsd_feature_select`` keeps, as training does: the logits and the
    flexible rows' coordinates and features are the full graph's, and the
    motif rows' are not.  ``every_row`` updates every row, for a caller
    that reads the motif rows' coordinates or features.
    """
    state = GraphState(ad.as_tensor(start_coords), features)
    out = egnn_forward(state, model.egnn, None if every_row else ~motif)
    selected = gsd_feature_select(out.feats, motif, model.decoder.mask_emb)
    return out.coords, out.feats, decode_logits(selected, model.decoder)


def forward_with_coords(corrupted_tokens, start_coords, motif_positions, model):
    """Encode one example's (L,) corrupted tokens, then ``refine_and_decode``
    from its (L, 3) start coordinates with the motif at
    ``motif_positions``, on the path that training runs."""
    features = encode_context(corrupted_tokens, model.encoder)
    motif = motif_mask(motif_positions, features.shape[-2])
    return refine_and_decode(features, start_coords, motif, model)


@dataclass
class _Stack:
    """B examples of one length L as arrays with a leading batch axis."""

    tokens: np.ndarray  # (B, L) corrupted tokens
    start: np.ndarray  # (B, L, 3) initial coordinates
    motif: np.ndarray  # (B, L) bool, True at the motif positions
    sequences: np.ndarray  # (B, L) true residues
    coords: np.ndarray  # (B, L, 3) true coordinates


def _stack(examples, model, rngs):
    """Mask and initialize B (record, motif) examples of one length;
    example b draws its initial coordinates from ``rngs[b]``."""
    length = examples[0][0].length
    for record, _ in examples:
        if record.length > model.config.max_len:
            raise ContractError(
                "record %r length %d exceeds max_len %d"
                % (record.record_id, record.length, model.config.max_len)
            )
        if record.length != length:
            raise ContractError("a stack holds records of one length")
    motif = np.stack([motif_mask(m.positions, length) for _, m in examples])
    sequences = np.stack([record.sequence for record, _ in examples])
    return _Stack(
        tokens=np.where(motif, sequences, MASK),
        start=np.stack([
            init_backbone_coords(m, length, model.config.radius, rng)
            for (_, m), rng in zip(examples, rngs)
        ]),
        motif=motif,
        sequences=sequences,
        coords=np.stack([record.ca_coords for record, _ in examples]),
    )


def batch_losses(examples, model, rngs):
    """(backbone, sequence, total) losses of B (record, motif) examples,
    each a (B,) tensor in the order of ``examples``.

    The records of each length run as one stacked forward pass.  Records
    of different lengths are not padded to a common one: a stack's pair
    work grows with the square of its longest record, so padding a batch
    of lengths 50, 100, 200 and 300 would more than double the EGNN's
    work.  Example b draws its initial coordinates from ``rngs[b]``.
    """
    groups = {}
    for b, (record, _) in enumerate(examples):
        groups.setdefault(record.length, []).append(b)
    parts = []
    for members in groups.values():
        stack = _stack([examples[b] for b in members], model, [rngs[b] for b in members])
        features = encode_context(stack.tokens, model.encoder)
        coords, _, logits = refine_and_decode(features, stack.start, stack.motif, model)
        parts.append((
            backbone_loss(coords, stack.coords, stack.motif),
            sequence_loss(logits, stack.sequences, stack.motif),
        ))
    l_b, l_s = parts[0]
    if len(parts) > 1:
        order = np.argsort(np.concatenate(list(groups.values())))
        l_b, l_s = (ad.gather_rows(ad.concat([p[k] for p in parts]), order) for k in (0, 1))
    return l_b, l_s, total_loss(l_b, l_s, model.config.alpha, model.config.beta)


def example_losses(record, motif, model, rng):
    """(backbone, sequence, total) loss tensors for one training example:
    ``batch_losses`` of a batch of one."""
    return tuple(ad.reshape(t, ()) for t in batch_losses([(record, motif)], model, [rng]))


# ---------------------------------------------------------------------------
# training


@dataclass
class EpochStats:
    epoch: int
    train_total: float
    train_backbone: float
    train_sequence: float
    valid_total: float = math.nan


def _schedule(config, total_steps):
    """Step-to-lr map, shortening warmup when the run is too brief."""
    if total_steps <= 1:
        return lambda step: config.base_lr
    warmup = min(config.warmup_steps, total_steps // 2)
    if warmup != config.warmup_steps:
        log.info(
            "run of %d steps is too short for %d warmup steps; using %d",
            total_steps, config.warmup_steps, warmup,
        )
    return lambda step: ad.lr_at_step(step, warmup, total_steps, config.base_lr)


def example_rng(seed, record):
    """Initialization stream for one example, identical on every visit.

    Keying the stream by record id rather than by visit order makes the
    training objective a fixed function of the weights, so losses from
    different epochs are directly comparable.
    """
    return substream(seed, "init-%s" % record.record_id)


def train(train_set, config, model, valid_set=None, checkpoint_path=None):
    """Optimize the model in place; returns per-epoch loss statistics.

    Each step runs a mini-batch as one stacked forward pass
    (``batch_losses``), averages its joint losses, backpropagates once,
    and applies one optimizer update at the scheduled rate.  Given a
    checkpoint path, the run always leaves a checkpoint there: the
    weights of the epoch with the best validation loss when there is a
    validation set and at least one epoch, else the final weights.  Each
    save writes ``config`` to the sidecar first, so that a run that fails
    before its first save leaves any older checkpoint with its own sidecar.
    A non-finite validation loss raises ``NumericError``.
    """
    if not train_set:
        raise ContractError("training set is empty")
    params = [t for _, t in model.named_parameters()]
    adam = ad.AdamState(params)
    steps_per_epoch = math.ceil(len(train_set) / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    history = []
    lr_of = _schedule(config, total_steps)
    order_rng = substream(config.seed, "train-order")
    step = 0
    best_valid = math.inf
    for epoch in range(config.epochs):
        order = order_rng.permutation(len(train_set))
        sum_b = sum_s = sum_t = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [train_set[idx] for idx in order[start:start + config.batch_size]]
            rngs = [example_rng(config.seed, record) for record, _ in batch]
            with ad.Tape() as tape:
                l_b, l_s, l_total = batch_losses(batch, model, rngs)
                for (record, _), lb, ls, lt in zip(batch, l_b.data, l_s.data, l_total.data):
                    if not math.isfinite(lt):
                        raise NumericError(
                            "non-finite loss at step %d on example %r"
                            % (step, record.record_id)
                        )
                    sum_b += float(lb)
                    sum_s += float(ls)
                    sum_t += float(lt)
                tape.backward(ad.mul(ad.tsum(l_total), 1.0 / len(batch)))
            step += 1
            ad.adam_step(adam, lr_of(step))
        n = len(train_set)
        stats = EpochStats(
            epoch=epoch,
            train_total=sum_t / n,
            train_backbone=sum_b / n,
            train_sequence=sum_s / n,
        )
        if valid_set:
            stats.valid_total = evaluate_loss(valid_set, model)
            if not math.isfinite(stats.valid_total):
                raise NumericError("non-finite validation loss after epoch %d" % epoch)
            if checkpoint_path is not None and stats.valid_total < best_valid:
                best_valid = stats.valid_total
                _save_with_sidecar(checkpoint_path, config, model)
        history.append(stats)
    if checkpoint_path is not None and not (valid_set and history):
        _save_with_sidecar(checkpoint_path, config, model)
    return history


def _save_with_sidecar(path, config, model):
    write_atomic(path + SIDECAR_SUFFIX, format_config(config))
    save_checkpoint(path, model)


def evaluate_loss(dataset, model):
    """Mean joint loss over a dataset, without touching any gradients."""
    if not dataset:
        raise ContractError("cannot evaluate on an empty dataset")
    total = 0.0
    size = model.config.batch_size
    for start in range(0, len(dataset), size):
        batch = dataset[start:start + size]
        rngs = [example_rng(model.config.seed, record) for record, _ in batch]
        for value in batch_losses(batch, model, rngs)[2].data:
            total += float(value)
    return total / len(dataset)


# ---------------------------------------------------------------------------
# design


@dataclass
class DesignCandidate:
    """One sampled sequence with its predicted coordinates.

    ``seed`` is the base seed of the ``design`` call; the candidate's
    position in the returned list selects its stream.
    """

    sequence: np.ndarray
    coords: np.ndarray
    token_probs: np.ndarray
    seed: int
    model_version: str

    def __post_init__(self):
        self.sequence = np.asarray(self.sequence, dtype=np.int64)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.token_probs = np.asarray(self.token_probs, dtype=np.float64)
        n = self.sequence.shape[0]
        if self.coords.shape != (n, 3) or self.token_probs.shape != (n,):
            raise ContractError("candidate arrays disagree in length")


def design(motif, length, n_candidates, k, model, seed, pin_motif=True):
    """Sample candidate designs conditioned on the motif.

    Candidate ``index`` gets its own generator,
    ``substream(seed, "design-<index>")``, so that it depends only on
    (seed, index) and never repeats a candidate of another seed.  Each
    candidate then gets a fresh spherical initialization, one forward
    pass of the coordinate stack and decoder over the once-encoded masked
    sequence, and independent per-position draws from the renormalized
    top-k of each flexible logit row.  Motif residues are copied verbatim;
    ``pin_motif`` also copies the motif coordinates over the predicted
    ones.  Without it the motif rows' predicted coordinates are output,
    so the forward updates every row.

    The EGNN pair kernels compute in float32, on a copy of their weights
    cast once per call (``egnn.cast_pair_weights``); the encoder, the
    feature MLPs, the decoder and the coordinates stay float64.
    """
    if length < motif.span:
        raise ContractError(
            "length %d cannot hold a motif spanning %d" % (length, motif.span)
        )
    tokens = np.full(length, MASK, dtype=np.int64)
    tokens[motif.positions] = motif.residues
    fixed = motif_mask(motif.positions, length)
    flexible = np.flatnonzero(~fixed)
    features = encode_context(tokens, model.encoder)
    kernel_model = dataclasses.replace(model, egnn=cast_pair_weights(model.egnn, np.float32))
    out = []
    for index in range(n_candidates):
        rng = substream(seed, "design-%d" % index)
        start = init_backbone_coords(motif, length, model.config.radius, rng)
        coords, _, logits = refine_and_decode(features, start, fixed, kernel_model,
                                              every_row=not pin_motif)
        probs = ad.softmax(logits).data
        sequence = tokens.copy()
        for j in flexible:
            sequence[j] = sample_top_k(logits.data[j], k, rng)
        final_coords = coords.data.copy()
        if pin_motif:
            final_coords[motif.positions] = motif.coords
        out.append(
            DesignCandidate(
                sequence=sequence,
                coords=final_coords,
                token_probs=probs[np.arange(length), sequence],
                seed=seed,
                model_version=model.version,
            )
        )
    return out


# ---------------------------------------------------------------------------
# synthetic data


def _bend_angles(coords):
    """Interior bend angle at each position, ends copying their neighbor."""
    v = np.diff(coords, axis=0)
    unit = v / np.linalg.norm(v, axis=1, keepdims=True)
    cos = np.sum(unit[:-1] * unit[1:], axis=1)
    inner = np.arccos(np.clip(cos, -1.0, 1.0))
    return np.concatenate([[inner[0]], inner, [inner[-1]]])


def curvature_tokens(coords):
    """Residue tokens derived from bend-angle buckets of the backbone."""
    buckets = np.minimum(
        (_bend_angles(coords) / np.pi * RESIDUE_COUNT).astype(np.int64),
        RESIDUE_COUNT - 1,
    )
    return buckets


def motif_rule_positions(coords, motif_frac):
    """The most strongly bent ceil(motif_frac * L) positions, sorted."""
    length = coords.shape[0]
    count = math.ceil(motif_frac * length)
    angles = _bend_angles(coords)
    order = np.lexsort((np.arange(length), -angles))
    return np.sort(order[:count])


def generate_synthetic_dataset(n, length, motif_frac, seed):
    """Self-avoiding chains whose sequence follows backbone curvature.

    Consecutive points are 3.7 to 3.9 apart; any new point closer than
    ``SYNTH_CLASH_DISTANCE`` to an earlier one restarts the chain, at
    most ``SYNTH_MAX_RESTARTS`` times.  Residues
    are the curvature buckets of their position, and the motif marks the
    most strongly bent positions, so structure determines sequence.
    """
    if length < 5:
        raise ContractError("length must be at least 5, got %d" % length)
    if not 0.0 < motif_frac < 1.0:
        raise DomainError("motif_frac must be in (0, 1), got %r" % motif_frac)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        coords = _self_avoiding_chain(length, rng)
        record = ProteinRecord(
            record_id="syn%03d" % i,
            sequence=curvature_tokens(coords),
            ca_coords=coords,
        )
        motif = motif_from_record(record, motif_rule_positions(coords, motif_frac))
        out.append((record, motif))
    return out


def _self_avoiding_chain(length, rng):
    for _ in range(SYNTH_MAX_RESTARTS):
        coords = np.zeros((length, 3))
        direction = _unit(rng.normal(size=3))
        ok = True
        for j in range(1, length):
            placed = False
            for _ in range(40):
                candidate_dir = _unit(direction + 0.8 * rng.normal(size=3))
                step = rng.uniform(3.7, 3.9)
                candidate = coords[j - 1] + step * candidate_dir
                gaps = np.linalg.norm(coords[: max(j - 1, 0)] - candidate, axis=1)
                if gaps.size == 0 or gaps.min() >= SYNTH_CLASH_DISTANCE:
                    coords[j] = candidate
                    direction = candidate_dir
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok:
            return coords
    raise GenerationError(
        "could not build a self-avoiding chain of length %d after %d restarts"
        % (length, SYNTH_MAX_RESTARTS)
    )


def _unit(v):
    return v / max(np.linalg.norm(v), 1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def write_atomic(path, content):
    """Write ``content`` to ``path`` through a temporary file and a rename,
    so that no reader sees a partial file.

    ``content`` is text, written as UTF-8, a bytes-like object, or an
    iterable of bytes-like pieces, written in order, so that a large file
    is never joined in memory.  The temporary file gets a fresh name next
    to ``path`` from ``tempfile.mkstemp``, so that no existing file is
    touched, and the mode ``open`` would give a new file, not mkstemp's
    0600.  An ``OSError`` becomes a ``DataError``; on any error the
    temporary file is removed.
    """
    if isinstance(content, str):
        content = content.encode("utf-8")
    if isinstance(content, (bytes, bytearray, memoryview)):
        content = [content]
    head, tail = os.path.split(path)
    done = False
    try:
        handle, tmp = tempfile.mkstemp(prefix="%s.tmp." % tail, dir=head or ".")
        try:
            with os.fdopen(handle, "wb") as out:
                os.fchmod(out.fileno(), 0o666 & ~_umask())
                for piece in content:
                    out.write(piece)
            os.replace(tmp, path)
            done = True
        finally:
            if not done:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc.strerror or exc)) from None


def _umask():
    """The process's file mode creation mask.  It can only be read by
    setting it, so it is set to the strictest mask for that instant: a
    file another thread creates then gets fewer permissions, never more."""
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def make_dirs(path):
    """Create the directory ``path`` and any missing parents.

    An ``OSError`` becomes a ``DataError``.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError("cannot create directory %s: %s" % (path, exc)) from None


def check_writable(path):
    """Raise ``DataError``, naming ``path``, unless ``write_atomic`` can
    write it: a probe file of a fresh name is made next to it, where
    ``write_atomic`` makes its temporary file, and removed, so that no
    existing file is touched.  Lets a command refuse an output before a
    long run."""
    if os.path.isdir(path):
        raise DataError("cannot write %s: it is a directory" % path)
    head, tail = os.path.split(path)
    try:
        handle, probe = tempfile.mkstemp(prefix="%s.probe." % tail, dir=head or ".")
        os.close(handle)
        os.remove(probe)
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc.strerror or exc)) from None


def save_checkpoint(path, model):
    """Write all parameters plus the architecture hash, atomically.

    Each tensor's header and then its array go to ``write_atomic`` one
    tensor at a time; an array that is C-contiguous little-endian
    float64, as the model's are, is written without a copy.
    """
    named = model.named_parameters()

    def pieces():
        yield CHECKPOINT_MAGIC + struct.pack("<I", len(named))
        for name, tensor in named:
            encoded = name.encode("utf-8")
            arr = np.ascontiguousarray(tensor.data, dtype="<f8")
            yield (struct.pack("<H", len(encoded)) + encoded
                   + struct.pack("<B%dI" % arr.ndim, arr.ndim, *arr.shape))
            yield memoryview(arr)
        yield struct.pack("<I", model.config.arch_hash())

    write_atomic(path, pieces())
    log.info("saved checkpoint with %d tensors to %s", len(named), path)


# Values per read of the finiteness check of ``load_checkpoint``: 64 KB.
_CHECK_VALUES = 2 ** 13


def load_checkpoint(path, model):
    """Load parameters saved for the same architecture into the model.

    All or nothing, in about one model's memory.  A first pass over the
    file checks everything before any model array is written: the
    headers, each tensor's size against the bytes left in the file, the
    finiteness of every value, read through one small buffer, then the
    architecture hash, the names and the shapes.  A second pass reads
    each tensor into the model's own array, or into a fresh one where that
    array is not a writable, C-contiguous float64 array; it can fail only
    if the file changes, or its reads fail, between the two passes.
    """
    try:
        with open(path, "rb") as handle:
            tensors = _check_checkpoint(handle, model)
            for name, tensor in model.named_parameters():
                start, dims, _ = tensors[name]
                arr = tensor.data
                if not (arr.flags.writeable and arr.flags.c_contiguous
                        and arr.dtype == np.dtype("<f8")):
                    arr = np.empty(dims, dtype="<f8")
                handle.seek(start)
                # short only if the file changed since the first pass
                if handle.readinto(arr) != arr.nbytes:
                    raise ParseError("checkpoint file is truncated")
                tensor.data = arr
    except OSError as exc:
        raise DataError("cannot read checkpoint %s: %s" % (path, exc)) from None
    return model


def _check_checkpoint(handle, model):
    """The first pass of ``load_checkpoint`` over the open file: raise a
    ``ParseError``, ``ConfigError`` or ``DimensionError`` unless the file
    holds the model's tensors, else return {name: (offset, dims, finite)}.

    Tensor sizes are Python ints, checked against the bytes left in the
    file before anything is read, so that no header can claim a size that
    wraps around or that is allocated.  A name that occurs twice takes its
    last tensor.
    """
    file_size = os.fstat(handle.fileno()).st_size
    if handle.read(8) != CHECKPOINT_MAGIC:
        raise ParseError("not a checkpoint file: bad magic bytes")
    buffer = np.empty(0, dtype="<f8")
    tensors = {}
    try:
        (count,) = struct.unpack("<I", handle.read(4))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", handle.read(2))
            name = handle.read(name_len).decode("utf-8")
            (rank,) = struct.unpack("<B", handle.read(1))
            dims = struct.unpack("<%dI" % rank, handle.read(4 * rank))
            start, left = handle.tell(), math.prod(dims)
            if 8 * left > file_size - start:
                raise ParseError("checkpoint file is truncated")
            if buffer.size < min(left, _CHECK_VALUES):
                buffer = np.empty(min(left, _CHECK_VALUES), dtype="<f8")
            finite = True
            while left:
                chunk = buffer[:min(left, buffer.size)]
                if handle.readinto(chunk) != chunk.nbytes:
                    raise ParseError("checkpoint file is truncated")
                finite = finite and bool(np.isfinite(chunk).all())
                left -= chunk.size
            tensors[name] = (start, dims, finite)
        (stored_hash,) = struct.unpack("<I", handle.read(4))
    except (struct.error, UnicodeDecodeError):
        raise ParseError("checkpoint file is truncated") from None
    if handle.tell() != file_size:
        raise ParseError("checkpoint has %d trailing bytes" % (file_size - handle.tell()))
    for name, (_, _, finite) in tensors.items():
        if not finite:
            raise ParseError("checkpoint tensor %r holds non-finite values" % name)
    if stored_hash != model.config.arch_hash():
        raise ConfigError(
            "checkpoint architecture hash %08x does not match model %08x"
            % (stored_hash, model.config.arch_hash())
        )
    named = dict(model.named_parameters())
    if set(named) != set(tensors):
        missing = sorted(set(named) - set(tensors))
        extra = sorted(set(tensors) - set(named))
        raise ConfigError(
            "checkpoint tensors do not match model: missing %s, unexpected %s"
            % (missing, extra)
        )
    for name, tensor in named.items():
        _, dims, _ = tensors[name]
        if dims != tensor.data.shape:
            raise DimensionError(
                "tensor %r has shape %s in checkpoint, model expects %s"
                % (name, dims, tensor.data.shape)
            )
    return tensors
