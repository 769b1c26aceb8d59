"""Sequence encoder, masked-feature selection, decoder, loss, sampling.

The encoder turns a partially masked residue sequence into per-position
feature vectors; the decoder turns selected feature rows into residue
logits.  Everything runs on the autodiff tensor type so training can
differentiate through it.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .egnn import MlpParams, glorot_uniform, init_mlp, mlp_forward
from .errors import ConfigError, ContractError, DataError, DimensionError

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
MASK = 20
PAD = 21
VOCAB_SIZE = 22
RESIDUE_COUNT = 20

_RESIDUE_TO_INDEX = {ch: i for i, ch in enumerate(AMINO_ACIDS)}
_LN_EPS = 1e-5
_KEY_BIAS = -1e9


def encode_sequence(residues):
    """Residue string to an int token array."""
    out = np.empty(len(residues), dtype=np.int64)
    for i, ch in enumerate(residues):
        idx = _RESIDUE_TO_INDEX.get(ch)
        if idx is None:
            raise DataError("unknown residue character %r at position %d" % (ch, i))
        out[i] = idx
    return out


def decode_sequence(tokens):
    """Token array back to a residue string; residues only."""
    tokens = np.asarray(tokens)
    out = []
    for i, idx in enumerate(tokens):
        if not 0 <= idx < RESIDUE_COUNT:
            raise ContractError(
                "token %d at position %d is not an amino acid" % (idx, i)
            )
        out.append(AMINO_ACIDS[idx])
    return "".join(out)


def corrupt_sequence(tokens, motif_seq_positions):
    """Mask every position that is not part of the kept set."""
    tokens = np.asarray(tokens, dtype=np.int64)
    keep = np.asarray(sorted(motif_seq_positions), dtype=np.int64)
    if keep.size and (keep.min() < 0 or keep.max() >= tokens.shape[0]):
        raise ContractError(
            "motif position out of range for sequence of length %d" % tokens.shape[0]
        )
    out = np.full_like(tokens, MASK)
    out[keep] = tokens[keep]
    return out


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class LayerNormParams:
    gamma: ad.Tensor
    beta: ad.Tensor

    def named_tensors(self, prefix):
        return [(prefix + ".gamma", self.gamma), (prefix + ".beta", self.beta)]


@dataclass
class AttentionParams:
    # The key projection carries no bias: a constant added to every key
    # shifts each row of attention scores uniformly, which the softmax
    # cancels, so such a bias could never receive gradient.
    wq: ad.Tensor
    bq: ad.Tensor
    wk: ad.Tensor
    wv: ad.Tensor
    bv: ad.Tensor
    wo: ad.Tensor
    bo: ad.Tensor
    n_heads: int

    def __post_init__(self):
        width = self.wq.shape[0]
        if width % self.n_heads != 0:
            raise ConfigError(
                "feature width %d not divisible by %d heads" % (width, self.n_heads)
            )

    def named_tensors(self, prefix):
        pairs = (
            ("wq", self.wq), ("bq", self.bq), ("wk", self.wk),
            ("wv", self.wv), ("bv", self.bv), ("wo", self.wo), ("bo", self.bo),
        )
        return [("%s.%s" % (prefix, n), t) for n, t in pairs]


@dataclass
class TransformerBlock:
    ln1: LayerNormParams
    attention: AttentionParams
    ln2: LayerNormParams
    feedforward: MlpParams

    def named_tensors(self, prefix):
        out = self.ln1.named_tensors(prefix + ".ln1")
        out += self.attention.named_tensors(prefix + ".attention")
        out += self.ln2.named_tensors(prefix + ".ln2")
        out += self.feedforward.named_tensors(prefix + ".feedforward")
        return out


@dataclass
class ContextEncoder:
    """Token plus learned positional embeddings through attention blocks."""

    token_emb: ad.Tensor
    pos_emb: ad.Tensor
    blocks: list
    width: int

    def __post_init__(self):
        if self.token_emb.shape != (VOCAB_SIZE, self.width):
            raise DimensionError(
                "token embedding must be (%d, %d), got %s"
                % (VOCAB_SIZE, self.width, (self.token_emb.shape,))
            )
        if self.pos_emb.data.ndim != 2 or self.pos_emb.shape[1] != self.width:
            raise DimensionError("positional embedding width mismatch")

    @property
    def max_len(self):
        return self.pos_emb.shape[0]

    def named_parameters(self):
        out = [("encoder.token_emb", self.token_emb), ("encoder.pos_emb", self.pos_emb)]
        for k, block in enumerate(self.blocks):
            out += block.named_tensors("encoder.block%d" % k)
        return out


@dataclass
class GsdDecoder:
    """Projects selected feature rows through blocks to residue logits.

    Carries the learned replacement row used when a position's features
    are withheld.  Deliberately has no positional embeddings: every bit
    of position information must arrive through the input features.
    """

    in_w: ad.Tensor
    in_b: ad.Tensor
    blocks: list
    head_w: ad.Tensor
    head_b: ad.Tensor
    mask_emb: ad.Tensor
    width: int

    def __post_init__(self):
        if self.head_w.shape[1] != RESIDUE_COUNT or self.head_b.shape != (RESIDUE_COUNT,):
            raise DimensionError(
                "decoder head must emit exactly %d classes" % RESIDUE_COUNT
            )
        if self.mask_emb.shape != (self.width,):
            raise DimensionError("mask embedding must be a width-%d vector" % self.width)

    def named_parameters(self):
        out = [
            ("decoder.in_w", self.in_w),
            ("decoder.in_b", self.in_b),
            ("decoder.mask_emb", self.mask_emb),
        ]
        for k, block in enumerate(self.blocks):
            out += block.named_tensors("decoder.block%d" % k)
        out += [("decoder.head_w", self.head_w), ("decoder.head_b", self.head_b)]
        return out


# ---------------------------------------------------------------------------
# initialization


def _init_layer_norm(width):
    return LayerNormParams(
        gamma=ad.Tensor(np.ones(width), requires_grad=True),
        beta=ad.Tensor(np.zeros(width), requires_grad=True),
    )


def _init_attention(rng, width, n_heads):
    def w():
        return ad.Tensor(glorot_uniform(rng, width, width), requires_grad=True)

    def b():
        return ad.Tensor(np.zeros(width), requires_grad=True)

    return AttentionParams(w(), b(), w(), w(), b(), w(), b(), n_heads=n_heads)


def _init_block(rng, width, n_heads):
    return TransformerBlock(
        ln1=_init_layer_norm(width),
        attention=_init_attention(rng, width, n_heads),
        ln2=_init_layer_norm(width),
        feedforward=init_mlp(rng, width, 2 * width, width),
    )


def init_context_encoder(rng, width, depth=2, n_heads=4, max_len=512):
    if width % n_heads != 0:
        raise ConfigError("width %d not divisible by %d heads" % (width, n_heads))
    return ContextEncoder(
        token_emb=ad.Tensor(rng.normal(scale=0.1, size=(VOCAB_SIZE, width)), requires_grad=True),
        pos_emb=ad.Tensor(rng.normal(scale=0.1, size=(max_len, width)), requires_grad=True),
        blocks=[_init_block(rng, width, n_heads) for _ in range(depth)],
        width=width,
    )


def init_gsd_decoder(rng, width, depth=2, n_heads=4):
    if width % n_heads != 0:
        raise ConfigError("width %d not divisible by %d heads" % (width, n_heads))
    return GsdDecoder(
        in_w=ad.Tensor(glorot_uniform(rng, width, width), requires_grad=True),
        in_b=ad.Tensor(np.zeros(width), requires_grad=True),
        blocks=[_init_block(rng, width, n_heads) for _ in range(depth)],
        # A small head keeps initial predictions near uniform, so early
        # training is not spent climbing out of saturated class scores.
        head_w=ad.Tensor(
            glorot_uniform(rng, width, RESIDUE_COUNT, scale=0.01), requires_grad=True
        ),
        head_b=ad.Tensor(np.zeros(RESIDUE_COUNT), requires_grad=True),
        mask_emb=ad.Tensor(rng.normal(scale=0.1, size=width), requires_grad=True),
        width=width,
    )


# ---------------------------------------------------------------------------
# forward passes


def layer_norm(x, params):
    centered = ad.sub(x, ad.tmean(x, axis=-1, keepdims=True))
    variance = ad.tmean(ad.square(centered), axis=-1, keepdims=True)
    normalized = ad.div(centered, ad.sqrt(ad.add(variance, _LN_EPS)))
    return ad.add(ad.mul(normalized, params.gamma), params.beta)


def attention_forward(x, params, key_bias=None):
    """Multi-head self-attention over an (L, d) input.

    ``key_bias`` is an optional (L,) additive score bias letting callers
    shut padded positions out of every softmax.
    """
    length, width = x.shape
    heads = params.n_heads
    head_width = width // heads

    def split(t):
        return ad.transpose(ad.reshape(t, (length, heads, head_width)), (1, 0, 2))

    q = split(ad.add(ad.matmul(x, params.wq), params.bq))
    k = split(ad.matmul(x, params.wk))
    v = split(ad.add(ad.matmul(x, params.wv), params.bv))
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(head_width))
    if key_bias is not None:
        scores = ad.add(scores, np.asarray(key_bias).reshape(1, 1, length))
    mixed = ad.matmul(ad.softmax(scores), v)
    merged = ad.reshape(ad.transpose(mixed, (1, 0, 2)), (length, width))
    return ad.add(ad.matmul(merged, params.wo), params.bo)


def block_forward(x, block, key_bias=None):
    x = ad.add(x, attention_forward(layer_norm(x, block.ln1), block.attention, key_bias))
    return ad.add(x, mlp_forward(block.feedforward, layer_norm(x, block.ln2)))


def encode_context(tokens, encoder):
    """Run a token sequence through the encoder; returns (L, d) features.

    Padding tokens are excluded from every attention softmax, so the
    features at real positions do not depend on how much padding trails
    the sequence.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.shape[0] == 0:
        raise ContractError("tokens must be a non-empty 1-D sequence")
    length = tokens.shape[0]
    if length > encoder.max_len:
        raise ContractError(
            "sequence length %d exceeds encoder capacity %d" % (length, encoder.max_len)
        )
    if tokens.min() < 0 or tokens.max() >= VOCAB_SIZE:
        raise ContractError("token index outside the vocabulary")
    key_bias = np.where(tokens == PAD, _KEY_BIAS, 0.0)
    if not np.any(tokens == PAD):
        key_bias = None
    x = ad.add(
        ad.gather_rows(encoder.token_emb, tokens),
        ad.gather_rows(encoder.pos_emb, np.arange(length)),
    )
    for block in encoder.blocks:
        x = block_forward(x, block, key_bias)
    return x


def gsd_feature_select(features, motif_seq_positions, mask_emb, mode="as_printed"):
    """Choose which rows keep their features and which get the mask row.

    ``as_printed`` keeps the rows listed in ``motif_seq_positions`` and
    replaces every other row with the learned mask embedding;
    ``inverted`` does the opposite.
    """
    if mode not in ("as_printed", "inverted"):
        raise ConfigError("feature_select mode must be 'as_printed' or 'inverted'")
    length = features.shape[0]
    keep = np.zeros((length, 1))
    idx = np.asarray(sorted(motif_seq_positions), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= length):
        raise ContractError("motif position out of range for %d rows" % length)
    keep[idx] = 1.0
    if mode == "inverted":
        keep = 1.0 - keep
    replaced = ad.mul(ad.reshape(mask_emb, (1, mask_emb.shape[0])), 1.0 - keep)
    return ad.add(ad.mul(features, keep), replaced)


def decode_logits(selected, decoder, key_bias=None):
    """Selected feature rows to per-position residue logits (L, 20)."""
    x = ad.add(ad.matmul(selected, decoder.in_w), decoder.in_b)
    for block in decoder.blocks:
        x = block_forward(x, block, key_bias)
    return ad.add(ad.matmul(x, decoder.head_w), decoder.head_b)


def sequence_loss(logits, target, motif_seq_positions):
    """Negative log likelihood summed over non-motif positions.

    Positions in ``motif_seq_positions`` contribute nothing.  A mask or
    pad token at a scored position is a caller bug and is rejected.
    """
    target = np.asarray(target, dtype=np.int64)
    length = logits.shape[0]
    if target.shape != (length,):
        raise ContractError(
            "target length %s does not match %d logit rows" % (target.shape, length)
        )
    keep = np.ones(length, dtype=bool)
    idx = np.asarray(sorted(motif_seq_positions), dtype=np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= length:
            raise ContractError("motif position out of range for %d rows" % length)
        keep[idx] = False
    scored = np.flatnonzero(keep)
    if scored.size == 0:
        return ad.Tensor(0.0)
    if np.any(target[scored] >= RESIDUE_COUNT):
        raise ContractError("scored positions must hold amino-acid tokens")
    log_probs = ad.log_softmax(ad.gather_rows(logits, scored))
    onehot = np.zeros((scored.size, RESIDUE_COUNT))
    onehot[np.arange(scored.size), target[scored]] = 1.0
    return ad.neg(ad.tsum(ad.mul(log_probs, onehot)))


def top_k_probs(logits_row, k):
    """Indices of the k best classes and their renormalized probabilities.

    Ties at the cut boundary go to the lower token index.
    """
    row = np.asarray(logits_row, dtype=np.float64)
    if row.ndim != 1:
        raise DimensionError("logits_row must be 1-D, got shape %s" % (row.shape,))
    if not 1 <= k <= row.shape[0]:
        raise ContractError("k must be in [1, %d], got %d" % (row.shape[0], k))
    order = np.argsort(-row, kind="stable")
    top = order[:k]
    shifted = row[top] - row[top].max()
    weights = np.exp(shifted)
    return top, weights / weights.sum()


def sample_top_k(logits_row, k, rng):
    """Draw one class from the renormalized top-k of a logit row."""
    top, probs = top_k_probs(logits_row, k)
    return int(rng.choice(top, p=probs))
