"""Sequence encoder, masked-feature selection, decoder, loss, sampling.

The encoder turns a partially masked residue sequence into per-position
feature vectors; the decoder turns selected feature rows into residue
logits.  Everything runs on the autodiff tensor type so training can
differentiate through it.  A stack of B sequences of one length L is
the arrays of one sequence with a leading batch axis: (B, L) tokens and
motif masks, (B, L, d) features, (B, L, 20) logits.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .egnn import MlpParams, glorot_uniform, init_mlp, mlp_forward
from .errors import ConfigError, ContractError, DataError, DimensionError

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
MASK = 20
VOCAB_SIZE = 21
RESIDUE_COUNT = 20

_RESIDUE_TO_INDEX = {ch: i for i, ch in enumerate(AMINO_ACIDS)}
_LN_EPS = 1e-5


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


def motif_mask(motif_seq_positions, length):
    """(L,) bool mask of one sequence that is True at the motif positions.

    A position outside [0, L) raises ``ContractError``.
    """
    idx = np.fromiter(motif_seq_positions, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= length):
        raise ContractError("motif position out of range for length %d" % length)
    mask = np.zeros(length, dtype=bool)
    mask[idx] = True
    return mask


def corrupt_sequence(tokens, motif_seq_positions):
    """Mask every position that is not part of the kept set."""
    tokens = np.asarray(tokens, dtype=np.int64)
    return np.where(motif_mask(motif_seq_positions, tokens.shape[0]), tokens, MASK)


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class LayerNormParams:
    gamma: ad.Tensor
    beta: ad.Tensor


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
        if self.n_heads < 1:
            raise ConfigError("n_heads must be at least 1, got %d" % self.n_heads)
        if width % self.n_heads != 0:
            raise ConfigError(
                "feature width %d not divisible by %d heads" % (width, self.n_heads)
            )


@dataclass
class TransformerBlock:
    ln1: LayerNormParams
    attention: AttentionParams
    ln2: LayerNormParams
    feedforward: MlpParams


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


@dataclass
class GsdDecoder:
    """Projects selected feature rows through blocks to residue logits.

    Carries the learned replacement row used when a position's features
    are withheld.  Deliberately has no positional embeddings: every bit
    of position information must arrive through the input features.
    """

    in_w: ad.Tensor
    in_b: ad.Tensor
    mask_emb: ad.Tensor
    blocks: list
    head_w: ad.Tensor
    head_b: ad.Tensor
    width: int

    def __post_init__(self):
        if self.head_w.shape[1] != RESIDUE_COUNT or self.head_b.shape != (RESIDUE_COUNT,):
            raise DimensionError(
                "decoder head must emit exactly %d classes" % RESIDUE_COUNT
            )
        if self.mask_emb.shape != (self.width,):
            raise DimensionError("mask embedding must be a width-%d vector" % self.width)


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


def init_context_encoder(rng, width, depth, n_heads, max_len):
    return ContextEncoder(
        token_emb=ad.Tensor(rng.normal(scale=0.1, size=(VOCAB_SIZE, width)),
                            requires_grad=True),
        pos_emb=ad.Tensor(rng.normal(scale=0.1, size=(max_len, width)), requires_grad=True),
        blocks=[_init_block(rng, width, n_heads) for _ in range(depth)],
        width=width,
    )


def init_gsd_decoder(rng, width, depth, n_heads):
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


def attention_forward(x, params):
    """Multi-head self-attention within each sequence: ``x`` is (L, d), or
    (B, L, d) for a stack of sequences."""
    length, width = x.shape[-2:]
    heads = params.n_heads
    head_width = width // heads

    def split(t):
        return ad.transpose(ad.reshape(t, (-1, length, heads, head_width)), (0, 2, 1, 3))

    q = split(ad.add(ad.matmul(x, params.wq), params.bq))
    k = split(ad.matmul(x, params.wk))
    v = split(ad.add(ad.matmul(x, params.wv), params.bv))
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(head_width))
    mixed = ad.matmul(ad.softmax(scores), v)
    merged = ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), x.shape)
    return ad.add(ad.matmul(merged, params.wo), params.bo)


def block_forward(x, block):
    x = ad.add(x, attention_forward(layer_norm(x, block.ln1), block.attention))
    return ad.add(x, mlp_forward(block.feedforward, layer_norm(x, block.ln2)))


def encode_context(tokens, encoder):
    """Run an (L,) token sequence, or a (B, L) stack of them, through the
    encoder; returns (L, d), or (B, L, d), features."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim not in (1, 2) or tokens.size == 0:
        raise ContractError(
            "tokens must be a non-empty (L,) sequence or (B, L) stack of them"
        )
    length = tokens.shape[-1]
    if length > encoder.max_len:
        raise ContractError(
            "sequence length %d exceeds encoder capacity %d" % (length, encoder.max_len)
        )
    if tokens.min() < 0 or tokens.max() >= VOCAB_SIZE:
        raise ContractError("token index outside the vocabulary")
    x = ad.add(
        ad.gather_rows(encoder.token_emb, tokens),
        ad.gather_rows(encoder.pos_emb, np.arange(length)),
    )
    for block in encoder.blocks:
        x = block_forward(x, block)
    return x


def gsd_feature_select(features, motif, mask_emb):
    """Give the decoder the features of the flexible positions and the
    learned mask row at the motif positions.

    ``motif`` is a bool mask shaped like ``features`` without its last
    axis, True at the motif positions.  The decoder has no positional
    embedding, so the flexible rows must keep their features: with the
    mask row there, every flexible row would get the same logits.
    """
    motif = np.asarray(motif, dtype=bool)
    if motif.shape != features.shape[:-1]:
        raise ContractError(
            "motif mask shape %s does not match features %s" % (motif.shape, features.shape)
        )
    keep = (~motif)[..., None].astype(np.float64)
    return ad.add(ad.mul(features, keep), ad.mul(mask_emb, 1.0 - keep))


def decode_logits(selected, decoder):
    """Selected feature rows, (L, d) or (B, L, d), to per-position residue
    logits, (L, 20) or (B, L, 20)."""
    x = ad.add(ad.matmul(selected, decoder.in_w), decoder.in_b)
    for block in decoder.blocks:
        x = block_forward(x, block)
    return ad.add(ad.matmul(x, decoder.head_w), decoder.head_b)


def sequence_loss(logits, target, motif):
    """Negative log likelihood summed over the scored positions: every
    position outside the motif.

    ``logits`` is (…, L, 20) and ``target`` and the bool ``motif`` mask
    are (…, L); the result has the leading shape, a scalar for one
    sequence and (B,) for a stack.  A mask token at a scored position is
    a caller bug and is rejected.
    """
    target = np.asarray(target, dtype=np.int64)
    motif = np.asarray(motif, dtype=bool)
    if target.shape != logits.shape[:-1] or motif.shape != target.shape:
        raise ContractError(
            "target shape %s and motif mask shape %s do not match logits %s"
            % (target.shape, motif.shape, logits.shape)
        )
    scored = target[~motif]
    if np.any((scored < 0) | (scored >= RESIDUE_COUNT)):
        raise ContractError("scored positions must hold amino-acid tokens")
    # the one-hot rows of motif positions are zero, so they add nothing
    onehot = (target[..., None] == np.arange(RESIDUE_COUNT)) & ~motif[..., None]
    per_row = ad.mul(ad.log_softmax(logits), onehot.astype(np.float64))
    return ad.neg(ad.tsum(ad.reshape(per_row, target.shape[:-1] + (-1,)), axis=-1))


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
