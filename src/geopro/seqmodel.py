"""Sequence encoder, masked-feature selection, decoder, loss, sampling.

The encoder turns a partially masked residue sequence into per-position
feature vectors; the decoder turns selected feature rows into residue
logits.  Everything runs on the autodiff tensor type so training can
differentiate through it.  A stack of B sequences of one length L is
the arrays of one sequence with a leading batch axis: (B, L) tokens and
motif masks, (B, L, d) features, (B, L, 20) logits.

Each transformer block records few tape nodes: its two layer norms
(``layer_norm``), its attention between the Q, K, V and output
projections (``_attention``) and its feed-forward (``egnn.mlp_forward``)
are one fused node each, with a hand-written backward pass that
computes again what the forward pass did not keep.  The attention keeps
no (heads, L, L) map: its memory between forward and backward grows
with L·d, not heads·L².
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
# Scores in one (B, heads, rows, L) block of query rows of the attention
# node: 2**16 float64 values, 512 KB.  A block's backward holds two such
# arrays.  With OpenBLAS 0.3.31 (Haswell kernels), blocks of 32 rows and
# more gave the bits of one product over every row up to L=512; narrower
# blocks, which only B·heads·L above 2048 makes, may round differently.
_SCORE_VALUES = 2 ** 16


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
    """Layer norm over the last axis as one tape node, ``"layer_norm"``,
    which keeps each row's mean and standard deviation for its backward
    pass."""
    gamma, beta = params.gamma.data, params.beta.data
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + _LN_EPS)
    out = centered / std
    out *= gamma
    out += beta

    def backward(g):
        width = g.shape[-1]
        normalized = (x.data - mean) / std
        g_gamma = (g * normalized).reshape(-1, width).sum(axis=0)
        g_norm = g * gamma
        g_x = g_norm - g_norm.mean(axis=-1, keepdims=True)
        g_norm *= normalized
        normalized *= g_norm.mean(axis=-1, keepdims=True)
        g_x -= normalized
        g_x /= std
        return g_x, g_gamma, g.reshape(-1, width).sum(axis=0)

    return ad.record_op(out, (x, params.gamma, params.beta), backward, "layer_norm")


def _heads(a, heads):
    """A C-ordered copy of ``a``, (L, d) or (B, L, d), split into (B, heads,
    L, d / heads)."""
    length, width = a.shape[-2:]
    return np.ascontiguousarray(
        a.reshape(-1, length, heads, width // heads).transpose(0, 2, 1, 3))


def _merge(a, shape):
    """The inverse of ``_heads``: (B, heads, L, d / heads) back to
    ``shape``, (L, d) or (B, L, d)."""
    return a.transpose(0, 2, 1, 3).reshape(shape)


def _attention(q, k, v, heads):
    """softmax(q kᵀ / √w) v within each head, with the heads split from and
    merged back into the last axis, as one tape node, ``"attention"``.

    ``q``, ``k`` and ``v`` are (L, d), or (B, L, d), and w = d / heads.
    The node walks blocks of query rows, each of at most ``_SCORE_VALUES``
    scores, and keeps only each softmax row's max and sum between forward
    and backward; its backward pass computes every block's probabilities
    again from q, k and those statistics (memory-efficient attention, Rabe
    & Staats 2021; FlashAttention, Dao et al. 2022).  So no (heads, L, L)
    map outlives a block.  Each block runs the numpy operations of the
    composed attention in their order, on C-ordered copies of the heads.
    """
    length = q.shape[-2]
    scale = 1.0 / np.sqrt(q.shape[-1] // heads)
    q4, v4 = _heads(q.data, heads), _heads(v.data, heads)
    k_t = np.ascontiguousarray(_heads(k.data, heads).transpose(0, 1, 3, 2))
    batch, _, _, width = q4.shape
    rows = max(1, _SCORE_VALUES // max(1, batch * heads * length))
    blocks = [slice(i, i + rows) for i in range(0, length, rows)]
    row_max = np.empty((batch, heads, length, 1))
    row_sum = np.empty_like(row_max)

    def probs(blk, forward):
        # the forward pass writes the row statistics that backward reads
        s = np.matmul(q4[:, :, blk], k_t)
        s *= scale
        if forward:
            s.max(axis=-1, keepdims=True, out=row_max[:, :, blk])
        s -= row_max[:, :, blk]
        np.exp(s, out=s)
        if forward:
            s.sum(axis=-1, keepdims=True, out=row_sum[:, :, blk])
        s /= row_sum[:, :, blk]
        return s

    out = np.empty((batch, length, heads, width))
    for blk in blocks:
        out[:, blk] = np.matmul(probs(blk, forward=True), v4).transpose(0, 2, 1, 3)

    def backward(g):
        g4 = _heads(g, heads)
        # sum_j dP_ij P_ij, the row's gradient dotted with its output
        dots = (g.reshape(out.shape) * out).sum(axis=-1).transpose(0, 2, 1)[..., None]
        g_q, g_k, g_v = np.empty_like(q4), np.zeros_like(q4), np.zeros_like(q4)
        for blk in blocks:
            p = probs(blk, forward=False)
            g_v += np.matmul(p.transpose(0, 1, 3, 2), g4[:, :, blk])
            d_s = np.matmul(g4[:, :, blk], v4.transpose(0, 1, 3, 2))
            d_s -= dots[:, :, blk]
            d_s *= p
            d_s *= scale
            g_q[:, :, blk] = np.matmul(d_s, k_t.transpose(0, 1, 3, 2))
            g_k += np.matmul(d_s.transpose(0, 1, 3, 2), q4[:, :, blk])
        return _merge(g_q, q.shape), _merge(g_k, q.shape), _merge(g_v, q.shape)

    return ad.record_op(out.reshape(q.shape), (q, k, v), backward, "attention")


def attention_forward(x, params):
    """Multi-head self-attention within each sequence: ``x`` is (L, d), or
    (B, L, d) for a stack of sequences.  The Q, K, V and output projections
    are ordinary ops around one ``_attention`` node."""
    q = ad.add(ad.matmul(x, params.wq), params.bq)
    k = ad.matmul(x, params.wk)
    v = ad.add(ad.matmul(x, params.wv), params.bv)
    mixed = _attention(q, k, v, params.n_heads)
    return ad.add(ad.matmul(mixed, params.wo), params.bo)


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
