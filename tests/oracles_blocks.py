"""The transformer sub-layers composed from ordinary autodiff ops.

The reference that the fused ``"attention"``, ``"layer_norm"`` and
``"mlp"`` tape nodes of ``geopro.seqmodel`` and ``geopro.egnn`` are
checked against: each op records its own tape node, and every gradient
comes from the ops' own backward rules.
"""

import numpy as np

from geopro import autodiff as ad

LN_EPS = 1e-5


def layer_norm(x, params):
    centered = ad.sub(x, ad.tmean(x, axis=-1, keepdims=True))
    variance = ad.tmean(ad.square(centered), axis=-1, keepdims=True)
    normalized = ad.div(centered, ad.sqrt(ad.add(variance, LN_EPS)))
    return ad.add(ad.mul(normalized, params.gamma), params.beta)


def attention(x, params):
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


def mlp(params, x):
    hidden = ad.silu(ad.add(ad.matmul(x, params.w1), params.b1))
    return ad.add(ad.matmul(hidden, params.w2), params.b2)
