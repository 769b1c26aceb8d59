"""Numerical verifier for the clustered-denoising upper bound.

Instances hold n embedded sequences in n/K well-separated clusters of
size K.  A constructed decoder puts probability (1-gamma)/K on each
same-cluster sequence and gamma/(n-K) on the rest, with
gamma = sigmoid(-lip * zeta).  The module evaluates that decoder's
objective and the claimed upper bound, and reports whether the
inequality holds.  ``appendix_sign=True`` flips the sign of the sigmoid
argument inside the bound; that reading breaks the inequality and is
kept only so the failure can be demonstrated.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import _sigmoid
from .errors import ConstructionError, ContractError, DomainError

_EDGE_TOL = 1e-12
_HOLDS_TOL = 1e-9
CENTER_TRIES = 2000  # rejection-sampling draws per cluster center


def log_sigmoid(x):
    """log(sigmoid(x)) computed without overflow for any magnitude."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))
    return out if out.ndim else float(out)


@dataclass
class TheoremInstance:
    """Clustered embeddings with separation constants.

    ``labels`` assigns each of the n embeddings to one of n/K clusters
    of exactly K members; same-cluster embeddings sit within ``delta``
    of each other and different-cluster embeddings at least ``zeta``
    apart (boundary distances are accepted to float tolerance).
    """

    labels: np.ndarray
    embeddings: np.ndarray
    lip: float
    delta: float
    zeta: float

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.labels.ndim != 1 or self.embeddings.ndim != 2:
            raise ContractError("labels must be (n,), embeddings (n, width)")
        if self.labels.shape[0] != self.embeddings.shape[0]:
            raise ContractError("label count does not match embedding count")
        if self.lip <= 0.0:
            raise DomainError("lip must be positive, got %r" % self.lip)
        if not 0.0 <= self.delta < self.zeta:
            raise DomainError(
                "need 0 <= delta < zeta, got delta=%r zeta=%r" % (self.delta, self.zeta)
            )
        _, counts = np.unique(self.labels, return_counts=True)
        if counts.min() != counts.max():
            raise ContractError("cluster sizes differ: %s" % counts.tolist())
        dist = self.pairwise_distances()
        same = self.labels[:, None] == self.labels[None, :]
        off_diag = ~np.eye(self.n, dtype=bool)
        within = dist[same & off_diag]
        cross = dist[~same]
        if within.size and within.max() > self.delta + _EDGE_TOL:
            raise ContractError(
                "within-cluster distance %.6g exceeds delta=%.6g"
                % (within.max(), self.delta)
            )
        if cross.size and cross.min() < self.zeta - _EDGE_TOL:
            raise ContractError(
                "cross-cluster distance %.6g is below zeta=%.6g"
                % (cross.min(), self.zeta)
            )

    @property
    def n(self):
        return int(self.labels.shape[0])

    @property
    def cluster_size(self):
        _, counts = np.unique(self.labels, return_counts=True)
        return int(counts[0])

    @property
    def gamma(self):
        return float(_sigmoid(-self.lip * self.zeta))

    def pairwise_distances(self):
        diff = self.embeddings[:, None, :] - self.embeddings[None, :, :]
        return np.linalg.norm(diff, axis=-1)


def build_instance(n, cluster_size, width, zeta, delta, lip, rng):
    """Random instance with guaranteed separation.

    Cluster centers are rejection-sampled until mutually farther than
    zeta + 2*delta apart; members are jittered within delta/2 of their
    center, which keeps every within-cluster distance under delta and
    every cross-cluster distance over zeta.
    """
    if n <= 0 or cluster_size <= 0 or n % cluster_size != 0:
        raise ContractError(
            "cluster size %r must divide instance count %r" % (cluster_size, n)
        )
    if not 0.0 <= delta < zeta:
        raise DomainError("need 0 <= delta < zeta, got delta=%r zeta=%r" % (delta, zeta))
    if lip <= 0.0:
        raise DomainError("lip must be positive, got %r" % lip)
    clusters = n // cluster_size
    min_gap = zeta + 2.0 * delta
    side = max(1.0, min_gap) * (clusters + 1) * 2.0
    centers = []
    for _ in range(clusters):
        placed = False
        for _ in range(CENTER_TRIES):
            candidate = rng.uniform(-side / 2.0, side / 2.0, size=width)
            if all(np.linalg.norm(candidate - c) > min_gap for c in centers):
                centers.append(candidate)
                placed = True
                break
        if not placed:
            raise ConstructionError(
                "could not place %d cluster centers more than %.3g apart "
                "after %d tries" % (clusters, min_gap, CENTER_TRIES)
            )
    labels = np.repeat(np.arange(clusters), cluster_size)
    embeddings = np.empty((n, width))
    for i, label in enumerate(labels):
        direction = rng.normal(size=width)
        direction /= max(np.linalg.norm(direction), 1e-12)
        radius = rng.uniform(0.0, delta / 2.0) if delta > 0 else 0.0
        embeddings[i] = centers[label] + radius * direction
    return TheoremInstance(labels, embeddings, lip=lip, delta=delta, zeta=zeta)


def random_instance(rng):
    """One random well-separated instance from the standard sweep ranges:
    cluster size 2 or 3, 4 to 12 points, Lipschitz constant in [0.1, 5],
    separation in [0.5, 5], and spread up to half the separation."""
    cluster_size = int(rng.choice([2, 3]))
    n = cluster_size * int(rng.integers(2, 12 // cluster_size + 1))
    lip = rng.uniform(0.1, 5.0)
    zeta = rng.uniform(0.5, 5.0)
    delta = rng.uniform(0.0, 0.5) * zeta
    return build_instance(
        n, cluster_size, width=3, zeta=zeta, delta=delta, lip=lip, rng=rng
    )


def two_cluster_coincident_instance(lip=1.0, zeta=2.0):
    """Four points: two coincident pairs exactly zeta apart.

    The smallest instance where every quantity has a closed form; all
    cross distances equal zeta and delta is zero.
    """
    embeddings = np.array([[0.0, 0.0], [0.0, 0.0], [zeta, 0.0], [zeta, 0.0]])
    return TheoremInstance(
        labels=np.array([0, 0, 1, 1]),
        embeddings=embeddings,
        lip=lip,
        delta=0.0,
        zeta=zeta,
    )


def constructed_decoder_prob(instance, i, j):
    """Probability the constructed decoder assigns to sequence i given j."""
    n = instance.n
    if not (0 <= i < n and 0 <= j < n):
        raise ContractError("indices (%d, %d) out of range for n=%d" % (i, j, n))
    gamma = instance.gamma
    if instance.labels[i] == instance.labels[j]:
        return (1.0 - gamma) / instance.cluster_size
    return gamma / (n - instance.cluster_size)


def denoising_objective(instance):
    """Average log likelihood of the constructed decoder over clusters.

    Evaluated as the explicit double sum; algebraically it collapses to
    log(1 - gamma) - log K.
    """
    n = instance.n
    k = instance.cluster_size
    total = 0.0
    for j in range(n):
        for i in range(n):
            if instance.labels[i] == instance.labels[j]:
                total += np.log(constructed_decoder_prob(instance, i, j)) / k
    return total / n


def upper_bound(instance, appendix_sign=False):
    """The claimed bound: cross-pair log-sigmoid average minus log K.

    Ordered pairs are counted on both sides of the diagonal.  The
    default uses a positive sigmoid argument; ``appendix_sign`` negates
    it, which demonstrably breaks the inequality.
    """
    dist = instance.pairwise_distances()
    cross = instance.labels[:, None] != instance.labels[None, :]
    sign = -1.0 if appendix_sign else 1.0
    terms = log_sigmoid(sign * instance.lip * dist[cross])
    return float(terms.sum()) / instance.n ** 2 - np.log(instance.cluster_size)


def verify_bound(instance, appendix_sign=False):
    """Evaluate both sides; returns (objective, bound, holds, slack)."""
    objective = denoising_objective(instance)
    bound = upper_bound(instance, appendix_sign=appendix_sign)
    return objective, bound, objective <= bound + _HOLDS_TOL, bound - objective
