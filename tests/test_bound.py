import numpy as np
import pytest

from geopro import bound as tb
from geopro.errors import ConstructionError, ContractError, DomainError


def _sweep_instance(rng):
    return tb.random_instance(rng)


def test_build_coincident_pairs_when_delta_zero():
    rng = np.random.default_rng(0)
    inst = tb.build_instance(4, 2, width=2, zeta=2.0, delta=0.0, lip=1.0, rng=rng)
    assert np.array_equal(inst.embeddings[0], inst.embeddings[1])
    assert np.array_equal(inst.embeddings[2], inst.embeddings[3])
    assert np.linalg.norm(inst.embeddings[0] - inst.embeddings[2]) > 2.0


def test_build_exhaustive_distance_scan():
    rng = np.random.default_rng(1)
    zeta, delta = 1.5, 0.4
    inst = tb.build_instance(12, 3, width=3, zeta=zeta, delta=delta, lip=2.0, rng=rng)
    dist = inst.pairwise_distances()
    same = inst.labels[:, None] == inst.labels[None, :]
    upper = np.triu(np.ones((12, 12), dtype=bool), k=1)
    within = dist[same & upper]
    cross = dist[~same & upper]
    assert within.shape == (12,)
    assert cross.shape == (54,)
    assert np.all(within < delta)
    assert np.all(cross > zeta)


def test_validation_rejects_close_cross_pair():
    embeddings = np.array([[0.0, 0.0], [0.0, 0.0], [1.5, 0.0], [1.5, 0.0]])
    with pytest.raises(ContractError, match="cross-cluster"):
        tb.TheoremInstance(
            labels=np.array([0, 0, 1, 1]),
            embeddings=embeddings,
            lip=1.0,
            delta=0.0,
            zeta=2.0,
        )
    with pytest.raises(ContractError, match="within-cluster"):
        tb.TheoremInstance(
            labels=np.array([0, 0, 1, 1]),
            embeddings=np.array([[0.0, 0.0], [0.5, 0.0], [9.0, 0.0], [9.0, 0.0]]),
            lip=1.0,
            delta=0.1,
            zeta=2.0,
        )
    with pytest.raises(ContractError, match="sizes"):
        tb.TheoremInstance(
            labels=np.array([0, 0, 0, 1]),
            embeddings=embeddings,
            lip=1.0,
            delta=0.0,
            zeta=1.0,
        )
    with pytest.raises(DomainError):
        tb.TheoremInstance(
            labels=np.array([0, 0, 1, 1]),
            embeddings=embeddings,
            lip=1.0,
            delta=2.0,
            zeta=2.0,
        )


def test_build_contract_errors(monkeypatch):
    rng = np.random.default_rng(2)
    with pytest.raises(ContractError):
        tb.build_instance(5, 2, width=2, zeta=1.0, delta=0.0, lip=1.0, rng=rng)
    with pytest.raises(DomainError):
        tb.build_instance(4, 2, width=2, zeta=1.0, delta=1.5, lip=1.0, rng=rng)
    with pytest.raises(DomainError):
        tb.build_instance(4, 2, width=2, zeta=1.0, delta=0.0, lip=0.0, rng=rng)
    # Twenty 1-D clusters with a single placement attempt each cannot
    # all land clear of one another.
    monkeypatch.setattr(tb, "CENTER_TRIES", 1)
    with pytest.raises(ConstructionError):
        tb.build_instance(40, 2, width=1, zeta=3.0, delta=0.0, lip=1.0,
                          rng=np.random.default_rng(0))


def test_decoder_probabilities_worked_case():
    inst = tb.two_cluster_coincident_instance()
    assert abs(inst.gamma - 0.11920) < 1e-5
    assert abs(tb.constructed_decoder_prob(inst, 0, 1) - 0.44040) < 1e-5
    assert abs(tb.constructed_decoder_prob(inst, 0, 2) - 0.05960) < 1e-5
    with pytest.raises(ContractError):
        tb.constructed_decoder_prob(inst, 0, 4)


def test_decoder_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = _sweep_instance(rng)
        for j in range(inst.n):
            total = sum(
                tb.constructed_decoder_prob(inst, i, j) for i in range(inst.n)
            )
            assert abs(total - 1.0) < 1e-12


def test_decoder_saturates_to_uniform_within_cluster():
    inst = tb.two_cluster_coincident_instance(lip=50.0, zeta=2.0)
    assert abs(tb.constructed_decoder_prob(inst, 0, 1) - 0.5) < 1e-12


def test_objective_closed_form_and_limits():
    inst = tb.two_cluster_coincident_instance()
    objective = tb.denoising_objective(inst)
    assert abs(objective - (-0.82002)) < 1e-4
    closed = np.log(1.0 - inst.gamma) - np.log(2.0)
    assert abs(objective - closed) < 1e-12

    saturated = tb.two_cluster_coincident_instance(lip=60.0)
    assert abs(tb.denoising_objective(saturated) - (-np.log(2.0))) < 1e-12

    rng = np.random.default_rng(4)
    singleton = tb.build_instance(3, 1, width=2, zeta=1.0, delta=0.0, lip=1.0, rng=rng)
    assert abs(
        tb.denoising_objective(singleton) - np.log(1.0 - singleton.gamma)
    ) < 1e-12


def test_upper_bound_worked_case_and_limits():
    inst = tb.two_cluster_coincident_instance()
    bound = tb.upper_bound(inst)
    assert abs(bound - (-0.75661)) < 1e-4
    direct = 0.5 * tb.log_sigmoid(2.0) - np.log(2.0)
    assert abs(bound - direct) < 1e-12

    far = tb.TheoremInstance(
        labels=np.array([0, 0, 1, 1]),
        embeddings=np.array([[0.0, 0.0], [0.0, 0.0], [2000.0, 0.0], [2000.0, 0.0]]),
        lip=1.0,
        delta=0.0,
        zeta=2.0,
    )
    assert abs(tb.upper_bound(far) - (-np.log(2.0))) < 1e-9

    flat = tb.TheoremInstance(
        labels=np.array([0, 0, 1, 1]),
        embeddings=np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 0.0]]),
        lip=1e-12,
        delta=0.0,
        zeta=2.0,
    )
    assert abs(tb.upper_bound(flat) - (0.5 * np.log(0.5) - np.log(2.0))) < 1e-9


def test_verify_worked_case():
    objective, bound, holds, slack = tb.verify_bound(tb.two_cluster_coincident_instance())
    assert holds
    assert abs(objective - (-0.82002)) < 1e-4
    assert abs(bound - (-0.75661)) < 1e-4
    assert abs(slack - 0.06341) < 1e-4


def test_degenerate_single_cluster():
    rng = np.random.default_rng(5)
    inst = tb.build_instance(3, 3, width=2, zeta=1.0, delta=0.5, lip=1.0, rng=rng)
    objective, bound, holds, _ = tb.verify_bound(inst)
    assert bound == -np.log(3.0)
    assert abs(objective - (np.log(1.0 - inst.gamma) - np.log(3.0))) < 1e-12
    assert holds


def test_sweep_holds_under_statement_sign():
    rng = np.random.default_rng(6)
    for _ in range(300):
        objective, bound, holds, _ = tb.verify_bound(_sweep_instance(rng))
        assert holds, "inequality failed: %.9f > %.9f" % (objective, bound)


def test_appendix_sign_breaks_the_inequality():
    inst = tb.two_cluster_coincident_instance()
    objective, bound, holds, _ = tb.verify_bound(inst, appendix_sign=True)
    assert not holds
    assert objective > bound

    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(200):
        _, _, holds, _ = tb.verify_bound(_sweep_instance(rng), appendix_sign=True)
        violations += 0 if holds else 1
    assert violations >= 180


def test_bound_monotone_in_cross_distances():
    rng = np.random.default_rng(8)
    for _ in range(20):
        inst = tb.build_instance(6, 2, width=3, zeta=1.0, delta=0.0, lip=1.5, rng=rng)
        widened = tb.TheoremInstance(
            labels=inst.labels,
            embeddings=inst.embeddings * 1.5,
            lip=inst.lip,
            delta=0.0,
            zeta=inst.zeta,
        )
        assert tb.upper_bound(widened) >= tb.upper_bound(inst)


def test_objective_and_bound_scale_invariant():
    rng = np.random.default_rng(9)
    for _ in range(10):
        inst = _sweep_instance(rng)
        c = rng.uniform(0.2, 5.0)
        scaled = tb.TheoremInstance(
            labels=inst.labels,
            embeddings=inst.embeddings * c,
            lip=inst.lip / c,
            delta=inst.delta * c,
            zeta=inst.zeta * c,
        )
        assert abs(tb.denoising_objective(scaled) - tb.denoising_objective(inst)) < 1e-12
        assert abs(tb.upper_bound(scaled) - tb.upper_bound(inst)) < 1e-12
