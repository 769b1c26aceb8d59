"""Property checks behind ``geopro check`` and the acceptance criteria.

Each check returns worst-case values and applies no threshold: the
caller picks the trial counts and seeds and decides what passes.  The
checks cover EGNN equivariance, end-to-end invariance of logits and
loss under rigid moves, analytic gradients against central finite
differences, and the clustering bound.
"""

import math

import numpy as np

from . import autodiff as ad
from . import bound as bd
from . import egnn as eg
from . import geometry as geo
from . import pipeline as pl
from . import seqmodel as sm

# The worked two-cluster case as printed in the paper: (objective, bound).
PAPER_WORKED_CASE = (-0.82002, -0.75661)
FD_STEP = 1e-5  # of the central finite differences


# ---------------------------------------------------------------------------
# finite-difference oracle


def numeric_grads(f, arrays):
    """Central differences of the scalar f() w.r.t. each array, in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = f()
            flat[i] = orig - FD_STEP
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def analytic_grads(build_loss, params):
    """Run one tape forward/backward and return each param's gradient."""
    with ad.Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    return [p.grad.copy() for p in params]


def rel_err(a, b):
    """max |a-b| scaled by the larger magnitude (floored to avoid 0/0)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return np.abs(a - b).max(initial=0.0) / scale


def check_grads(build_loss, params):
    """Return the worst relative error between tape and finite differences."""
    analytic = analytic_grads(build_loss, params)

    def f():
        return build_loss().item()

    numeric = numeric_grads(f, [p.data for p in params])
    return max(rel_err(a, n) for a, n in zip(analytic, numeric))


# ---------------------------------------------------------------------------
# checks


def equivariance(rng, models):
    """Worst EGNN deviation under one random rigid motion (reflections
    included) per model, over ``models`` random models and graphs.

    Graphs have 2-20 nodes, widths 4-32 and 1-3 layers.
    """
    worst = 0.0
    for _ in range(models):
        n = int(rng.integers(2, 21))
        width = int(rng.choice([4, 8, 16, 32]))
        depth = int(rng.integers(1, 4))
        model = eg.init_egnn(rng, depth=depth, feat_width=width)
        state = eg.GraphState(
            ad.Tensor(rng.normal(scale=5.0, size=(n, 3))),
            ad.Tensor(rng.normal(size=(n, width))),
        )
        worst = max(worst, eg.equivariance_check(model, state, trials=1, rng=rng))
    return worst


def invariance(rng, cases):
    """Worst change of the logits or the total loss when the start
    coordinates and the target move together by a rigid motion, over
    ``cases`` random synthetic records and small models; odd cases
    reflect.
    """
    worst = 0.0
    for trial in range(cases):
        length = int(rng.integers(6, 16))
        examples = pl.generate_synthetic_dataset(
            1, length, 0.34, seed=int(rng.integers(1 << 31))
        )
        record, motif = examples[0]
        config = pl.TrainingConfig(
            width=int(rng.choice([8, 16])),
            egnn_depth=int(rng.integers(1, 3)),
            enc_depth=1, dec_depth=1, n_heads=2, seed=trial, max_len=64,
        )
        model = pl.build_model(config)
        mpos = motif.position_set()
        tokens = sm.corrupt_sequence(record.sequence, mpos)
        x0 = pl.init_backbone_coords(motif, record.length, config.radius, rng)
        transform = geo.random_rigid(rng, reflect=bool(trial % 2))
        totals, logits = [], []
        for move in (lambda x: x, lambda x: geo.apply_rigid(transform, x)):
            coords, _, lg = pl.forward_with_coords(tokens, move(x0), mpos, model)
            totals.append(pl.total_loss(
                pl.backbone_loss(coords, move(record.ca_coords), motif),
                sm.sequence_loss(lg, record.sequence, sm.motif_mask(mpos, length)),
                config.alpha, config.beta).item())
            logits.append(lg.data)
        worst = max(worst, abs(totals[0] - totals[1]),
                    float(np.abs(logits[0] - logits[1]).max()))
    return worst


def pipeline_gradient(data_seed, model_seed, loss_seed):
    """Worst relative error of the full training loss's parameter
    gradients against finite differences, for a width-4 model on one
    synthetic record of length 6.
    """
    examples = pl.generate_synthetic_dataset(1, 6, 0.34, seed=data_seed)
    record, motif = examples[0]
    config = pl.TrainingConfig(width=4, egnn_depth=1, enc_depth=1,
                               dec_depth=1, n_heads=2, seed=model_seed, max_len=8)
    model = pl.build_model(config)
    params = [t for _, t in model.named_parameters()]

    def build_loss():
        _, _, total = pl.example_losses(
            record, motif, model, np.random.default_rng(loss_seed))
        return total

    return check_grads(build_loss, params)


def bound_excess(rng, instances, appendix_sign=False):
    """(worst objective - bound, violations) over random instances."""
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        objective, upper, holds, _ = bd.verify_bound(
            bd.random_instance(rng), appendix_sign=appendix_sign
        )
        worst = max(worst, objective - upper)
        violations += int(not holds)
    return worst, violations


def worked_case():
    """(objective, bound) of the two-cluster coincident instance."""
    inst = bd.two_cluster_coincident_instance()
    return bd.denoising_objective(inst), bd.upper_bound(inst)
