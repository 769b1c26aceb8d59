"""Acceptance gate: ten system-level checks at pinned tolerances.

Each test prints exactly one PASS or FAIL line (outside the output
capture, so the verdicts are always visible) and then asserts, so a
FAIL line always comes with a failing test.
"""

import math
import time

import numpy as np

from geopro import checks as ck
from geopro import data as dt
from geopro import geometry as geo
from geopro import pipeline as pl
from geopro import seqmodel as sm

from oracles_geometry import grid_min_rmsd
from test_autodiff import _op_cases


def _finish(capsys, number, name, ok, detail):
    with capsys.disabled():
        print("%s criterion %02d (%s): %s"
              % ("PASS" if ok else "FAIL", number, name, detail), flush=True)
    assert ok, "criterion %02d (%s): %s" % (number, name, detail)


def test_criterion_01_equivariance(capsys):
    start = time.monotonic()
    worst = ck.equivariance(np.random.default_rng(101), 100)
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 30.0
    _finish(capsys, 1, "egnn equivariance under rigid motions and reflections", ok,
            "100 random models, max deviation %.3e, %.1fs" % (worst, elapsed))


def test_criterion_02_end_to_end_invariance(capsys):
    start = time.monotonic()
    worst = ck.invariance(np.random.default_rng(202), 50)
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _finish(capsys, 2, "loss and logits invariant to rigid moves of motif and target",
            ok, "50 random cases, max deviation %.3e, %.1fs" % (worst, elapsed))


def test_criterion_03_gradients(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(303)
    worst_op, worst_name = 0.0, "-"
    for name, (params, build) in _op_cases(rng).items():
        err = ck.check_grads(build, params)
        if err > worst_op:
            worst_op, worst_name = err, name
    pipeline_err = ck.pipeline_gradient(404, 5, 99)
    elapsed = time.monotonic() - start
    ok = worst_op < 1e-4 and pipeline_err < 1e-3 and elapsed < 120.0
    _finish(capsys, 3, "analytic gradients match finite differences", ok,
            "ops worst %.3e (%s), full pipeline %.3e, %.1fs"
            % (worst_op, worst_name, pipeline_err, elapsed))


def test_criterion_04_superposition_and_similarity(capsys):
    rng = np.random.default_rng(404)
    worst_rigid = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 30))
        pts = rng.normal(scale=4.0, size=(n, 3))
        moved = geo.apply_rigid(geo.random_rigid(rng), pts)
        worst_rigid = max(worst_rigid, geo.superposed_rmsd(moved, pts))
    lower_ok = True
    worst_gap = 0.0
    for seed in range(1000, 1020):
        inst = np.random.default_rng(seed)
        p = inst.normal(size=(5, 3))
        q = inst.normal(size=(5, 3))
        exact = geo.superposed_rmsd(p, q)
        grid = grid_min_rmsd(p, q, n=1_000_000)
        lower_ok = lower_ok and exact <= grid + 1e-9
        worst_gap = max(worst_gap, grid - exact)
    pts = rng.normal(scale=3.0, size=(12, 3))
    tm_same = geo.tm_score(pts, pts, 12)
    d0 = geo.tm_d0(21)
    ok = (worst_rigid < 1e-9 and lower_ok and worst_gap < 1e-3
          and tm_same == 1.0 and d0 == 0.5)
    _finish(capsys, 4, "superposition optimal, similarity score calibrated", ok,
            "rigid-copy rmsd %.3e, grid gap %.3e, identical score %r, "
            "d0(21) %r" % (worst_rigid, worst_gap, tm_same, d0))


def test_criterion_05_initialization_geometry(capsys):
    rng = np.random.default_rng(505)
    worst = 0.0
    bits_ok = True
    for _ in range(1000):
        length = int(rng.integers(5, 40))
        m = int(rng.integers(1, max(2, length // 2)))
        positions = np.sort(rng.choice(length, size=m, replace=False))
        motif = pl.Motif(
            positions=positions,
            residues=rng.integers(0, 20, size=m),
            coords=rng.normal(scale=6.0, size=(m, 3)),
        )
        coords = pl.init_backbone_coords(motif, length, 3.75, rng)
        bits_ok = bits_ok and (
            coords[motif.positions].tobytes() == motif.coords.tobytes())
        for j, center in pl.placement_plan(motif.positions, length):
            dist = float(np.linalg.norm(coords[j] - coords[center]))
            worst = max(worst, abs(dist - 3.75))
    ok = worst <= 1e-9 and bits_ok
    _finish(capsys, 5, "spherical initialization radius exact, motif verbatim", ok,
            "1000 inits, worst radius error %.3e, motif bit-identical %r"
            % (worst, bits_ok))


def test_criterion_06_clustering_bound(capsys):
    start = time.monotonic()
    worst_excess, _ = ck.bound_excess(np.random.default_rng(606), 1000)
    objective, upper = ck.worked_case()
    worked_ok = (abs(objective - ck.PAPER_WORKED_CASE[0]) <= 1e-4
                 and abs(upper - ck.PAPER_WORKED_CASE[1]) <= 1e-4)
    _, violations = ck.bound_excess(np.random.default_rng(606), 1000,
                                    appendix_sign=True)
    elapsed = time.monotonic() - start
    ok = (worst_excess <= 1e-9 and worked_ok and violations > 0
          and elapsed < 30.0)
    _finish(capsys, 6, "denoising objective bounded, sign flip breaks it", ok,
            "1000 instances, worst objective-bound %.3e, worked case "
            "%.5f/%.5f, flipped-sign violations %d/1000, %.1fs"
            % (worst_excess, objective, upper, violations, elapsed))


def test_criterion_07_toy_convergence(capsys):
    start = time.monotonic()
    examples = pl.generate_synthetic_dataset(8, 30, 0.3, seed=2026)
    config = pl.TrainingConfig(
        width=32, egnn_depth=2, enc_depth=2, dec_depth=2, n_heads=4,
        epochs=200, batch_size=4, base_lr=1e-3, warmup_steps=60,
        seed=7, feature_select="inverted",
    )
    model = pl.build_model(config)
    history = pl.train(examples, config, model)
    totals = np.array([h.train_total for h in history])
    windows = np.array([totals[i:i + 10].mean()
                        for i in range(0, len(totals), 10)])
    mono = bool(np.all(np.diff(windows) <= 0.0))
    correct = 0
    scored = 0
    for record, motif in examples:
        rng = pl.example_rng(config.seed, record)
        x0 = pl.init_backbone_coords(motif, record.length, config.radius, rng)
        tokens = sm.corrupt_sequence(record.sequence, motif.positions)
        _, _, logits = pl.forward_with_coords(tokens, x0, motif.positions, model)
        flex = np.setdiff1d(np.arange(record.length), motif.positions)
        pred = logits.data[flex].argmax(axis=1)
        correct += int((pred == record.sequence[flex]).sum())
        scored += flex.size
    aar = correct / scored
    lb_ratio = history[-1].train_backbone / history[0].train_backbone
    elapsed = time.monotonic() - start
    ok = (aar >= 0.95 and lb_ratio <= 0.2 and mono and elapsed < 300.0)
    _finish(capsys, 7, "toy task converges", ok,
            "masked AAR %.3f (%d/%d), backbone loss ratio %.4f, "
            "10-epoch windows non-increasing %r, %.1fs"
            % (aar, correct, scored, lb_ratio, mono, elapsed))


def test_criterion_08_sampling_distribution(capsys):
    rng = np.random.default_rng(808)
    logits = np.linspace(-2.0, 1.3, 21)
    rng.shuffle(logits)
    top = np.argsort(logits)[-3:]
    shifted = np.exp(logits[top] - logits[top].max())
    probs = shifted / shifted.sum()
    n = 100_000
    counts = np.zeros(21, dtype=np.int64)
    for _ in range(n):
        counts[sm.sample_top_k(logits, 3, rng)] += 1
    outside = int(counts.sum() - counts[top].sum())
    worst_pull = 0.0
    for cls, p in zip(top, probs):
        sigma = math.sqrt(n * p * (1.0 - p))
        worst_pull = max(worst_pull, abs(counts[cls] - n * p) / sigma)
    ok = outside == 0 and worst_pull <= 3.0
    _finish(capsys, 8, "top-k sampling matches renormalized distribution", ok,
            "%d draws, %d outside top-3, worst deviation %.2f sigma"
            % (n, outside, worst_pull))


def test_criterion_09_data_golden(capsys):
    seq = sm.encode_sequence("ACDEFGHIK")
    coords = np.zeros((9, 3))
    coords[:, 0] = np.round(np.arange(9) * 3.8, 3)
    coords[:, 1] = np.round(np.linspace(-0.4, 0.4, 9), 3)
    record = dt.ProteinRecord("demo", seq, coords)
    back = dt.parse_pdb_ca(dt.emit_pdb_ca(record), chain="A", record_id="demo")
    pdb_ok = (np.array_equal(back.sequence, seq)
              and np.array_equal(back.ca_coords, coords))

    pairs = dt.parse_fasta(">a first\nACDE\nFG\n>b\nWYV\n")
    fasta_ok = pairs == [("a", "ACDEFG"), ("b", "WYV")]

    aln = dt.parse_alignment(">ref\nACD-EF\n>h1\nACDYEF\n>h2\nACW-EF\n", "ref")
    motif_ok = (dt.extract_motif(aln, 0.6) == [0, 1, 2, 3, 4]
                and dt.extract_motif(aln, 0.9) == [0, 1, 3, 4])

    rng = np.random.default_rng(909)
    records = []
    for i in range(40):
        length = 6
        c = np.zeros((length, 3))
        c[:, 0] = np.arange(length) * 3.8
        records.append(dt.ProteinRecord(
            "r%02d" % i, rng.integers(0, 20, size=length), c))
    train, valid, test = dt.filter_and_split(records, 0, seed=3)
    again = dt.filter_and_split(records, 0, seed=3)
    ids = lambda group: [r.record_id for r in group]
    sizes_ok = (len(train), len(valid), len(test)) == (32, 4, 4)
    disjoint_ok = not (set(ids(train)) & set(ids(valid))
                       or set(ids(train)) & set(ids(test))
                       or set(ids(valid)) & set(ids(test)))
    deterministic_ok = all(
        ids(x) == ids(y) for x, y in zip((train, valid, test), again))
    ok = (pdb_ok and fasta_ok and motif_ok and sizes_ok and disjoint_ok
          and deterministic_ok)
    _finish(capsys, 9, "file formats round-trip, splits disjoint and reproducible",
            ok, "pdb %r, fasta %r, motif %r, split sizes %r disjoint %r "
            "deterministic %r" % (pdb_ok, fasta_ok, motif_ok, sizes_ok,
                                  disjoint_ok, deterministic_ok))


def test_criterion_10_design_contract(capsys):
    examples = pl.generate_synthetic_dataset(1, 20, 0.3, seed=1010)
    _, motif = examples[0]
    config = pl.TrainingConfig(width=16, egnn_depth=1, enc_depth=1,
                               dec_depth=1, n_heads=2, seed=12, max_len=64)
    model = pl.build_model(config)
    candidates = pl.design(motif, 20, 100, 3, model, seed=7000,
                           pin_motif=True)
    flex = np.setdiff1d(np.arange(20), motif.positions)
    bits_ok = all(
        np.array_equal(c.sequence[motif.positions], motif.residues)
        and c.coords[motif.positions].tobytes() == motif.coords.tobytes()
        for c in candidates
    )
    differing = sum(
        1 for i in range(100)
        if np.any(candidates[i].sequence[flex]
                  != candidates[(i + 1) % 100].sequence[flex])
    )
    ok = bits_ok and differing >= 90
    _finish(capsys, 10, "design pins the motif, distinct seeds explore", ok,
            "100 candidates, motif bit-exact %r, %d/100 seed pairs differ "
            "at flexible positions" % (bits_ok, differing))
