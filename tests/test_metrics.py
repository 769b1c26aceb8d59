"""Tests for sequence/structure evaluation and report output."""

import csv
import io
import logging

import numpy as np
import pytest

from geopro import metrics as mx
from geopro.data import ProteinRecord, format_csv
from geopro.errors import ContractError, DataError, ParseError
from geopro.geometry import apply_rigid, random_rigid
from geopro.pipeline import Motif
from geopro.seqmodel import encode_sequence


def make_candidate(cand_id, sequence, coords):
    return cand_id, np.asarray(sequence), np.asarray(coords, dtype=np.float64)


# ---------------------------------------------------------------------------
# recovery rate


def test_aar_basic_cases():
    assert mx.aar([1, 2, 3], [1, 2, 3], [0, 1, 2]) == 1.0
    assert mx.aar(encode_sequence("ACD"), encode_sequence("ACE"),
                  [0, 1, 2]) == pytest.approx(2.0 / 3.0)
    assert mx.aar([1, 2, 3], [1, 9, 9], [0]) == 1.0
    with pytest.raises(ContractError):
        mx.aar([1, 2], [1, 2, 3], [0])
    with pytest.raises(ContractError):
        mx.aar([1, 2, 3], [1, 2, 3], [3])
    with pytest.raises(ContractError):
        mx.aar([1, 2, 3], [1, 2, 3], [-1])


def test_aar_empty_scored_is_one_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="geopro.metrics"):
        assert mx.aar([1, 2, 3], [4, 5, 6], []) == 1.0
    assert [r.levelno for r in caplog.records] == [logging.WARNING]


def test_aar_symmetric_exactly():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        a = rng.integers(0, 20, n)
        b = rng.integers(0, 20, n)
        scored = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        assert mx.aar(a, b, scored) == mx.aar(b, a, scored)


# ---------------------------------------------------------------------------
# candidate evaluation


TARGET_COORDS = np.array([
    [0.0, 0.0, 0.0],
    [3.8, 0.0, 0.0],
    [3.8, 3.8, 0.0],
    [0.0, 3.8, 1.0],
])
TARGET_SEQ = np.array([0, 1, 2, 3])


def toy_setup():
    record = ProteinRecord("t", TARGET_SEQ, TARGET_COORDS)
    motif = Motif([1], [TARGET_SEQ[1]], TARGET_COORDS[[1]])
    candidates = [
        make_candidate("c1", TARGET_SEQ, TARGET_COORDS),
        make_candidate("c2", TARGET_SEQ, TARGET_COORDS + np.array([2.0, 0.0, 0.0])),
        make_candidate("c3", [5, 1, 2, 3], TARGET_COORDS),
    ]
    return candidates, record, motif


def rows_by_id(table):
    """{id: {column: value}} of a report table, summary rows included."""
    header = table[0]
    assert header == ("id",) + mx.METRIC_COLUMNS
    return {row[0]: dict(zip(header[1:], row[1:])) for row in table[1:]}


def test_evaluate_identical_and_translated_and_edited():
    candidates, record, motif = toy_setup()
    plddt = mx.parse_plddt_csv("id,plddt\nc1,77.34\nc3,62.73\nnot-here,50\n")
    rows = rows_by_id(mx.evaluate_candidates(candidates, record, motif, plddt))

    r1 = rows["c1"]
    assert r1["aar_all"] == 1.0 and r1["aar_nonmotif"] == 1.0
    assert r1["rmsd_anchored"] == 0.0 and r1["rmsd_superposed"] < 1e-12
    assert r1["tm_score"] == 1.0
    assert r1["plddt"] == 77.34

    # A pure translation: anchored deviation is the shift, superposition
    # removes it entirely.
    r2 = rows["c2"]
    assert r2["rmsd_anchored"] == pytest.approx(2.0, abs=1e-12)
    assert r2["rmsd_superposed"] < 1e-9
    assert r2["tm_score"] == pytest.approx(1.0, abs=1e-9)
    assert r2["plddt"] is None

    # One edited residue at a flexible position.
    r3 = rows["c3"]
    assert r3["aar_all"] == pytest.approx(3.0 / 4.0, abs=1e-12)
    assert r3["aar_nonmotif"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert r3["plddt"] == 62.73

    mean, median = rows["mean"], rows["median"]
    assert mean["aar_all"] == pytest.approx((1 + 1 + 0.75) / 3, abs=1e-9)
    assert median["aar_all"] == pytest.approx(1.0, abs=1e-9)
    assert mean["aar_nonmotif"] == pytest.approx((2 + 2 / 3) / 3, abs=1e-9)
    assert mean["rmsd_anchored"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert median["rmsd_anchored"] == pytest.approx(0.0, abs=1e-9)
    assert mean["tm_score"] == pytest.approx(1.0, abs=1e-9)
    assert mean["plddt"] == pytest.approx(70.035, abs=1e-9)
    assert median["plddt"] == pytest.approx(70.035, abs=1e-9)


def test_evaluate_errors_and_order_invariance():
    candidates, record, motif = toy_setup()
    table_fwd = mx.evaluate_candidates(candidates, record, motif)
    table_rev = mx.evaluate_candidates(candidates[::-1], record, motif)
    assert [row[0] for row in table_fwd[1:]] == ["c1", "c2", "c3", "mean", "median"]
    assert table_fwd == table_rev

    short = [make_candidate("c1", [0, 1], np.zeros((2, 3)))]
    with pytest.raises(DataError):
        mx.evaluate_candidates(short, record, motif)


def test_evaluate_refuses_a_repeated_candidate_id():
    candidates, record, motif = toy_setup()
    with pytest.raises(ContractError, match="duplicate candidate id 'c2'"):
        mx.evaluate_candidates(candidates + candidates[1:2], record, motif)


def test_evaluate_no_candidates_has_empty_summary_rows():
    _, record, motif = toy_setup()
    assert mx.evaluate_candidates([], record, motif) == [
        ("id",) + mx.METRIC_COLUMNS,
        ["mean"] + [None] * len(mx.METRIC_COLUMNS),
        ["median"] + [None] * len(mx.METRIC_COLUMNS),
    ]


def test_superposed_metrics_invariant_under_rigid_motion():
    rng = np.random.default_rng(8)
    record = ProteinRecord("t", TARGET_SEQ, TARGET_COORDS)
    motif = Motif([1], [TARGET_SEQ[1]], TARGET_COORDS[[1]])
    base = make_candidate("c", TARGET_SEQ, TARGET_COORDS + rng.normal(size=(4, 3)))
    for _ in range(10):
        transform = random_rigid(rng)
        moved = make_candidate("c", TARGET_SEQ, apply_rigid(transform, base[2]))
        r0, r1 = (
            rows_by_id(mx.evaluate_candidates([cand], record, motif))["c"]
            for cand in (base, moved)
        )
        assert abs(r0["rmsd_superposed"] - r1["rmsd_superposed"]) < 1e-9
        assert abs(r0["tm_score"] - r1["tm_score"]) < 1e-9


def test_plddt_csv_errors():
    with pytest.raises(ParseError, match="line 1"):
        mx.parse_plddt_csv("name,conf\nc1,50\n")
    with pytest.raises(ParseError, match="line 2"):
        mx.parse_plddt_csv("id,plddt\nc1,50,extra\n")
    with pytest.raises(ParseError, match="line 3"):
        mx.parse_plddt_csv("id,plddt\nc1,50\nc2,high\n")
    assert mx.parse_plddt_csv("id,plddt\nc1,50.5\n") == {"c1": 50.5}


# ---------------------------------------------------------------------------
# report output


def test_report_table_summary_recomputable_from_its_csv():
    candidates, record, motif = toy_setup()
    plddt = mx.parse_plddt_csv("id,plddt\nc1,77.34\nc3,62.73\n")
    text = format_csv(mx.evaluate_candidates(candidates, record, motif, plddt))
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    assert header == ["id"] + list(mx.METRIC_COLUMNS)
    body = [r for r in rows[1:] if r[0] not in ("mean", "median")]
    summary_rows = {r[0]: r for r in rows[1:] if r[0] in ("mean", "median")}
    assert [r[0] for r in body] == ["c1", "c2", "c3"]

    for column in mx.METRIC_COLUMNS:
        i = header.index(column)
        values = [float(r[i]) for r in body if r[i] != ""]
        if not values:
            continue
        mean = sum(values) / len(values)
        assert float(summary_rows["mean"][i]) == pytest.approx(mean, rel=1e-8)
        med = sorted(values)[len(values) // 2] if len(values) % 2 else (
            sorted(values)[len(values) // 2 - 1] + sorted(values)[len(values) // 2]
        ) / 2
        assert float(summary_rows["median"][i]) == pytest.approx(med, rel=1e-8)


def test_report_text_contains_everything():
    candidates, record, motif = toy_setup()
    text = mx.report_text(mx.evaluate_candidates(candidates, record, motif))
    for token in ("id", "aar_all", "c1", "c2", "c3", "mean", "median"):
        assert token in text


def test_export_embeddings_golden():
    blocks = [
        ("a", np.array([[1.5, 2.0], [3.0, 4.0]])),
        ("b", np.array([[5.0, 6.0]])),
    ]
    expected = (
        "id,pos,dim0,dim1\n"
        "a,0,1.5,2\n"
        "a,1,3,4\n"
        "b,0,5,6\n"
    )
    assert mx.export_embeddings(blocks) == expected
    with pytest.raises(ContractError):
        mx.export_embeddings([])
    with pytest.raises(ContractError):
        mx.export_embeddings([("a", np.zeros((2, 2))), ("b", np.zeros((1, 3)))])
