import logging

import numpy as np
import pytest

from geopro import data
from geopro.errors import ContractError, DataError, DomainError, ParseError
from geopro.seqmodel import encode_sequence

SINGLE_LINE = (
    "ATOM      1  CA  ALA A   1      11.000  12.000  13.000  1.00  0.00           C"
)


def _ca_line(serial, res3, chain, resseq, x, y, z, alt=" ", icode=" "):
    return (
        "ATOM  %5d  CA %s%3s %s%4d%s   %8.3f%8.3f%8.3f%6.2f%6.2f          %2s"
        % (serial, alt, res3, chain, resseq, icode, x, y, z, 1.0, 0.0, "C")
    )


def _chain_coords(n, spacing=3.8):
    return np.stack([np.arange(n) * spacing, np.zeros(n), np.zeros(n)], axis=1)


def test_parse_single_atom_line():
    record = data.parse_pdb_ca(SINGLE_LINE, "A")
    assert record.residue_string == "A"
    assert np.allclose(record.ca_coords, [[11.0, 12.0, 13.0]])
    assert record.record_id == "chain_A"


def test_parse_filters_by_chain():
    text = "\n".join(
        [
            _ca_line(1, "ALA", "A", 1, 0.0, 0.0, 0.0),
            _ca_line(2, "GLY", "B", 1, 9.0, 9.0, 9.0),
            _ca_line(3, "CYS", "A", 2, 3.8, 0.0, 0.0),
        ]
    )
    record = data.parse_pdb_ca(text, "A")
    assert record.residue_string == "AC"
    record_b = data.parse_pdb_ca(text, "B")
    assert record_b.residue_string == "G"


def test_parse_honors_altloc_and_keeps_five_residues():
    lines = []
    residues = ["ALA", "GLY", "CYS", "TRP", "HIS"]
    for i, res3 in enumerate(residues, start=1):
        lines.append(_ca_line(i, res3, "A", i, i * 3.8, 0.0, 0.0))
        if i == 3:
            # A competing alternate location that must lose to the 'A' one.
            lines.insert(
                len(lines) - 1,
                _ca_line(99, res3, "A", i, 99.0, 99.0, 99.0, alt="B"),
            )
            lines[-1] = _ca_line(i, res3, "A", i, i * 3.8, 0.0, 0.0, alt="A")
    record = data.parse_pdb_ca("\n".join(lines), "A")
    assert record.residue_string == "AGCWH"
    assert np.allclose(record.ca_coords[2], [3 * 3.8, 0.0, 0.0])


def test_parse_orders_by_residue_number_and_insertion_code():
    text = "\n".join(
        [
            _ca_line(1, "GLY", "A", 2, 7.6, 0.0, 0.0),
            _ca_line(2, "ALA", "A", 1, 0.0, 0.0, 0.0),
            _ca_line(3, "CYS", "A", 1, 3.8, 0.0, 0.0, icode="A"),
        ]
    )
    record = data.parse_pdb_ca(text, "A")
    assert record.residue_string == "ACG"
    assert np.allclose(record.ca_coords[:, 0], [0.0, 3.8, 7.6])


def test_parse_skips_unknown_residue_with_warning(caplog):
    text = "\n".join(
        [
            _ca_line(1, "ALA", "A", 1, 0.0, 0.0, 0.0),
            _ca_line(2, "XYZ", "A", 2, 3.8, 0.0, 0.0),
            _ca_line(3, "GLY", "A", 3, 7.6, 0.0, 0.0),
        ]
    )
    with caplog.at_level(logging.WARNING, logger="geopro.data"):
        record = data.parse_pdb_ca(text, "A")
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any("unknown residue" in m for m in messages)
    # The skipped residue leaves a long CA step, which also warns.
    assert any("outside" in m for m in messages)
    assert record.residue_string == "AG"


def test_parse_empty_chain_is_an_error():
    with pytest.raises(DataError):
        data.parse_pdb_ca(SINGLE_LINE, "Q")


@pytest.mark.parametrize(
    "columns, value, what",
    [((22, 26), "   X", "residue number"), ((38, 46), "  12.0ab", "coordinate")],
)
def test_parse_bad_field_names_its_line(columns, value, what):
    good = _ca_line(1, "ALA", "A", 1, 0.0, 0.0, 0.0)
    bad = _ca_line(2, "GLY", "A", 2, 3.8, 0.0, 0.0)
    bad = bad[:columns[0]] + value + bad[columns[1]:]
    with pytest.raises(DataError, match="line 3: bad %s" % what):
        data.parse_pdb_ca("\n".join([good, "REMARK", bad]), "A")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_non_finite_coordinate_is_an_error(value):
    line = SINGLE_LINE[:30] + "%8s" % value + SINGLE_LINE[38:]
    with pytest.raises(DataError, match="line 1: non-finite"):
        data.parse_pdb_ca(line, "A")


def test_pdb_round_trip():
    rng = np.random.default_rng(0)
    coords = _chain_coords(6) + np.round(rng.normal(scale=0.1, size=(6, 3)), 3)
    record = data.ProteinRecord.from_parts("toy", "ACDEFG", coords)
    text = data.emit_pdb_ca(record)
    parsed = data.parse_pdb_ca(text, "A", record_id="toy")
    assert parsed.record_id == record.record_id
    assert np.array_equal(parsed.sequence, record.sequence)
    assert np.array_equal(parsed.ca_coords, np.round(record.ca_coords, 3))


def test_record_invariants(caplog):
    with pytest.raises(ContractError):
        data.ProteinRecord("bad", encode_sequence("AC"), _chain_coords(3))
    with pytest.raises(ContractError):
        data.ProteinRecord("empty", np.array([], dtype=np.int64), np.zeros((0, 3)))
    with pytest.raises(ContractError):
        data.ProteinRecord("masked", np.array([0, 20]), _chain_coords(2))
    with caplog.at_level(logging.WARNING, logger="geopro.data"):
        data.ProteinRecord.from_parts("far", "AC", [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    assert any(r.levelno == logging.WARNING and "outside" in r.getMessage()
               for r in caplog.records)


def test_parse_fasta_cases():
    assert data.parse_fasta(">p1\nACD\nEFG") == [("p1", "ACDEFG")]
    assert data.parse_fasta("") == []
    two = data.parse_fasta(">a\nAC\n\n\n>b desc words\nGH\n")
    assert two == [("a", "AC"), ("b", "GH")]
    with pytest.raises(ParseError, match="line 2"):
        data.parse_fasta(">p1\nAC1")
    with pytest.raises(ParseError, match="line 1"):
        data.parse_fasta("ACDE\n>p1\nAC")
    for text, lineno in ((">\nAAA", 1), ("> \nAAA", 1), (">a\nAC\n>\t\nAAA", 3)):
        with pytest.raises(ParseError, match="line %d: FASTA header has no id" % lineno):
            data.parse_fasta(text)


def test_alignment_validation():
    with pytest.raises(ContractError):
        data.Alignment(rows=[("a", "AC-"), ("b", "AC")], reference_id="a")
    with pytest.raises(ContractError):
        data.Alignment(rows=[("a", "AC-")], reference_id="missing")
    aln = data.parse_alignment(">a\nAC-\n>b\nACC\n", "a")
    assert aln.width == 3
    assert aln.reference_row == "AC-"


def test_extract_motif_hand_cases():
    aln = data.Alignment(
        rows=[("ref", "HA-A"), ("r2", "HAWA"), ("r3", "HCWA"), ("r4", "HCW-")],
        reference_id="ref",
    )
    # Column 0 is fully conserved; column 3 reaches 3/4 because the gap
    # stays in the denominator; column 2 is conserved but the reference
    # has a gap there so it cannot map back.
    assert data.extract_motif(aln, 0.8) == [0]
    assert data.extract_motif(aln, 0.7) == [0, 2]

    flexible = data.Alignment(
        rows=[("ref", "A"), ("r2", "A"), ("r3", "C"), ("r4", "C")],
        reference_id="ref",
    )
    assert data.extract_motif(flexible, 0.8) == []


def test_extract_motif_contracts_and_invariance():
    aln = data.Alignment(
        rows=[("ref", "--"), ("r2", "AC")], reference_id="ref"
    )
    with pytest.raises(ContractError):
        data.extract_motif(aln, 0.5)
    with pytest.raises(DomainError):
        data.extract_motif(
            data.Alignment(rows=[("ref", "AC")], reference_id="ref"), 0.0
        )
    with pytest.raises(DomainError):
        data.extract_motif(
            data.Alignment(rows=[("ref", "AC")], reference_id="ref"), 1.5
        )

    rng = np.random.default_rng(1)
    letters = np.array(list("ACDEFGHIKLMNPQRSTVWY-"))
    rows = [("row%d" % i, "".join(rng.choice(letters, size=12))) for i in range(6)]
    rows[0] = ("row0", rows[0][1].replace("-", "A"))
    aln = data.Alignment(rows=rows, reference_id="row0")
    motif = data.extract_motif(aln, 0.5)
    assert all(0 <= p < 12 for p in motif)

    reordered = data.Alignment(rows=rows[::-1], reference_id="row0")
    assert data.extract_motif(reordered, 0.5) == motif


def test_columns_map_to_each_row():
    aln = data.Alignment(
        rows=[("ref", "HA-A"), ("r2", "H-WA")], reference_id="ref"
    )
    cols = [0, 2, 3]
    assert data.columns_to_positions(aln, "ref", cols) == [0, 2]
    assert data.columns_to_positions(aln, "r2", cols) == [0, 1, 2]


def _toy_records(n, length=30):
    coords = _chain_coords(length)
    return [
        data.ProteinRecord("rec%02d" % i, np.full(length, i % 20), coords)
        for i in range(n)
    ]


def test_split_partitions_and_determinism():
    records = _toy_records(10)
    train, valid, test = data.filter_and_split(records, min_len=5, seed=42)
    assert (len(train), len(valid), len(test)) == (8, 1, 1)
    ids = [r.record_id for r in train + valid + test]
    assert sorted(ids) == sorted(r.record_id for r in records)
    assert len(set(ids)) == len(ids)

    again = data.filter_and_split(records, min_len=5, seed=42)
    assert [r.record_id for r in again[0]] == [r.record_id for r in train]

    other = data.filter_and_split(records, min_len=5, seed=43)
    assert [r.record_id for r in other[0]] != [r.record_id for r in train]


def test_split_filters_and_rejects_empty():
    short = data.ProteinRecord("short", np.zeros(150, dtype=np.int64), _chain_coords(150))
    long = data.ProteinRecord("long", np.zeros(250, dtype=np.int64), _chain_coords(250))
    train, valid, test = data.filter_and_split([short, long], min_len=200, seed=0)
    assert [r.record_id for r in train + valid + test] == ["long"]
    with pytest.raises(DataError):
        data.filter_and_split([short], min_len=200, seed=0)


def test_remainder_goes_to_train():
    train, valid, test = data.filter_and_split(_toy_records(13), min_len=1, seed=7)
    assert (len(train), len(valid), len(test)) == (11, 1, 1)


def test_allow_list_parsing():
    text = "# header comment\n1abc\n  2def  # trailing note\n\n#3ghi\n"
    assert data.parse_allow_list(text) == {"1abc", "2def"}


def test_split_manifest_round_trip():
    records = _toy_records(5)
    train, valid, test = data.filter_and_split(records, min_len=1, seed=3)
    text = data.format_split_manifest(train, valid, test)
    mapping = data.parse_split_manifest(text)
    assert len(mapping) == 5
    for r in valid:
        assert mapping[r.record_id] == "valid"
    with pytest.raises(ParseError):
        data.parse_split_manifest("wrong,header\nx,train\n")
    with pytest.raises(ParseError):
        data.parse_split_manifest("id,split\nx,weird\n")


def test_tables_honour_csv_quoting_and_skip_blank_lines():
    train, valid = _toy_records(2)
    train.record_id = 'a,"b"'
    text = data.format_split_manifest([train], [valid], [])
    assert text == 'id,split\n"a,""b""",train\nrec01,valid\n'
    assert data.parse_split_manifest(text.replace("\n", "\n\n  \n")) == {
        'a,"b"': "train", "rec01": "valid"}
