"""Ingestion: backbone extraction, FASTA, alignments, motifs, splits.

Everything here is pure text-in / objects-out; file IO and path handling
belong to the command-line layer.
"""

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, DimensionError, DomainError, ParseError
from .seqmodel import AMINO_ACIDS, RESIDUE_COUNT, decode_sequence, encode_sequence

THREE_TO_ONE = {
    "ALA": "A", "ARG": "R", "ASN": "N", "ASP": "D", "CYS": "C",
    "GLN": "Q", "GLU": "E", "GLY": "G", "HIS": "H", "ILE": "I",
    "LEU": "L", "LYS": "K", "MET": "M", "PHE": "F", "PRO": "P",
    "SER": "S", "THR": "T", "TRP": "W", "TYR": "Y", "VAL": "V",
}
ONE_TO_THREE = {one: three for three, one in THREE_TO_ONE.items()}

CA_DISTANCE_RANGE = (2.8, 4.5)


@dataclass
class ProteinRecord:
    """One chain: an id, residue tokens, and one CA coordinate per residue."""

    record_id: str
    sequence: np.ndarray
    ca_coords: np.ndarray

    def __post_init__(self):
        self.sequence = np.asarray(self.sequence, dtype=np.int64)
        self.ca_coords = np.asarray(self.ca_coords, dtype=np.float64)
        if self.sequence.ndim != 1:
            raise DimensionError("sequence must be 1-D tokens")
        if self.ca_coords.ndim != 2 or self.ca_coords.shape[1] != 3:
            raise DimensionError(
                "ca_coords must be (L, 3), got %s" % (self.ca_coords.shape,)
            )
        if self.sequence.shape[0] == 0:
            raise ContractError("record %r is empty" % self.record_id)
        if self.sequence.shape[0] != self.ca_coords.shape[0]:
            raise ContractError(
                "record %r has %d residues but %d coordinates"
                % (self.record_id, self.sequence.shape[0], self.ca_coords.shape[0])
            )
        if self.sequence.min() < 0 or self.sequence.max() >= RESIDUE_COUNT:
            raise ContractError(
                "record %r contains non-residue tokens" % self.record_id
            )
        if self.length > 1:
            steps = np.linalg.norm(np.diff(self.ca_coords, axis=0), axis=1)
            low, high = CA_DISTANCE_RANGE
            bad = np.flatnonzero((steps < low) | (steps > high))
            if bad.size:
                warnings.warn(
                    "record %r: %d consecutive CA distances outside [%.1f, %.1f] "
                    "Angstrom (first at residue %d: %.2f)"
                    % (self.record_id, bad.size, low, high, bad[0], steps[bad[0]])
                )

    @property
    def length(self):
        return int(self.sequence.shape[0])

    @property
    def residue_string(self):
        return decode_sequence(self.sequence)

    @classmethod
    def from_parts(cls, record_id, residues, ca_coords):
        return cls(record_id, encode_sequence(residues), np.asarray(ca_coords))


def _pdb_field(field, kind, what, lineno):
    try:
        return kind(field)
    except ValueError:
        raise DataError("line %d: bad %s field %r" % (lineno, what, field)) from None


def parse_pdb_ca(text, chain, record_id=None):
    """Extract the CA trace of one chain from fixed-column PDB content.

    Keeps ATOM records named CA with a blank or 'A' alternate-location
    flag, orders residues by (residue number, insertion code), and skips
    residues whose 3-letter name is unknown, warning about the gap each
    leaves behind.  A kept line whose residue number or coordinates do not
    parse, or whose coordinates are not finite, raises ``DataError`` with
    its line number.
    """
    found = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("ATOM"):
            continue
        if len(line) < 54 or line[12:16].strip() != "CA":
            continue
        if line[21] != chain:
            continue
        if line[16] not in (" ", "A"):
            continue
        key = (_pdb_field(line[22:26], int, "residue number", lineno), line[26])
        if key in found:
            continue
        res_name = line[17:20].strip()
        one = THREE_TO_ONE.get(res_name)
        if one is None:
            warnings.warn(
                "unknown residue %r at %s%s in chain %s: skipping, which leaves "
                "a gap in the chain" % (res_name, key[0], key[1].strip(), chain)
            )
            continue
        coords = tuple(
            _pdb_field(line[start:start + 8], float, "coordinate", lineno)
            for start in (30, 38, 46)
        )
        if not all(np.isfinite(coords)):
            raise DataError("line %d: non-finite coordinate in %r" % (lineno, line[30:54]))
        found[key] = (one, coords)
    if not found:
        raise DataError("no CA atoms found for chain %r" % chain)
    ordered = sorted(found)
    residues = "".join(found[k][0] for k in ordered)
    coords = np.array([found[k][1] for k in ordered])
    if record_id is None:
        record_id = "chain_%s" % chain
    return ProteinRecord.from_parts(record_id, residues, coords)


def emit_pdb_ca(record, chain="A"):
    """Serialize a record as CA-only ATOM lines (3-decimal coordinates)."""
    lines = []
    for i in range(record.length):
        res3 = ONE_TO_THREE[AMINO_ACIDS[record.sequence[i]]]
        x, y, z = record.ca_coords[i]
        lines.append(
            "ATOM  %5d  CA  %3s %s%4d    %8.3f%8.3f%8.3f%6.2f%6.2f          %2s"
            % (i + 1, res3, chain, i + 1, x, y, z, 1.0, 0.0, "C")
        )
    lines.append("TER")
    return "\n".join(lines) + "\n"


def parse_fasta(text, alphabet=None):
    """Parse FASTA text into (id, sequence) pairs; an id is the first
    word of its header, and a header without one raises.

    ``alphabet`` defaults to the amino-acid letters plus '-' so aligned
    rows pass through; anything else raises with its line number.
    """
    if alphabet is None:
        alphabet = set(AMINO_ACIDS) | {"-"}
    records = []
    current_id = None
    parts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if current_id is not None:
                records.append((current_id, "".join(parts)))
            words = line[1:].split()
            if not words:
                raise ParseError("line %d: FASTA header has no id" % lineno)
            current_id = words[0]
            parts = []
            continue
        if current_id is None:
            raise ParseError("line %d: sequence data before any '>' header" % lineno)
        for ch in line:
            if ch not in alphabet:
                raise ParseError("line %d: invalid character %r" % (lineno, ch))
        parts.append(line)
    if current_id is not None:
        records.append((current_id, "".join(parts)))
    return records


@dataclass
class Alignment:
    """Equal-length aligned rows plus the id of the reference row."""

    rows: list
    reference_id: str

    def __post_init__(self):
        if not self.rows:
            raise ContractError("alignment has no rows")
        width = len(self.rows[0][1])
        for row_id, seq in self.rows:
            if len(seq) != width:
                raise ContractError(
                    "row %r has length %d, expected %d" % (row_id, len(seq), width)
                )
        if self.reference_id not in {row_id for row_id, _ in self.rows}:
            raise ContractError(
                "reference row %r not present in alignment" % self.reference_id
            )

    @property
    def width(self):
        return len(self.rows[0][1])

    def row(self, row_id):
        for rid, seq in self.rows:
            if rid == row_id:
                return seq
        raise ContractError("row %r not present in alignment" % row_id)

    @property
    def reference_row(self):
        return self.row(self.reference_id)


def parse_alignment(text, reference_id):
    return Alignment(rows=parse_fasta(text), reference_id=reference_id)


def conserved_columns(aln, threshold):
    """Alignment columns whose modal residue fraction reaches the threshold.

    The fraction counts the most common non-gap residue against the
    total number of rows, so gaps dilute conservation.
    """
    if not 0.0 < threshold <= 1.0:
        raise DomainError("threshold must be in (0, 1], got %r" % threshold)
    n_rows = len(aln.rows)
    out = []
    for col in range(aln.width):
        counts = Counter(seq[col] for _, seq in aln.rows if seq[col] != "-")
        if counts and max(counts.values()) / n_rows >= threshold:
            out.append(col)
    return out


def columns_to_positions(aln, row_id, columns):
    """Map alignment columns to ungapped positions of one row.

    Columns where the row has a gap are dropped; the result is sorted.
    """
    seq = aln.row(row_id)
    wanted = set(columns)
    positions = []
    pos = 0
    for col, ch in enumerate(seq):
        if ch == "-":
            continue
        if col in wanted:
            positions.append(pos)
        pos += 1
    return positions


def extract_motif(aln, threshold):
    """Conserved-column positions in reference-sequence coordinates."""
    if set(aln.reference_row) == {"-"}:
        raise ContractError("reference row is all gaps")
    return columns_to_positions(aln, aln.reference_id, conserved_columns(aln, threshold))


def filter_and_split(records, min_len, ratios=(8, 1, 1), seed=0):
    """Length-filter, shuffle, and partition records into train/valid/test.

    Records with length <= ``min_len`` are dropped.  The valid and test
    sizes are floored from the ratios; whatever remains goes to train.
    The shuffle is fully determined by the seed.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ContractError("ratios must be three positive numbers, got %r" % (ratios,))
    kept = [r for r in records if r.length > min_len]
    if not kept:
        raise DataError("no records longer than %d to split" % min_len)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(kept))
    shuffled = [kept[i] for i in order]
    total = len(shuffled)
    denom = float(sum(ratios))
    n_valid = int(total * ratios[1] / denom)
    n_test = int(total * ratios[2] / denom)
    n_train = total - n_valid - n_test
    train = shuffled[:n_train]
    valid = shuffled[n_train:n_train + n_valid]
    test = shuffled[n_train + n_valid:]
    return train, valid, test


def parse_allow_list(text):
    """Ids from an allow-list: one per line, '#' starts a comment."""
    out = []
    for raw in text.splitlines():
        entry = raw.split("#", 1)[0].strip()
        if entry:
            out.append(entry)
    return set(out)


def format_split_manifest(train, valid, test):
    """CSV manifest recording which split each record landed in."""
    lines = ["id,split"]
    for name, group in (("train", train), ("valid", valid), ("test", test)):
        for record in group:
            lines.append("%s,%s" % (record.record_id, name))
    return "\n".join(lines) + "\n"


def parse_split_manifest(text):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "id,split":
        raise ParseError("split manifest must start with an 'id,split' header")
    out = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2 or parts[1] not in ("train", "valid", "test"):
            raise ParseError("line %d: expected 'id,split_name'" % lineno)
        out[parts[0]] = parts[1]
    return out
