"""Sequence and structure evaluation: recovery and deviation.

Scores each candidate in one table row: sequence recovery (over all
positions and over the designed positions only), coordinate deviation in
the anchored frame and after optimal superposition, TM-score, and an
optional externally computed confidence joined from a CSV file.
"""

import logging
import statistics

import numpy as np

from .data import format_cell, format_csv, parse_table
from .errors import ContractError, DataError
from .geometry import coordinate_rmsd, superposed_rmsd, tm_score

METRIC_COLUMNS = (
    "aar_all",
    "aar_nonmotif",
    "rmsd_superposed",
    "rmsd_anchored",
    "tm_score",
    "plddt",
)

log = logging.getLogger(__name__)


def aar(designed, target, scored):
    """Fraction of scored positions where the two sequences agree.

    An empty scored set counts as full recovery (there was nothing to
    design), reported in a logged warning.
    """
    designed = np.asarray(designed, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    if designed.shape != target.shape or designed.ndim != 1:
        raise ContractError(
            "sequence shapes disagree: %s vs %s" % (designed.shape, target.shape)
        )
    scored = np.asarray(sorted(set(int(i) for i in scored)), dtype=np.int64)
    if scored.size == 0:
        log.warning("recovery over an empty position set is defined as 1.0")
        return 1.0
    if scored[0] < 0 or scored[-1] >= designed.shape[0]:
        raise ContractError(
            "scored positions must lie in [0, %d)" % designed.shape[0]
        )
    return float(np.mean(designed[scored] == target[scored]))


def _confidence(cell):
    value = float(cell)
    if not np.isfinite(value):
        raise ValueError(cell)
    return value


def parse_plddt_csv(text):
    """Parse an `id,plddt` CSV with header into an id -> finite float mapping."""
    return parse_table(text, "plddt", _confidence)


def evaluate_candidates(candidates, record, motif, plddt=None):
    """The report of (id, sequence, coords) candidates scored against the
    reference ``record`` they were designed for under ``motif``.

    The header row, then one row per candidate in id order, then ``mean``
    and ``median`` rows over each column's values.  ``plddt`` maps ids to
    an external confidence; a cell with no value is None.
    """
    plddt = plddt or {}
    length = record.length
    flexible = np.setdiff1d(np.arange(length), motif.positions)
    rows = []
    for cand_id, sequence, coords in candidates:
        if sequence.shape[0] != length:
            raise DataError(
                "candidate %r length %d does not match target length %d"
                % (cand_id, sequence.shape[0], length)
            )
        rows.append([
            cand_id,
            aar(sequence, record.sequence, range(length)),
            aar(sequence, record.sequence, flexible),
            superposed_rmsd(coords, record.ca_coords),
            coordinate_rmsd(coords, record.ca_coords),
            tm_score(coords, record.ca_coords, length),
            plddt.get(cand_id),
        ])
    rows.sort(key=lambda row: row[0])
    for row, after in zip(rows, rows[1:]):
        if row[0] == after[0]:
            raise ContractError("duplicate candidate id %r" % row[0])
    columns = [[row[i] for row in rows if row[i] is not None]
               for i in range(1, len(METRIC_COLUMNS) + 1)]
    summary = [[name] + [stat(values) if values else None for values in columns]
               for name, stat in (("mean", statistics.fmean), ("median", statistics.median))]
    return [("id",) + METRIC_COLUMNS] + rows + summary


def report_text(table):
    """``evaluate_candidates``' table as fixed-width text for terminals."""
    rows = [[format_cell(value) for value in row] for row in table]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    rows.insert(1, ["-" * w for w in widths])
    return "".join("  ".join(v.ljust(w) for v, w in zip(r, widths)) + "\n" for r in rows)


def export_embeddings(named_features):
    """CSV of per-position feature rows: id, position, then one column
    per feature dimension."""
    if not named_features:
        raise ContractError("nothing to export")
    width = np.asarray(named_features[0][1]).shape[1]
    rows = [["id", "pos"] + ["dim%d" % i for i in range(width)]]
    for name, features in named_features:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != width:
            raise ContractError(
                "feature block %r has shape %s, expected (*, %d)"
                % (name, features.shape, width)
            )
        rows += [[name, pos] + list(row) for pos, row in enumerate(features)]
    return format_csv(rows)
