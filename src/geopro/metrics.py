"""Sequence and structure evaluation: recovery and deviation.

Collects per-candidate rows of sequence recovery (over all positions
and over the designed positions only), coordinate deviation in the
anchored frame and after optimal superposition, TM-score, and an
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


class EvalRow:
    """One candidate's metrics."""

    __slots__ = ("row_id",) + METRIC_COLUMNS

    def __init__(self, row_id, aar_all, aar_nonmotif, rmsd_superposed,
                 rmsd_anchored, tm, plddt=None):
        if not 0.0 <= aar_all <= 1.0 or not 0.0 <= aar_nonmotif <= 1.0:
            raise ContractError("recovery rates must lie in [0, 1]")
        if rmsd_superposed < 0.0 or rmsd_anchored < 0.0:
            raise ContractError("deviations must be non-negative")
        if not 0.0 < tm <= 1.0:
            raise ContractError("TM-score must lie in (0, 1]")
        self.row_id = row_id
        self.aar_all = aar_all
        self.aar_nonmotif = aar_nonmotif
        self.rmsd_superposed = rmsd_superposed
        self.rmsd_anchored = rmsd_anchored
        self.tm_score = tm
        self.plddt = plddt

    def values(self):
        return {name: getattr(self, name) for name in METRIC_COLUMNS}


class EvalReport:
    """Rows sorted by id plus mean/median summaries computed from them."""

    def __init__(self, rows):
        self.rows = sorted(rows, key=lambda r: r.row_id)
        seen = set()
        for row in self.rows:
            if row.row_id in seen:
                raise ContractError("duplicate candidate id %r" % row.row_id)
            seen.add(row.row_id)

    def summary(self):
        """{column: (mean, median)} over rows; confidence only if present."""
        out = {}
        for name in METRIC_COLUMNS:
            values = [
                getattr(r, name) for r in self.rows if getattr(r, name) is not None
            ]
            if values:
                out[name] = (statistics.fmean(values), statistics.median(values))
        return out


def _confidence(cell):
    value = float(cell)
    if not np.isfinite(value):
        raise ValueError(cell)
    return value


def parse_plddt_csv(text):
    """Parse an `id,plddt` CSV with header into an id -> finite float mapping."""
    return parse_table(text, "plddt", _confidence)


def evaluate_candidates(candidates, record, motif, plddt_text=None):
    """Score (id, sequence, coords) candidates against the reference
    ``record`` they were designed for under ``motif``.

    A confidence CSV, when given, joins by id; ids it does not cover keep
    an empty confidence field.
    """
    plddt = parse_plddt_csv(plddt_text) if plddt_text is not None else {}
    length = record.length
    flexible = np.setdiff1d(np.arange(length), motif.positions)
    rows = []
    for cand_id, sequence, coords in candidates:
        if sequence.shape[0] != length:
            raise DataError(
                "candidate %r length %d does not match target length %d"
                % (cand_id, sequence.shape[0], length)
            )
        rows.append(
            EvalRow(
                row_id=cand_id,
                aar_all=aar(sequence, record.sequence, range(length)),
                aar_nonmotif=aar(sequence, record.sequence, flexible),
                rmsd_superposed=superposed_rmsd(coords, record.ca_coords),
                rmsd_anchored=coordinate_rmsd(coords, record.ca_coords),
                tm=tm_score(coords, record.ca_coords, length),
                plddt=plddt.get(cand_id),
            )
        )
    return EvalReport(rows)


# ---------------------------------------------------------------------------
# report output


def _report_rows(report):
    """Header, then one row per candidate, then mean and median rows;
    a cell with no value is None."""
    rows = [("id",) + METRIC_COLUMNS]
    for row in report.rows:
        rows.append([row.row_id] + [row.values()[c] for c in METRIC_COLUMNS])
    summary = report.summary()
    for stat, pick in (("mean", 0), ("median", 1)):
        rows.append([stat] + [summary[c][pick] if c in summary else None
                              for c in METRIC_COLUMNS])
    return rows


def report_csv(report):
    """One CSV row per candidate, then mean and median summary rows."""
    return format_csv(_report_rows(report))


def report_text(report):
    """Fixed-width table for terminals."""
    rows = [[format_cell(value) for value in row] for row in _report_rows(report)]
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
