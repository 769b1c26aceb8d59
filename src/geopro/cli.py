"""Command-line workflows tying data, training, design, and checks together.

Datasets on disk are a directory of CA-only PDB files plus
``sequences.fasta``, ``motifs.csv`` (``id,positions`` with ';'-joined
indices), and optionally ``splits.csv``.  Every command that draws
random numbers draws them from one seed through named substreams
(``train``: the config key ``seed``), and every output file is written
atomically by ``pipeline.write_atomic``.
"""

import argparse
import dataclasses
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from . import autodiff as ad
from . import bound as bd
from . import checks as ck
from . import data as dt
from . import metrics as mx
from . import pipeline as pl
from . import seqmodel as sm
from .errors import ConfigError, DataError, GeoproError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SUITE = 3

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures map to exit code 1."""

    def error(self, message):
        raise _UsageError("%s: %s" % (self.prog, message))


# ---------------------------------------------------------------------------
# small file helpers


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError("cannot read %s: %s" % (path, exc)) from None


def _format_positions(positions):
    return ";".join(str(int(p)) for p in positions)


def _parse_positions(text):
    try:
        return [int(tok) for tok in text.split(";") if tok.strip() != ""]
    except ValueError:
        raise DataError("bad position list %r" % text) from None


def parse_positions_file(text):
    """Motif positions, one per line; '#' starts a comment."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise DataError("line %d: %r is not a position" % (lineno, raw)) from None
    return out


# ---------------------------------------------------------------------------
# records and dataset directory layout


def write_records(out_dir, fasta_name, records, headers):
    """Write each record to ``<id>.pdb`` and all of them to the FASTA file
    ``fasta_name``; ``headers[i]``, the text after the '>', starts with
    the id of ``records[i]``."""
    pl.make_dirs(out_dir)
    for record in records:
        path = os.path.join(out_dir, "%s.pdb" % record.record_id)
        pl.write_atomic(path, dt.emit_pdb_ca(record))
    fasta = [">%s\n%s" % (h, r.residue_string) for r, h in zip(records, headers)]
    pl.write_atomic(os.path.join(out_dir, fasta_name), "\n".join(fasta) + "\n")


def read_records(dir_path, fasta_name):
    """The records ``write_records`` wrote, in FASTA order; a record whose
    PDB residues differ from its FASTA letters raises ``DataError``."""
    records = []
    for rec_id, letters in dt.parse_fasta(_read_text(os.path.join(dir_path, fasta_name))):
        text = _read_text(os.path.join(dir_path, "%s.pdb" % rec_id))
        record = dt.parse_pdb_ca(text, chain=dt.PDB_CHAIN, record_id=rec_id)
        if record.residue_string != letters:
            raise DataError("sequence mismatch for %r between %s and its PDB file"
                            % (rec_id, fasta_name))
        records.append(record)
    return records


def write_dataset(out_dir, examples, splits=None):
    """Write (record, motif) pairs as PDB + FASTA + motif table files.

    A motif may be None; ``motifs.csv`` is written only when some
    example has one.
    """
    records = [record for record, _ in examples]
    write_records(out_dir, "sequences.fasta", records, [r.record_id for r in records])
    motif_rows = ["id,positions"] + [
        "%s,%s" % (record.record_id, _format_positions(motif.positions))
        for record, motif in examples if motif is not None
    ]
    if len(motif_rows) > 1:
        pl.write_atomic(
            os.path.join(out_dir, "motifs.csv"), "\n".join(motif_rows) + "\n"
        )
    if splits is not None:
        train, valid, test = splits
        pl.write_atomic(
            os.path.join(out_dir, "splits.csv"),
            dt.format_split_manifest(train, valid, test),
        )


def read_dataset(dir_path, motif_positions=None):
    """Load a dataset directory back into (record, motif) pairs by id.

    ``motif_positions`` substitutes one shared position list when the
    directory has no motif table.
    """
    motif_map = {}
    motif_path = os.path.join(dir_path, "motifs.csv")
    if os.path.exists(motif_path):
        lines = _read_text(motif_path).splitlines()
        if not lines or lines[0].strip() != "id,positions":
            raise DataError("%s must start with an 'id,positions' header" % motif_path)
        for line in lines[1:]:
            if not line.strip():
                continue
            rec_id, _, tail = line.partition(",")
            motif_map[rec_id] = _parse_positions(tail)
    examples = {}
    for record in read_records(dir_path, "sequences.fasta"):
        rec_id = record.record_id
        if rec_id in motif_map:
            positions = motif_map[rec_id]
        elif motif_positions is not None:
            positions = motif_positions
        else:
            raise DataError(
                "no motif for %r: add motifs.csv or pass --motif-file" % rec_id
            )
        examples[rec_id] = (record, pl.motif_from_record(record, positions))
    splits = None
    split_path = os.path.join(dir_path, "splits.csv")
    if os.path.exists(split_path):
        splits = dt.parse_split_manifest(_read_text(split_path))
    return examples, splits


def _split_examples(examples, splits):
    if splits is None:
        return list(examples.values()), []
    train, valid = [], []
    for rec_id, example in sorted(examples.items()):
        side = splits.get(rec_id, "train")
        if side == "valid":
            valid.append(example)
        elif side == "train":
            train.append(example)
    return train, valid


# ---------------------------------------------------------------------------
# model plumbing


def _config_from_args(args, fallback_path=None):
    """Config from ``--config`` (else ``fallback_path``), then the flags
    the user typed.

    Every ``args`` attribute named after a ``TrainingConfig`` field is a
    config flag; the parser leaves it None unless the flag was given.
    """
    path = args.config or fallback_path
    overrides = {
        f.name: getattr(args, f.name) for f in dataclasses.fields(pl.TrainingConfig)
        if getattr(args, f.name, None) is not None
    }
    return pl.build_config(
        file_text=_read_text(path) if path else None, overrides=overrides
    )


def _load_model(args):
    sidecar = "%s.config" % args.checkpoint
    if not args.config and not os.path.exists(sidecar):
        raise ConfigError(
            "no config available: pass --config or keep the checkpoint's "
            "sidecar file"
        )
    model = pl.build_model(_config_from_args(args, sidecar))
    pl.load_checkpoint(args.checkpoint, model)
    return model


# ---------------------------------------------------------------------------
# subcommands


def _cmd_prepare(args):
    allowed = sorted(dt.parse_allow_list(_read_text(args.allow_list)))
    records = []
    for rec_id in allowed:
        text = _read_text(os.path.join(args.pdb_dir, "%s.pdb" % rec_id))
        records.append(dt.parse_pdb_ca(text, chain=args.chain, record_id=rec_id))
    train, valid, test = dt.filter_and_split(records, args.min_len, seed=args.seed)
    kept = train + valid + test
    write_dataset(args.out, [(record, None) for record in kept],
                  splits=(train, valid, test))
    print(
        "prepared %d records (%d train / %d valid / %d test) into %s"
        % (len(kept), len(train), len(valid), len(test), args.out)
    )
    return EXIT_OK


def _cmd_motif(args):
    aln = dt.parse_alignment(_read_text(args.alignment), args.reference)
    positions = dt.extract_motif(aln, args.conservation)
    body = "".join("%d\n" % p for p in positions)
    pl.write_atomic(args.out, body)
    print("%d conserved positions -> %s" % (len(positions), args.out))
    return EXIT_OK


def _cmd_synth(args):
    examples = pl.generate_synthetic_dataset(
        args.n, args.length, args.motif_frac, seed=args.seed
    )
    write_dataset(args.out, examples)
    print("wrote %d synthetic chains of length %d to %s"
          % (args.n, args.length, args.out))
    return EXIT_OK


def _cmd_train(args):
    config = _config_from_args(args)
    motif_positions = (
        parse_positions_file(_read_text(args.motif_file)) if args.motif_file else None
    )
    curve_path = args.curve or "%s.curve.csv" % args.out
    for path in (args.out, curve_path):
        pl.check_writable(path)
    examples, splits = read_dataset(args.data, motif_positions)
    train_set, valid_set = _split_examples(examples, splits)
    model = pl.build_model(config)
    history = pl.train(
        train_set, config, model,
        valid_set=valid_set or None,
        checkpoint_path=args.out if valid_set else None,
    )
    if not valid_set:
        pl.save_checkpoint(args.out, model)
    pl.write_atomic("%s.config" % args.out, pl.format_config(config))
    rows = ["epoch,train_total,train_backbone,train_sequence,valid_total"]
    for h in history:
        valid_cell = "" if math.isnan(h.valid_total) else "%.10g" % h.valid_total
        rows.append("%d,%.10g,%.10g,%.10g,%s" % (
            h.epoch, h.train_total, h.train_backbone, h.train_sequence, valid_cell,
        ))
    pl.write_atomic(curve_path, "\n".join(rows) + "\n")
    if history:
        print("trained %d epochs; final train loss %.6g; checkpoint %s"
              % (len(history), history[-1].train_total, args.out))
    else:
        print("no training steps requested; checkpoint %s" % args.out)
    return EXIT_OK


def _cmd_design(args):
    model = _load_model(args)
    examples, _ = read_dataset(args.data)
    if args.record_id not in examples:
        raise DataError("record %r not in %s" % (args.record_id, args.data))
    record, motif = examples[args.record_id]
    length = args.length if args.length is not None else record.length
    candidates = pl.design(
        motif, length, args.n, model.config.top_k, model,
        seed=args.stream_seed, pin_motif=args.pin_motif,
    )
    ids = ["cand%03d" % index for index in range(len(candidates))]
    write_records(
        args.out, "candidates.fasta",
        [dt.ProteinRecord(i, c.sequence, c.coords) for i, c in zip(ids, candidates)],
        ["%s seed=%d p=%.4f" % (i, c.seed, float(c.token_probs.mean()))
         for i, c in zip(ids, candidates)],
    )
    print("wrote %d candidates for %s to %s" % (args.n, args.record_id, args.out))
    return EXIT_OK


def _cmd_eval(args):
    examples, _ = read_dataset(args.data)
    if args.record_id not in examples:
        raise DataError("record %r not in %s" % (args.record_id, args.data))
    record, motif = examples[args.record_id]
    candidates = [(c.record_id, c.sequence, c.ca_coords)
                  for c in read_records(args.candidates, "candidates.fasta")]
    plddt_text = _read_text(args.plddt) if args.plddt else None
    report = mx.evaluate_candidates(candidates, record, motif, plddt_text)
    pl.write_atomic(args.out, mx.report_csv(report))
    print(mx.report_text(report), end="")
    return EXIT_OK


def _cmd_export_emb(args):
    model = _load_model(args)
    examples, _ = read_dataset(args.data)
    wanted = args.record_id or sorted(examples)
    blocks = []
    for rec_id in wanted:
        if rec_id not in examples:
            raise DataError("record %r not in %s" % (rec_id, args.data))
        record, motif = examples[rec_id]
        rng = pl.substream(args.stream_seed, "export-%s" % rec_id)
        _, feats, _ = pl.forward_joint(record, motif, model, rng)
        blocks.append((rec_id, feats.data))
    pl.write_atomic(args.out, mx.export_embeddings(blocks))
    print("exported %d feature blocks to %s" % (len(blocks), args.out))
    return EXIT_OK


def _cmd_bound_demo(args):
    rng = np.random.default_rng(args.seed)
    excess, violations = ck.bound_excess(
        rng, args.instances, appendix_sign=args.appendix_sign
    )
    mode = "appendix sign" if args.appendix_sign else "statement sign"
    print("%s: inequality holds on %d/%d instances (min slack %.3e)"
          % (mode, args.instances - violations, args.instances, -excess))
    if args.appendix_sign:
        print("violations: %d/%d" % (violations, args.instances))
    inst = bd.two_cluster_coincident_instance()
    objective, upper, ok, slack = bd.verify_bound(inst, appendix_sign=args.appendix_sign)
    print("worked case: objective %.5f, bound %.5f, holds=%s"
          % (objective, upper, ok))
    return EXIT_OK


# ---------------------------------------------------------------------------
# property checks


def _cmd_check(args):
    """The acceptance criteria's property checks with fewer trials."""
    rng = np.random.default_rng(args.seed)
    equivariance = ck.equivariance(rng, 10)
    gradient = ck.pipeline_gradient(
        int(rng.integers(1 << 30)), int(rng.integers(1 << 30)), 123
    )
    invariance = ck.invariance(rng, 10)
    excess, violations = ck.bound_excess(rng, 200)
    objective, upper = ck.worked_case()
    worked_off = max(abs(objective - ck.PAPER_WORKED_CASE[0]),
                     abs(upper - ck.PAPER_WORKED_CASE[1]))
    results = (
        ("equivariance", equivariance < 1e-8, "max deviation %.3e" % equivariance),
        ("gradient", gradient < 1e-3, "worst relative error %.3e" % gradient),
        ("invariance", invariance < 1e-8, "max deviation %.3e" % invariance),
        ("theorem", violations == 0 and worked_off <= 1e-4,
         "%d/200 violations (worst objective-bound %.3e), worked case %.5f/%.5f"
         % (violations, excess, objective, upper)),
    )
    for name, ok, detail in results:
        print("%s %s (%s)" % ("PASS" if ok else "FAIL", name, detail))
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_SUITE


# ---------------------------------------------------------------------------
# parser wiring


def _int_at_least(low, message):
    """Argparse type of the integers from ``low`` up; ``message`` names
    the rule a rejected value breaks."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError("%s, got %r" % (message, text))
        return value
    return parse


# numpy seeds are non-negative integers
_seed = _int_at_least(0, "seed must be a non-negative integer")
# type of every count of things to make or check
_count = _int_at_least(1, "count must be a positive integer")


def _add_seed(parser):
    parser.add_argument("--seed", type=_seed, default=0,
                        help="base seed; all randomness derives from it")


def _add_stream_seed(parser):
    # Not the config key ``seed``: that one seeds the initial weights,
    # which the checkpoint overwrites.
    parser.add_argument("--seed", dest="stream_seed", metavar="SEED", type=_seed,
                        default=0, help="seed of the sampling streams")


# Flags that override config keys; each dest is the key it overrides.
_CONFIG_FLAGS = {
    "--alpha": dict(type=float, help="backbone loss weight"),
    "--beta": dict(type=float, help="sequence loss weight"),
    "--topk": dict(dest="top_k", type=int, help="sampling pool size"),
    "--radius": dict(type=float, help="initialization sphere radius"),
    "--feature-select": dict(choices=sm.FEATURE_SELECT_MODES,
                             help="decoder input selection mode"),
    "--seed": dict(type=_seed, help="seed of the initial weights, example order "
                                  "and initial coordinates"),
}


def _add_config_flags(parser, *flags):
    parser.add_argument("--config", help="key = value config file")
    for flag in flags:
        parser.add_argument(flag, **_CONFIG_FLAGS[flag])


def build_parser():
    parser = _Parser(prog="geopro", description=__doc__)
    parser.add_argument("--version", action="version",
                        version="geopro %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("prepare", help="PDB directory + allow-list -> dataset")
    p.add_argument("--pdb-dir", required=True)
    p.add_argument("--allow-list", required=True)
    p.add_argument("--chain", default="A")
    p.add_argument("--min-len", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(handler=_cmd_prepare)

    p = sub.add_parser("motif", help="aligned FASTA + threshold -> motif positions")
    p.add_argument("--alignment", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--lambda", dest="conservation", type=float, required=True,
                   help="column conservation threshold in (0, 1]")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_motif)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--motif-frac", type=float, required=True)
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--curve", help="loss curve CSV path")
    p.add_argument("--motif-file",
                   help="shared motif positions when motifs.csv is absent")
    _add_config_flags(p, "--alpha", "--beta", "--topk", "--radius",
                      "--feature-select", "--seed")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("design", help="sample candidates from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--record-id", required=True)
    p.add_argument("--n", type=_count, default=10)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--pin-motif", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="copy motif coordinates over predictions in outputs")
    _add_config_flags(p, "--topk", "--radius")
    _add_stream_seed(p)
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("eval", help="score candidates against their target")
    p.add_argument("--data", required=True)
    p.add_argument("--record-id", required=True)
    p.add_argument("--candidates", required=True, help="design output directory")
    p.add_argument("--plddt", help="optional id,plddt CSV to join")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("check", help="run the property checks")
    _add_seed(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("bound-demo", help="random-instance sweep of the bound")
    p.add_argument("--instances", type=_count, default=200)
    p.add_argument("--appendix-sign", action="store_true",
                   help="flip the sigmoid argument inside the bound")
    _add_seed(p)
    p.set_defaults(handler=_cmd_bound_demo)

    p = sub.add_parser("export-emb", help="dump per-position features to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--record-id", action="append", default=None,
                   help="record to export (repeatable; default: all)")
    p.add_argument("--out", required=True)
    _add_config_flags(p, "--radius")
    _add_stream_seed(p)
    p.set_defaults(handler=_cmd_export_emb)

    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is at that moment, so that
    an in-process caller that swaps ``sys.stderr`` between runs gets its own
    log lines and a stream closed since an earlier run is never written to."""

    stream = property(lambda self: sys.stderr, lambda self, _: None)


_LOG_HANDLER = _StderrHandler()
_LOG_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _configure_logging():
    """Log level from ``GEOPRO_LOG``; ``debug`` also checks every op
    output for NaN/Inf, and any other level turns that check off."""
    raw = os.environ.get("GEOPRO_LOG", "warn").lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        print("unknown GEOPRO_LOG value %r; using 'warn'" % raw, file=sys.stderr)
        level = logging.WARNING
    ad.set_debug_checks(level == logging.DEBUG)
    # other root handlers, such as a test harness's capture, stay
    root = logging.getLogger()
    if _LOG_HANDLER not in root.handlers:
        root.addHandler(_LOG_HANDLER)
    root.setLevel(level)


def run(argv):
    """Dispatch one command line; returns the process exit code."""
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        print("run 'geopro --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except GeoproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
