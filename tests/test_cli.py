"""End-to-end tests for the command-line interface.

Commands run in-process through ``cli.run`` so exit codes, printed
output, and produced files can all be checked directly.
"""

import argparse
import ast
import logging
import os
import pathlib

import numpy as np
import pytest

from geopro import autodiff as ad
from geopro import checks
from geopro import cli
from geopro import data as dt
from geopro import pipeline as pl
from geopro import seqmodel as sm
from geopro.errors import NumericError

TINY_CONFIG = """\
width = 8
egnn_depth = 1
enc_depth = 1
dec_depth = 1
n_heads = 2
epochs = 2
batch_size = 2
base_lr = 0.001
warmup_steps = 2
max_len = 64
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG + extra)
    return str(path)


def make_dataset(tmp_path, n=3, length=10, seed=5):
    out = str(tmp_path / "ds")
    assert cli.run(["synth", "--n", str(n), "--length", str(length),
                    "--motif-frac", "0.3", "--out", out,
                    "--seed", str(seed)]) == 0
    return out


# ---------------------------------------------------------------------------
# parsing, exit codes, logging


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    for name in ("prepare", "motif", "synth", "train", "design", "eval",
                 "check", "bound-demo", "export-emb"):
        assert cli.run([name, "--help"]) == 0, name
    out = capsys.readouterr().out
    assert "bound-demo" in out


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.run([]) == 1
    assert "usage" in capsys.readouterr().err


def test_design_without_checkpoint_is_usage_error(capsys):
    assert cli.run(["design", "--data", "x", "--record-id", "a",
                    "--out", "y"]) == 1
    assert "--checkpoint" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error():
    assert cli.run(["synth", "--n", "three", "--length", "10",
                    "--motif-frac", "0.3", "--out", "x"]) == 1


def test_missing_input_file_is_data_error(tmp_path, capsys):
    assert cli.run(["motif", "--alignment", str(tmp_path / "nope.fasta"),
                    "--reference", "r", "--lambda", "0.5",
                    "--out", str(tmp_path / "m.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unknown_log_level_warns(monkeypatch, capsys):
    monkeypatch.setenv("GEOPRO_LOG", "chatty")
    assert cli.run(["bound-demo", "--instances", "1"]) == 0
    assert "GEOPRO_LOG" in capsys.readouterr().err


def test_debug_log_level_checks_every_op(monkeypatch):
    try:
        for level, checked in (("debug", True), ("info", False)):
            monkeypatch.setenv("GEOPRO_LOG", level)
            assert cli.run(["bound-demo", "--instances", "1"]) == 0
            with np.errstate(invalid="ignore"):
                if checked:
                    with pytest.raises(NumericError):
                        ad.sqrt(ad.Tensor([-1.0]))
                else:
                    assert np.isnan(ad.sqrt(ad.Tensor([-1.0])).data).all()
    finally:
        ad.set_debug_checks(False)


def test_log_level_follows_every_run(monkeypatch):
    root = logging.getLogger()
    saved = root.level
    try:
        for name, level in (("warn", logging.WARNING), ("debug", logging.DEBUG)):
            monkeypatch.setenv("GEOPRO_LOG", name)
            assert cli.run(["bound-demo", "--instances", "1"]) == 0
            assert root.level == level, name
    finally:
        root.setLevel(saved)
        ad.set_debug_checks(False)


# Every flag of every subcommand, named by its first option string.
PINNED_FLAGS = {
    "prepare": {"--pdb-dir", "--allow-list", "--chain", "--min-len", "--out", "--seed"},
    "motif": {"--alignment", "--reference", "--lambda", "--out"},
    "synth": {"--n", "--length", "--motif-frac", "--out", "--seed"},
    "train": {"--data", "--out", "--curve", "--motif-file", "--config", "--alpha",
              "--beta", "--topk", "--radius", "--feature-select", "--seed"},
    "design": {"--checkpoint", "--data", "--record-id", "--n", "--length", "--out",
               "--pin-motif", "--config", "--topk", "--radius", "--seed"},
    "eval": {"--data", "--record-id", "--candidates", "--plddt", "--out"},
    "check": {"--seed"},
    "bound-demo": {"--instances", "--appendix-sign", "--seed"},
    "export-emb": {"--checkpoint", "--data", "--record-id", "--out", "--config",
                   "--radius", "--seed"},
}


def test_subcommand_flags_are_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {a.option_strings[0] for a in p._actions
               if a.option_strings and a.option_strings[0] != "-h"}
        for name, p in sub.choices.items()
    }
    assert flags == PINNED_FLAGS
    assert sum(len(v) for v in flags.values()) == 53


# Every parameter with a default in the package, as
# module.qualified_function(parameter).  A value that every caller leaves
# at its default belongs in a module constant, not in a new default.
PINNED_DEFAULTS = {
    "autodiff.Tensor.__init__(requires_grad)",
    "autodiff.named_tensors(prefix)",
    "autodiff.tsum(axis)", "autodiff.tsum(keepdims)",
    "autodiff.tmean(axis)", "autodiff.tmean(keepdims)",
    "autodiff.concat(axis)",
    "autodiff._sigmoid(out)",
    "bound.two_cluster_coincident_instance(lip)",
    "bound.two_cluster_coincident_instance(zeta)",
    "bound.upper_bound(appendix_sign)",
    "bound.verify_bound(appendix_sign)",
    "checks.bound_excess(appendix_sign)",
    "cli.write_dataset(splits)",
    "cli.read_dataset(motif_positions)",
    "cli._config_from_args(fallback_path)",
    "data.parse_pdb_ca(record_id)",
    "egnn.glorot_uniform(scale)",
    "egnn.init_mlp(out_scale)",
    "egnn.init_egnn(message_width)",
    "egnn.equivariance_check(forward)",
    "egnn._PairInput.add_grad(d_sq_dist)", "egnn._PairInput.add_grad(d_diff)",
    "geometry.random_rigid(reflect)",
    "metrics.EvalRow.__init__(plddt)",
    "metrics.evaluate_candidates(plddt_text)",
    "pipeline.build_config(file_text)", "pipeline.build_config(overrides)",
    "pipeline.train(valid_set)", "pipeline.train(checkpoint_path)",
    "pipeline.design(pin_motif)",
}


def _defaulted_parameters(body, prefix):
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defaulted_parameters(node.body, "%s%s." % (prefix, node.name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for arg in defaulted:
                yield "%s%s(%s)" % (prefix, node.name, arg.arg)
            yield from _defaulted_parameters(node.body, "%s%s." % (prefix, node.name))


def test_defaulted_parameters_are_pinned():
    found = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += _defaulted_parameters(tree.body, path.stem + ".")
    assert len(found) == len(set(found))
    assert set(found) == PINNED_DEFAULTS


@pytest.mark.parametrize("argv", [
    ["design", "--checkpoint", "c", "--data", "d", "--record-id", "r", "--out", "o",
     "--alpha", "5"],
    ["export-emb", "--checkpoint", "c", "--data", "d", "--out", "o", "--topk", "2"],
    ["eval", "--data", "d", "--record-id", "r", "--candidates", "c", "--out", "o",
     "--seed", "1"],
])
def test_removed_flag_is_usage_error(argv, capsys):
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: %s" % " ".join(argv[-2:]) in err
    assert "usage" in err


@pytest.mark.parametrize("command", ["prepare", "synth", "train", "design", "check",
                                     "bound-demo", "export-emb"])
def test_negative_seed_is_usage_error(command, capsys):
    assert cli.run([command, "--seed", "-1"]) == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--n", "0"), ("design", "--n", "-2"), ("bound-demo", "--instances", "0"),
])
def test_count_below_one_is_usage_error(command, flag, value, capsys):
    assert cli.run([command, flag, value]) == 1
    assert "count must be a positive integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# motif positions file


def test_positions_file_roundtrip():
    text = "# anchors\n3\n7\n\n12  # trailing comment\n"
    assert cli.parse_positions_file(text) == [3, 7, 12]


def test_positions_file_rejects_junk():
    with pytest.raises(Exception, match="line 2"):
        cli.parse_positions_file("4\nelephant\n")


# ---------------------------------------------------------------------------
# synth + dataset directory round-trip


def test_synth_writes_readable_dataset(tmp_path):
    ds = make_dataset(tmp_path)
    for name in ("sequences.fasta", "motifs.csv", "syn000.pdb", "syn002.pdb"):
        assert os.path.exists(os.path.join(ds, name))
    examples, splits = cli.read_dataset(ds)
    assert splits is None
    assert sorted(examples) == ["syn000", "syn001", "syn002"]
    record, motif = examples["syn001"]
    assert record.length == 10
    assert motif.size == 3
    assert np.array_equal(motif.coords, record.ca_coords[motif.positions])


def test_synth_is_deterministic(tmp_path):
    a = make_dataset(tmp_path / "a", seed=9)
    b = make_dataset(tmp_path / "b", seed=9)
    for name in ("sequences.fasta", "motifs.csv", "syn001.pdb"):
        with open(os.path.join(a, name)) as fa, open(os.path.join(b, name)) as fb:
            assert fa.read() == fb.read(), name


def test_read_dataset_rejects_sequence_mismatch(tmp_path):
    ds = make_dataset(tmp_path)
    fasta_path = os.path.join(ds, "sequences.fasta")
    with open(fasta_path) as handle:
        text = handle.read()
    swapped = ("A" if text.splitlines()[1][0] != "A" else "C")
    lines = text.splitlines()
    lines[1] = swapped + lines[1][1:]
    with open(fasta_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(Exception, match="mismatch"):
        cli.read_dataset(ds)


# ---------------------------------------------------------------------------
# prepare + motif


def test_prepare_respects_allow_list(tmp_path):
    ds = make_dataset(tmp_path, n=4)
    allow = tmp_path / "allow.txt"
    allow.write_text("syn000\nsyn003\n")
    out = str(tmp_path / "prep")
    assert cli.run(["prepare", "--pdb-dir", ds, "--allow-list", str(allow),
                    "--out", out, "--min-len", "2", "--seed", "1"]) == 0
    with open(os.path.join(out, "splits.csv")) as handle:
        manifest = dt.parse_split_manifest(handle.read())
    assert sorted(manifest) == ["syn000", "syn003"]
    pairs = dt.parse_fasta(open(os.path.join(out, "sequences.fasta")).read())
    assert sorted(p[0] for p in pairs) == ["syn000", "syn003"]
    assert sorted(os.listdir(out)) == [
        "sequences.fasta", "splits.csv", "syn000.pdb", "syn003.pdb"]


def test_prepare_bad_pdb_field_exits_two(tmp_path, capsys):
    ds = make_dataset(tmp_path, n=2)
    path = os.path.join(ds, "syn001.pdb")
    lines = open(path).read().splitlines()
    lines[1] = lines[1][:22] + "   X" + lines[1][26:]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    allow = tmp_path / "allow.txt"
    allow.write_text("syn000\nsyn001\n")
    assert cli.run(["prepare", "--pdb-dir", ds, "--allow-list", str(allow),
                    "--out", str(tmp_path / "prep"), "--min-len", "2"]) == 2
    assert "line 2: bad residue number" in capsys.readouterr().err


def test_motif_extraction_golden(tmp_path):
    aln = tmp_path / "aln.fasta"
    aln.write_text(">ref\nACD-EF\n>h1\nACDYEF\n>h2\nACW-EF\n")
    out = tmp_path / "motif.txt"
    assert cli.run(["motif", "--alignment", str(aln), "--reference", "ref",
                    "--lambda", "0.6", "--out", str(out)]) == 0
    assert cli.parse_positions_file(out.read_text()) == [0, 1, 2, 3, 4]
    assert cli.run(["motif", "--alignment", str(aln), "--reference", "ref",
                    "--lambda", "0.9", "--out", str(out)]) == 0
    assert cli.parse_positions_file(out.read_text()) == [0, 1, 3, 4]


# ---------------------------------------------------------------------------
# train -> design -> eval -> export-emb workflow


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("work")
    ds = make_dataset(tmp_path)
    cfg = write_config(tmp_path)
    ck = str(tmp_path / "model.ckpt")
    assert cli.run(["train", "--data", ds, "--out", ck,
                    "--config", cfg, "--seed", "3"]) == 0
    return tmp_path, ds, ck


def test_train_writes_checkpoint_sidecar_and_curve(trained):
    tmp_path, ds, ck = trained
    assert os.path.exists(ck)
    with open("%s.config" % ck) as handle:
        sidecar = handle.read()
    config = pl.build_config(file_text=sidecar)
    assert config.width == 8 and config.epochs == 2 and config.seed == 3
    with open("%s.curve.csv" % ck) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "epoch,train_total,train_backbone,train_sequence,valid_total"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) > 0
    assert not list(tmp_path.rglob("*.probe*"))


def test_config_file_seed_is_honoured(trained, tmp_path):
    _, ds, _ = trained

    def train(name, extra, *flags):
        ck = str(tmp_path / name)
        assert cli.run(["train", "--data", ds, "--out", ck,
                        "--config", write_config(tmp_path, extra), *flags]) == 0
        with open(ck, "rb") as handle:
            return handle.read()

    from_file = train("file.ckpt", "seed = 5\n")
    assert from_file == train("flag.ckpt", "", "--seed", "5")
    assert from_file == train("both.ckpt", "seed = 0\n", "--seed", "5")
    assert from_file != train("zero.ckpt", "seed = 0\n")
    with open(str(tmp_path / "file.ckpt.config")) as handle:
        assert pl.build_config(file_text=handle.read()).seed == 5


@pytest.mark.parametrize("line", [
    "n_heads = 0", "n_heads = 3", "max_len = -1", "enc_depth = -1", "dec_depth = -1",
    "base_lr = inf", "alpha = nan", "beta = nan", "radius = inf", "seed = -1",
])
def test_bad_config_value_exits_two(trained, tmp_path, capsys, line):
    _, ds, _ = trained
    assert cli.run(["train", "--data", ds, "--out", str(tmp_path / "m.ckpt"),
                    "--config", write_config(tmp_path, line + "\n")]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and line.split()[0] in err
    assert "Traceback" not in err
    assert not os.path.exists(str(tmp_path / "m.ckpt"))


@pytest.mark.parametrize("out", ["missing/m.ckpt", "a_directory"])
def test_unwritable_checkpoint_exits_two(trained, tmp_path, capsys, out):
    _, ds, _ = trained
    os.mkdir(str(tmp_path / "a_directory"))
    assert cli.run(["train", "--data", ds, "--out", str(tmp_path / out),
                    "--config", write_config(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_missing_checkpoint_exits_two(trained, tmp_path, capsys):
    _, ds, _ = trained
    assert cli.run(["design", "--config", write_config(tmp_path),
                    "--checkpoint", str(tmp_path / "missing.ckpt"), "--data", ds,
                    "--record-id", "syn001", "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert "error: cannot read checkpoint" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp.*"))


@pytest.mark.parametrize("defect,message", [
    ("nan", "'decoder.head_w' holds non-finite values"),
    ("layout", "architecture hash"),
], ids=["nan", "layout"])
def test_unloadable_checkpoint_exits_two(trained, tmp_path, capsys, monkeypatch,
                                         defect, message):
    _, ds, _ = trained
    cfg = write_config(tmp_path)
    with open(cfg) as handle:
        model = pl.build_model(pl.build_config(file_text=handle.read()))
    ck = str(tmp_path / "bad.ckpt")
    if defect == "nan":
        model.decoder.head_w.data[0, 0] = np.nan
    else:
        monkeypatch.setattr(pl, "LAYOUT_VERSION", pl.LAYOUT_VERSION + 1)
    pl.save_checkpoint(ck, model)
    monkeypatch.undo()
    assert cli.run(["design", "--config", cfg, "--checkpoint", ck, "--data", ds,
                    "--record-id", "syn001", "--out", str(tmp_path / "d")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


def test_retired_edge_attributes_in_a_config_file_exit_two(trained, tmp_path, capsys):
    _, ds, _ = trained
    cfg = write_config(tmp_path, "edge_attrs = seqsep\n")
    assert cli.run(["train", "--data", ds, "--out", str(tmp_path / "m.ckpt"),
                    "--config", cfg]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "retired" in lines[0]
    assert not os.path.exists(str(tmp_path / "m.ckpt"))


@pytest.mark.parametrize("command", ["synth", "design"])
def test_unmakeable_output_directory_exits_two(trained, tmp_path, capsys, command):
    # a regular file stands where the output directory's parent should be
    _, ds, ck = trained
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / "afile" / "out")
    argv = {
        "synth": ["synth", "--n", "1", "--length", "12", "--motif-frac", "0.3"],
        "design": ["design", "--checkpoint", ck, "--data", ds, "--record-id", "syn001"],
    }[command]
    assert cli.run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "error: cannot create directory" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["missing/file", "afile/file", "a_directory"])
@pytest.mark.parametrize("flag", ["--out", "--curve"])
def test_train_refuses_unwritable_outputs_before_training(
        trained, tmp_path, capsys, monkeypatch, flag, where):
    _, ds, _ = trained
    (tmp_path / "afile").write_text("")
    (tmp_path / "a_directory").mkdir()

    def must_not_train(*args, **kwargs):
        raise AssertionError("pl.train ran before the outputs were checked")

    monkeypatch.setattr(pl, "train", must_not_train)
    paths = {"--out": str(tmp_path / "m.ckpt"), "--curve": str(tmp_path / "c.csv")}
    paths[flag] = str(tmp_path / where)
    argv = ["train", "--data", ds, "--config", write_config(tmp_path)]
    for name, path in paths.items():
        argv += [name, path]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "error: cannot write" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.probe*"))


def test_train_honors_split_manifest(tmp_path):
    ds = make_dataset(tmp_path)
    with open(os.path.join(ds, "splits.csv"), "w") as handle:
        handle.write("id,split\nsyn000,train\nsyn001,train\nsyn002,valid\n")
    ck = str(tmp_path / "m.ckpt")
    assert cli.run(["train", "--data", ds, "--out", ck,
                    "--config", write_config(tmp_path), "--seed", "3"]) == 0
    with open("%s.curve.csv" % ck) as handle:
        rows = handle.read().splitlines()[1:]
    for row in rows:
        assert row.split(",")[4] != "", "valid_total column should be filled"


def test_design_outputs_and_determinism(trained):
    tmp_path, ds, ck = trained
    d1 = str(tmp_path / "d1")
    d2 = str(tmp_path / "d2")
    for out in (d1, d2):
        assert cli.run(["design", "--checkpoint", ck, "--data", ds,
                        "--record-id", "syn001", "--n", "3",
                        "--out", out, "--seed", "11"]) == 0
    for name in ("candidates.fasta", "cand000.pdb", "cand002.pdb"):
        with open(os.path.join(d1, name)) as fa, \
                open(os.path.join(d2, name)) as fb:
            assert fa.read() == fb.read(), name
    examples, _ = cli.read_dataset(ds)
    record, motif = examples["syn001"]
    pairs = dt.parse_fasta(open(os.path.join(d1, "candidates.fasta")).read())
    assert len(pairs) == 3
    for cand_id, letters in pairs:
        tokens = sm.encode_sequence(letters)
        assert np.array_equal(tokens[motif.positions], motif.residues)
        cand = dt.parse_pdb_ca(
            open(os.path.join(d1, "%s.pdb" % cand_id.split()[0])).read(),
            chain="A", record_id=cand_id)
        pinned = cand.ca_coords[motif.positions]
        assert np.abs(pinned - motif.coords).max() < 5e-4


def test_design_seed_changes_output(trained):
    tmp_path, ds, ck = trained
    d1 = str(tmp_path / "s1")
    d2 = str(tmp_path / "s2")
    assert cli.run(["design", "--checkpoint", ck, "--data", ds,
                    "--record-id", "syn001", "--n", "2",
                    "--out", d1, "--seed", "1"]) == 0
    assert cli.run(["design", "--checkpoint", ck, "--data", ds,
                    "--record-id", "syn001", "--n", "2",
                    "--out", d2, "--seed", "2"]) == 0
    a = open(os.path.join(d1, "candidates.fasta")).read()
    b = open(os.path.join(d2, "candidates.fasta")).read()
    assert a != b


def test_every_design_run_logs_to_its_own_stderr(trained, capsys):
    # the untrained width-8 model places consecutive CA atoms too far apart,
    # which the candidate records report as WARNING lines
    tmp_path, ds, ck = trained
    for out in ("w1", "w2"):
        assert cli.run(["design", "--checkpoint", ck, "--data", ds,
                        "--record-id", "syn001", "--n", "1",
                        "--out", str(tmp_path / out), "--seed", "5"]) == 0
        err = capsys.readouterr().err
        assert "WARNING" in err and "consecutive CA distances outside" in err, out


def test_design_needs_config_source(trained, tmp_path, capsys):
    _, ds, ck = trained
    bare = str(tmp_path / "bare.ckpt")
    with open(ck, "rb") as src, open(bare, "wb") as dst:
        dst.write(src.read())
    assert cli.run(["design", "--checkpoint", bare, "--data", ds,
                    "--record-id", "syn001", "--n", "1",
                    "--out", str(tmp_path / "o")]) == 2
    assert "config" in capsys.readouterr().err


def test_eval_report(trained, capsys):
    tmp_path, ds, ck = trained
    d1 = str(tmp_path / "deval")
    assert cli.run(["design", "--checkpoint", ck, "--data", ds,
                    "--record-id", "syn001", "--n", "3",
                    "--out", d1, "--seed", "11"]) == 0
    capsys.readouterr()
    report = str(tmp_path / "report.csv")
    plddt = tmp_path / "plddt.csv"
    plddt.write_text("id,plddt\ncand000,81.5\ncand001,60.5\n")
    assert cli.run(["eval", "--data", ds, "--record-id", "syn001",
                    "--candidates", d1, "--plddt", str(plddt),
                    "--out", report]) == 0
    out = capsys.readouterr().out
    assert "aar_all" in out and "cand002" in out
    with open(report) as handle:
        lines = handle.read().splitlines()
    assert lines[0].startswith("id,")
    ids = [line.split(",")[0] for line in lines[1:]]
    assert ids == ["cand000", "cand001", "cand002", "mean", "median"]
    plddt_col = lines[0].split(",").index("plddt")
    assert float(lines[1].split(",")[plddt_col]) == 81.5
    assert lines[3].split(",")[plddt_col] == ""


def test_eval_unknown_record_is_data_error(trained, capsys):
    tmp_path, ds, ck = trained
    assert cli.run(["eval", "--data", ds, "--record-id", "ghost",
                    "--candidates", str(tmp_path / "d1"),
                    "--out", str(tmp_path / "r.csv")]) == 2
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize("header", [">", "> "])
def test_eval_candidate_without_id_exits_two(tmp_path, capsys, header):
    ds = make_dataset(tmp_path)
    cands = tmp_path / "cands"
    cands.mkdir()
    (cands / "candidates.fasta").write_text("%s\nAAA\n" % header)
    capsys.readouterr()
    assert cli.run(["eval", "--data", ds, "--record-id", "syn001",
                    "--candidates", str(cands), "--out", str(tmp_path / "r.csv")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "no id" in lines[0]


def test_eval_rejects_candidates_fasta_that_disagrees_with_pdb(trained, capsys):
    tmp_path, ds, ck = trained
    cands = str(tmp_path / "dmismatch")
    assert cli.run(["design", "--checkpoint", ck, "--data", ds,
                    "--record-id", "syn001", "--n", "2", "--out", cands]) == 0
    fasta_path = os.path.join(cands, "candidates.fasta")
    with open(fasta_path) as handle:
        lines = handle.read().splitlines()
    lines[1] = ("A" if lines[1][0] != "A" else "C") + lines[1][1:]
    with open(fasta_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.run(["eval", "--data", ds, "--record-id", "syn001",
                    "--candidates", cands, "--out", str(tmp_path / "r.csv")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "cand000" in errors[0] and "mismatch" in errors[0]


def test_export_embeddings_shape(trained):
    tmp_path, ds, ck = trained
    out = str(tmp_path / "emb.csv")
    assert cli.run(["export-emb", "--checkpoint", ck, "--data", ds,
                    "--record-id", "syn000", "--out", out,
                    "--seed", "3"]) == 0
    with open(out) as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["id", "pos"]
    assert len(header) == 2 + 8
    assert len(lines) == 1 + 10
    assert lines[1].split(",")[0] == "syn000"
    again = str(tmp_path / "emb2.csv")
    assert cli.run(["export-emb", "--checkpoint", ck, "--data", ds,
                    "--record-id", "syn000", "--out", again,
                    "--seed", "3"]) == 0
    assert open(out).read() == open(again).read()


# ---------------------------------------------------------------------------
# check + bound-demo


def test_bound_demo_statement_and_appendix(capsys):
    assert cli.run(["bound-demo", "--instances", "60", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "60/60" in out and "worked case" in out
    assert cli.run(["bound-demo", "--instances", "60", "--seed", "2",
                    "--appendix-sign"]) == 0
    out = capsys.readouterr().out
    assert "violations" in out and "holds=False" in out


def test_check_suite_passes(capsys):
    assert cli.run(["check", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out
    for name in ("equivariance", "gradient", "invariance", "theorem"):
        assert name in out


def test_check_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(checks, "pipeline_gradient", lambda *seeds: 1e-2)
    assert cli.run(["check", "--seed", "4"]) == 3
    out = capsys.readouterr().out
    assert "FAIL gradient" in out
    assert out.count("PASS") == 3
