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
from geopro.errors import ConfigError, NumericError

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
              "--beta", "--topk", "--radius", "--seed"},
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
    assert sum(len(v) for v in flags.values()) == 52


# Every parameter with a default in the package, as
# module.qualified_function(parameter).  A value that every caller leaves
# at its default belongs in a module constant, not in a new default.
PINNED_DEFAULTS = {
    "autodiff.Tensor.__init__(requires_grad)",
    "autodiff.named_tensors(prefix)",
    "autodiff.tsum(axis)", "autodiff.tsum(keepdims)",
    "autodiff.tmean(axis)", "autodiff.tmean(keepdims)",
    "autodiff.concat(axis)",
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
    "egnn.egcl_forward(receive)", "egnn.egnn_forward(receive)",
    "geometry.random_rigid(reflect)",
    "metrics.evaluate_candidates(plddt)",
    "pipeline.build_config(file_text)", "pipeline.build_config(overrides)",
    "pipeline.train(valid_set)", "pipeline.train(checkpoint_path)",
    "pipeline.design(pin_motif)",
    "pipeline.refine_and_decode(every_row)",
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


# The model stages below the encoder.  Every forward reads them through
# one call site, so that a change to the forward, such as its precision,
# is made once.
ONE_PATH_STAGES = ("egnn_forward", "gsd_feature_select", "decode_logits")


def _stage_callers(body, prefix):
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _stage_callers(node.body, "%s%s." % (prefix, node.name))
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ONE_PATH_STAGES:
                    yield name, prefix.rstrip(".")


def test_only_refine_and_decode_calls_the_model_stages():
    callers = {name: set() for name in ONE_PATH_STAGES}
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, caller in _stage_callers(tree.body, path.stem + "."):
            callers[name].add(caller)
    assert callers == {name: {"pipeline.refine_and_decode"} for name in ONE_PATH_STAGES}


def test_only_the_data_module_imports_csv():
    # every table is read by data.parse_table and written by data.format_csv
    importers = set()
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "csv" in names:
                importers.add(path.stem)
    assert importers == {"data"}


@pytest.mark.parametrize("argv", [
    ["design", "--checkpoint", "c", "--data", "d", "--record-id", "r", "--out", "o",
     "--alpha", "5"],
    ["export-emb", "--checkpoint", "c", "--data", "d", "--out", "o", "--topk", "2"],
    ["eval", "--data", "d", "--record-id", "r", "--candidates", "c", "--out", "o",
     "--seed", "1"],
    ["train", "--data", "d", "--out", "o", "--feature-select", "inverted"],
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


@pytest.mark.parametrize("name, line", [
    ("sequences.fasta", 7), ("motifs.csv", 5), ("splits.csv", 5),
])
def test_a_repeated_id_in_a_dataset_file_exits_two(tmp_path, capsys, name, line):
    ds = make_dataset(tmp_path)
    path = os.path.join(ds, name)
    with open(os.path.join(ds, "splits.csv"), "w") as handle:
        handle.write("id,split\nsyn000,train\nsyn001,train\nsyn002,valid\n")
    with open(path) as handle:
        text = handle.read()
    repeat = {"sequences.fasta": "".join(text.splitlines(True)[:2]),
              "motifs.csv": "syn000,0\n", "splits.csv": "syn000,valid\n"}[name]
    with open(path, "w") as handle:
        handle.write(text + repeat)
    ck = str(tmp_path / "m.ckpt")
    assert cli.run(["train", "--data", ds, "--out", ck,
                    "--config", write_config(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: %s: line %d: repeated id 'syn000'" % (path, line)]
    assert not os.path.exists(ck)


@pytest.mark.parametrize("name", ["pdb", "config", "sidecar"])
def test_an_input_file_error_names_the_file(tmp_path, capsys, name):
    ds = make_dataset(tmp_path)
    cfg = write_config(tmp_path)
    ck = str(tmp_path / "m.ckpt")
    argv = ["train", "--data", ds, "--out", ck, "--config", cfg]
    if name == "pdb":
        path = os.path.join(ds, "syn001.pdb")
        lines = open(path).read().splitlines(True)
        lines[2] = lines[2][:30] + "   X0.61" + lines[2][38:]
        text, message = "".join(lines), "line 3: bad coordinate field '   X0.61'"
    elif name == "config":
        path = cfg
        text, message = TINY_CONFIG + "foo\n", "line 11: expected 'key = value', got 'foo'"
    else:
        assert cli.run(argv) == 0
        path = ck + ".config"
        text, message = open(path).read() + "foo\n", "line 18: expected 'key = value', got 'foo'"
        argv = ["design", "--checkpoint", ck, "--data", ds, "--record-id", "syn001",
                "--out", str(tmp_path / "d")]
    with open(path, "w") as handle:
        handle.write(text)
    capsys.readouterr()
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: %s: %s" % (path, message)]


def test_a_bad_config_flag_is_not_blamed_on_the_config_file(tmp_path, capsys):
    ds = make_dataset(tmp_path)
    assert cli.run(["train", "--data", ds, "--out", str(tmp_path / "m.ckpt"),
                    "--config", write_config(tmp_path), "--topk", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: top_k must be in [1, 20]"]


def test_a_motif_position_out_of_range_names_the_record(tmp_path, capsys):
    ds = make_dataset(tmp_path, length=12)
    os.remove(os.path.join(ds, "motifs.csv"))
    positions = tmp_path / "motif.txt"
    positions.write_text("1\n15\n")
    assert cli.run(["train", "--data", ds, "--out", str(tmp_path / "m.ckpt"),
                    "--config", write_config(tmp_path),
                    "--motif-file", str(positions)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: record 'syn000': motif position 15 out of range for length 12"]


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


def _save_layout_one_checkpoint(path, model, monkeypatch):
    # what layout 1 wrote: each EGNN layer's two-layer attention MLP where
    # layout 2 has gate_w and gate_b, and layout 1's architecture hash
    named = []
    for name, tensor in model.named_parameters():
        if name.endswith(".gate_w"):
            stem, width = name[:-len("gate_w")] + "attention.", tensor.shape[0]
            named += [(stem + "w1", ad.Tensor(np.zeros((width, width)))),
                      (stem + "b1", ad.Tensor(np.zeros(width))),
                      (stem + "w2", ad.Tensor(np.zeros((width, 1)))),
                      (stem + "b2", ad.Tensor(np.zeros(1)))]
        elif not name.endswith(".gate_b"):
            named.append((name, tensor))
    with monkeypatch.context() as patch:
        patch.setattr(pl, "LAYOUT_VERSION", 1)
        stored_hash = model.config.arch_hash()
    old = argparse.Namespace(named_parameters=lambda: named,
                             config=argparse.Namespace(arch_hash=lambda: stored_hash))
    pl.save_checkpoint(path, old)


def test_layout_one_checkpoint_exits_two(trained, tmp_path, capsys, monkeypatch):
    _, ds, _ = trained
    cfg = write_config(tmp_path)
    with open(cfg) as handle:
        model = pl.build_model(pl.build_config(file_text=handle.read()))
    ck = str(tmp_path / "layout1.ckpt")
    _save_layout_one_checkpoint(ck, model, monkeypatch)
    with pytest.raises(ConfigError, match="architecture hash"):
        pl.load_checkpoint(ck, model)
    assert cli.run(["design", "--config", cfg, "--checkpoint", ck, "--data", ds,
                    "--record-id", "syn001", "--out", str(tmp_path / "d")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "architecture hash" in lines[0]


def test_retired_edge_attributes_in_a_config_file_exit_two(trained, tmp_path, capsys):
    _, ds, _ = trained
    cfg = write_config(tmp_path, "edge_attrs = seqsep\n")
    assert cli.run(["train", "--data", ds, "--out", str(tmp_path / "m.ckpt"),
                    "--config", cfg]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "retired" in lines[0]
    assert not os.path.exists(str(tmp_path / "m.ckpt"))


def test_retired_feature_selection_in_a_sidecar_exits_two(trained, tmp_path, capsys):
    # a checkpoint trained while "as_printed" was the default
    _, ds, ck = trained
    old = str(tmp_path / "old.ckpt")
    with open(ck, "rb") as handle:
        (tmp_path / "old.ckpt").write_bytes(handle.read())
    with open("%s.config" % ck) as handle:
        sidecar = handle.read().replace("feature_select = inverted",
                                        "feature_select = as_printed")
    (tmp_path / "old.ckpt.config").write_text(sidecar)
    assert cli.run(["design", "--checkpoint", old, "--data", ds,
                    "--record-id", "syn001", "--out", str(tmp_path / "d")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "retired" in lines[0]
    assert not os.path.exists(str(tmp_path / "d"))


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


@pytest.mark.parametrize("flag,where", [
    (flag, where) for flag in ("--curve", "--out")
    for where in ("a_directory", "afile/file", "missing/file")
] + [("sidecar", "a_directory")])
def test_train_refuses_unwritable_outputs_before_training(
        trained, tmp_path, capsys, monkeypatch, flag, where):
    # the sidecar, <out>.config, sits next to the checkpoint, so only a
    # directory in its place can make it unwritable on its own
    _, ds, _ = trained
    (tmp_path / "afile").write_text("")
    (tmp_path / "a_directory").mkdir()

    def must_not_train(*args, **kwargs):
        raise AssertionError("pl.train ran before the outputs were checked")

    monkeypatch.setattr(pl, "train", must_not_train)
    paths = {"--out": str(tmp_path / "m.ckpt"), "--curve": str(tmp_path / "c.csv")}
    if flag == "sidecar":
        bad = paths["--out"] + ".config"
        os.mkdir(bad)
    else:
        paths[flag] = bad = str(tmp_path / where)
    argv = ["train", "--data", ds, "--config", write_config(tmp_path)]
    for name, path in paths.items():
        argv += [name, path]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "error: cannot write" in err and "Traceback" not in err
    assert "error: cannot write %s: " % bad in err
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


def test_a_run_that_fails_after_saving_leaves_the_sidecar(tmp_path, monkeypatch, capsys):
    # a finite validation loss after epoch 0 saves a checkpoint; a NaN one
    # after epoch 1 then ends the run
    ds = make_dataset(tmp_path)
    with open(os.path.join(ds, "splits.csv"), "w") as handle:
        handle.write("id,split\nsyn000,train\nsyn001,train\nsyn002,valid\n")
    losses = iter([1.0, float("nan")])
    monkeypatch.setattr(pl, "evaluate_loss", lambda dataset, model: next(losses))
    ck = str(tmp_path / "m.ckpt")
    assert cli.run(["train", "--data", ds, "--out", ck,
                    "--config", write_config(tmp_path)]) == 2
    assert "non-finite validation loss after epoch 1" in capsys.readouterr().err
    assert os.path.exists(ck) and os.path.exists(ck + ".config")
    assert cli.run(["design", "--checkpoint", ck, "--data", ds, "--record-id", "syn001",
                    "--n", "1", "--out", str(tmp_path / "d")]) == 0


def test_a_failed_rerun_leaves_the_old_checkpoint_beside_its_sidecar(
        tmp_path, monkeypatch, capsys):
    ds = make_dataset(tmp_path)
    ck = str(tmp_path / "m.ckpt")
    argv = ["train", "--data", ds, "--out", ck, "--config", write_config(tmp_path)]
    assert cli.run(argv + ["--topk", "3"]) == 0
    saved = {}
    for path in (ck, ck + ".config"):
        with open(path, "rb") as handle:
            saved[path] = handle.read()

    def fail(*args, **kwargs):
        raise NumericError("non-finite loss")

    monkeypatch.setattr(pl, "batch_losses", fail)
    assert cli.run(argv + ["--topk", "5"]) == 2
    assert "error: non-finite loss" in capsys.readouterr().err
    for path, content in saved.items():
        with open(path, "rb") as handle:
            assert handle.read() == content, path


def test_train_with_a_split_manifest_and_no_epochs_leaves_its_checkpoint(tmp_path, capsys):
    ds = make_dataset(tmp_path)
    with open(os.path.join(ds, "splits.csv"), "w") as handle:
        handle.write("id,split\nsyn000,train\nsyn001,train\nsyn002,valid\n")
    ck = str(tmp_path / "m.ckpt")
    assert cli.run(["train", "--data", ds, "--out", ck,
                    "--config", write_config(tmp_path, "epochs = 0\n")]) == 0
    assert "no training steps requested; checkpoint %s" % ck in capsys.readouterr().out
    assert os.path.exists(ck)
    assert cli.run(["design", "--checkpoint", ck, "--data", ds, "--record-id", "syn001",
                    "--n", "1", "--out", str(tmp_path / "d")]) == 0


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
    with open(ck + ".config") as handle:
        version = pl.build_model(pl.build_config(file_text=handle.read())).version
    with open(os.path.join(d1, "candidates.fasta")) as handle:
        headers = [line for line in handle.read().splitlines() if line.startswith(">")]
    assert len(headers) == 3
    assert all(h.endswith(" model=%s" % version) for h in headers), headers
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


GOLDEN_TARGET = [[0.0, 0.0, 0.0], [3.8, 0.0, 0.0], [3.8, 3.8, 0.0],
                 [0.0, 3.8, 1.0], [1.9, 1.9, 3.0]]
# id, residues, offset from the target's coordinates; none is a rigid
# motion of the target, so no deviation is rounding noise around zero
GOLDEN_CANDIDATES = [
    ("c2", "ACDEA", [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.3, 0.0],
                     [0.0, 0.0, -0.4], [0.2, 0.1, 0.0]]),
    ("c1", "ACDEF", [[0.0, 0.2, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0],
                     [0.3, 0.0, 0.0], [0.0, 0.0, 0.5]]),
    ("c3", "GCDKF", [[1.0, 0.0, 0.0], [1.0, 0.1, 0.0], [1.2, 0.0, 0.0],
                     [1.0, 0.0, 0.0], [1.0, 0.0, -0.3]]),
]
GOLDEN_CSV = """\
id,aar_all,aar_nonmotif,rmsd_superposed,rmsd_anchored,tm_score,plddt
c1,1,1,0.2354511451,0.2792848009,0.8419527036,77.5
c2,0.8,0.6666666667,0.2264403277,0.331662479,0.8351169932,
c3,0.6,0.3333333333,0.1475951275,1.052615789,0.9238599914,61.25
mean,0.8,0.6666666667,0.2031622001,0.5545210231,0.8669765627,69.375
median,0.8,0.6666666667,0.2264403277,0.331662479,0.8419527036,69.375
"""
# the terminal table pads every cell, the last column's too
GOLDEN_TEXT = (
    "id      aar_all  aar_nonmotif  rmsd_superposed  rmsd_anchored  tm_score      plddt \n"
    "------  -------  ------------  ---------------  -------------  ------------  ------\n"
    "c1      1        1             0.2354511451     0.2792848009   0.8419527036  77.5  \n"
    "c2      0.8      0.6666666667  0.2264403277     0.331662479    0.8351169932        \n"
    "c3      0.6      0.3333333333  0.1475951275     1.052615789    0.9238599914  61.25 \n"
    "mean    0.8      0.6666666667  0.2031622001     0.5545210231   0.8669765627  69.375\n"
    "median  0.8      0.6666666667  0.2264403277     0.331662479    0.8419527036  69.375\n"
)
GOLDEN_EMPTY_CSV = "id,aar_all,aar_nonmotif,rmsd_superposed,rmsd_anchored,tm_score,plddt\n" \
    "mean,,,,,,\nmedian,,,,,,\n"
GOLDEN_EMPTY_TEXT = (
    "id      aar_all  aar_nonmotif  rmsd_superposed  rmsd_anchored  tm_score  plddt\n"
    "------  -------  ------------  ---------------  -------------  --------  -----\n"
    "%-78s\n%-78s\n" % ("mean", "median")
)

def test_eval_report_golden(tmp_path, capsys):
    target = dt.ProteinRecord.from_parts("t", "ACDEF", GOLDEN_TARGET)
    ds = str(tmp_path / "ds")
    cli.write_dataset(ds, [(target, pl.motif_from_record(target, [1, 2]))])
    cands = str(tmp_path / "cands")
    records = [dt.ProteinRecord.from_parts(i, s, np.add(GOLDEN_TARGET, d))
               for i, s, d in GOLDEN_CANDIDATES]
    cli.write_records(cands, "candidates.fasta", records, [r.record_id for r in records])
    plddt = tmp_path / "plddt.csv"
    plddt.write_text("id,plddt\nc1,77.5\nc3,61.25\n")
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "candidates.fasta").write_text("")
    for cand_dir, extra, csv_text, table in (
        (cands, ["--plddt", str(plddt)], GOLDEN_CSV, GOLDEN_TEXT),
        (str(empty), [], GOLDEN_EMPTY_CSV, GOLDEN_EMPTY_TEXT),
    ):
        report = tmp_path / "report.csv"
        capsys.readouterr()
        assert cli.run(["eval", "--data", ds, "--record-id", "t", "--candidates",
                        cand_dir, "--out", str(report)] + extra) == 0
        assert capsys.readouterr().out == table
        assert report.read_bytes() == csv_text.encode("utf-8")


@pytest.mark.parametrize("rows, message", [
    ("cand000,%s\n" % ("9" * 200000), "line 2: field larger than field limit"),
    ("cand000,nan\n", "line 2: bad plddt 'nan'"),
    ("cand000,inf\n", "line 2: bad plddt 'inf'"),
    ("cand000,1e400\n", "line 2: bad plddt '1e400'"),
    ("cand000,81.5\ncand000,60.5\n", "line 3: repeated id 'cand000'"),
], ids=["overlong-field", "nan", "inf", "overflow", "repeated-id"])
def test_eval_refuses_a_bad_plddt_csv(trained, tmp_path, capsys, rows, message):
    _, ds, ck = trained
    cands = str(tmp_path / "d")
    assert cli.run(["design", "--checkpoint", ck, "--data", ds,
                    "--record-id", "syn001", "--n", "1", "--out", cands]) == 0
    plddt = tmp_path / "plddt.csv"
    plddt.write_text("id,plddt\n" + rows)
    capsys.readouterr()
    report = tmp_path / "r.csv"
    assert cli.run(["eval", "--data", ds, "--record-id", "syn001", "--candidates",
                    cands, "--plddt", str(plddt), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0], errors
    assert "Traceback" not in err and not report.exists()


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


def test_export_embeddings_refuses_a_repeated_record(trained, capsys):
    tmp_path, ds, ck = trained
    out = str(tmp_path / "twice.csv")
    assert cli.run(["export-emb", "--checkpoint", ck, "--data", ds, "--record-id",
                    "syn000", "--record-id", "syn001", "--record-id", "syn000",
                    "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error: record 'syn000' is given more than once" in err
    assert "Traceback" not in err and not os.path.exists(out)


def test_export_embeddings_refuses_an_overlong_record(trained, tmp_path, capsys):
    _, _, ck = trained
    long_ds = make_dataset(tmp_path, n=1, length=65)
    out = str(tmp_path / "long.csv")
    assert cli.run(["export-emb", "--checkpoint", ck, "--data", long_ds,
                    "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error: record 'syn000' length 65 exceeds max_len 64" in err
    assert "Traceback" not in err and not os.path.exists(out)


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


# The (data seed, model seed) that ``geopro check --seed S`` drew at
# layout 1 for S = 10, 12, 13 and 14, where the gradient check failed on
# an ill-scaled initial model (worst relative errors 9.1e-3, 5.8e-3,
# 6.3e-2 and 2.0e-2).
@pytest.mark.parametrize("data_seed,model_seed", [
    (755308654, 6614227), (314334801, 771073296),
    (437462941, 256561998), (398530058, 500163315),
], ids=["10", "12", "13", "14"])
def test_pipeline_gradient_passes_where_layout_one_failed(data_seed, model_seed):
    assert checks.pipeline_gradient(data_seed, model_seed, 123) < 1e-3


def test_check_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(checks, "pipeline_gradient", lambda *seeds: 1e-2)
    assert cli.run(["check", "--seed", "4"]) == 3
    out = capsys.readouterr().out
    assert "FAIL gradient" in out
    assert out.count("PASS") == 3
