"""Seeded mutation fuzzing of every input parser.

Each parser reads a valid input with random byte edits applied, through
the same file-reading path as the command line.  Every mutated input must
either parse or raise a ``GeoproError``, which the command line turns into
one ``error:`` line and exit code 2; any other exception would reach the
user as a traceback.
"""

import numpy as np
import pytest

from geopro import cli
from geopro import data as dt
from geopro import pipeline as pl
from geopro.errors import GeoproError

MUTATIONS = 500

# byte strings that the parsers treat specially, spliced in at random
TOKENS = [b"\n", b"\r\n", b"#", b"=", b",", b";", b">", b"-", b" ", b"\t", b"0",
          b"nan", b"inf", b"1e400", b"-7", b"99999999999", b"\x00", b"\xff", b"\xc3"]


def _mutate(rng, data):
    """``data`` with one to four random edits: overwrite, delete, repeat
    or insert a span, or splice in one of ``TOKENS``.  New bytes are
    ASCII, so that most mutated text still decodes and reaches its
    parser; the non-UTF-8 bytes come from ``TOKENS``."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 5))):
        at = int(rng.integers(0, len(out) + 1))
        span = int(rng.integers(1, 9))
        kind = int(rng.integers(0, 5))
        if kind == 0:
            out[at:at + span] = rng.integers(0, 128, size=span, dtype=np.uint8).tobytes()
        elif kind == 1:
            del out[at:at + span]
        elif kind == 2:
            out[at:at] = out[at:at + span] * int(rng.integers(2, 5))
        elif kind == 3:
            out[at:at] = rng.integers(32, 127, size=span, dtype=np.uint8).tobytes()
        else:
            out[at:at] = TOKENS[int(rng.integers(0, len(TOKENS)))]
    return bytes(out)


def _cases(tmp_path):
    """Each parser's valid input as a file, and a reader of that file
    through the path the command line takes."""
    examples = pl.generate_synthetic_dataset(3, 12, 0.3, seed=3)
    records = [record for record, _ in examples]
    dataset = str(tmp_path / "ds")
    cli.write_dataset(dataset, examples)
    config = pl.TrainingConfig(width=8, egnn_depth=1, enc_depth=1, dec_depth=1,
                               n_heads=2, max_len=16)
    model = pl.build_model(config)
    checkpoint = str(tmp_path / "model.ckpt")
    pl.save_checkpoint(checkpoint, model)

    def text_file(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def reading(parse):
        return lambda path: parse(cli._read_text(path))

    return {
        "config": (
            text_file("tiny.cfg", pl.format_config(config) + "# note\n\nalpha = 0.5  # x\n"),
            reading(lambda text: pl.build_config(file_text=text)),
        ),
        "fasta": (
            text_file("seqs.fasta",
                      ">syn000 seed=3 p=0.25\nACDEFGHIKL\nMNPQRSTVWY\n\n>syn001\nGACD\n"),
            reading(dt.parse_fasta),
        ),
        "pdb": (
            text_file("chain.pdb", dt.emit_pdb_ca(records[0])),
            reading(lambda text: dt.parse_pdb_ca(text, dt.PDB_CHAIN)),
        ),
        "positions": (
            text_file("motif.txt", "0\n3\n# note\n 9  # x\n"),
            reading(cli.parse_positions_file),
        ),
        "manifest": (
            text_file("splits.csv",
                      dt.format_split_manifest(records[:1], records[1:2], records[2:])),
            reading(dt.parse_split_manifest),
        ),
        "motif-table": (
            str(tmp_path / "ds" / "motifs.csv"), lambda path: cli.read_dataset(dataset)
        ),
        "checkpoint": (checkpoint, lambda path: pl.load_checkpoint(path, model)),
    }


@pytest.mark.parametrize("name", ["config", "fasta", "pdb", "positions", "manifest",
                                  "motif-table", "checkpoint"])
def test_mutated_input_parses_or_raises_a_geopro_error(name, tmp_path):
    path, parse = _cases(tmp_path)[name]
    with open(path, "rb") as handle:
        valid = handle.read()
    parse(path)
    rng = pl.substream(17, "fuzz-" + name)
    for k in range(MUTATIONS):
        mutated = _mutate(rng, valid)
        with open(path, "wb") as handle:
            handle.write(mutated)
        try:
            parse(path)
        except GeoproError:
            pass
        except Exception as exc:
            pytest.fail("mutation %d of the %s input raised %r on %r"
                        % (k, name, exc, mutated[:300]))
