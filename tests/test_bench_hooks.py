"""The benchmark's span tracer wraps package functions by name.

``bench/spans.py`` looks each of them up with ``getattr`` when it is
installed, so deleting or renaming one breaks traced benchmark runs.
Installing the tracer here makes such a change fail in the test suite.
"""

import types
from pathlib import Path

import geopro
import geopro.cli  # noqa: F401  (loads every module the tracer wraps)

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    # executed from its source text, so no bytecode cache is written into bench/
    module = types.ModuleType("bench_spans")
    exec(compile(_SPANS.read_text(), str(_SPANS), "exec"), module.__dict__)
    return module


def test_tracer_installs_on_every_hook_and_restores_them():
    spans = _load_spans()
    targets = spans._targets(geopro)
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    with spans.Tracer(geopro).installed():
        for (owner, attr, _), original in zip(targets, originals):
            assert getattr(owner, attr) is not original, attr
    for (owner, attr, _), original in zip(targets, originals):
        assert getattr(owner, attr) is original, attr
