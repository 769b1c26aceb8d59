"""The benchmark calls the package through names it looks up at run time.

``bench/spans.py`` wraps package functions by name with ``getattr`` when
it is installed, and ``bench/workloads.py`` calls the package API to make
inputs, set up, run ops and check their outputs.  Deleting or renaming
one of those names breaks benchmark runs; running both here makes such a
change fail in the test suite.
"""

import types
from pathlib import Path

import pytest

import geopro
import geopro.cli  # noqa: F401  (loads every module the tracer wraps)

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    # executed from its source text, so no bytecode cache is written into bench/
    path = _BENCH / ("%s.py" % name)
    module = types.ModuleType("bench_%s" % name)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


_TINY_WORKLOADS = _load_bench("workloads").workloads(tiny=True)


def test_tracer_installs_on_every_hook_and_restores_them():
    spans = _load_bench("spans")
    targets = spans._targets(geopro)
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    with spans.Tracer(geopro).installed():
        for (owner, attr, _), original in zip(targets, originals):
            assert getattr(owner, attr) is not original, attr
    for (owner, attr, _), original in zip(targets, originals):
        assert getattr(owner, attr) is original, attr


@pytest.mark.parametrize("name, spans", [
    ("train-toy", ("seqmodel.encoder", "egnn.layer", "seqmodel.decoder", "pipeline.loss")),
    ("design-paper", ("seqmodel.encoder", "egnn.layer", "seqmodel.decoder")),
])
def test_traced_op_reaches_every_layer_hook(name, spans, tmp_path):
    # a call that goes around a wrapped name would read zero here
    workload, workdir = _TINY_WORKLOADS[name], str(tmp_path)
    workload.make_inputs(geopro, workdir, 0)
    state = workload.setup(geopro, workdir, 0)
    tracer = _load_bench("spans").Tracer(geopro)
    with tracer.installed():
        workload.op(geopro, state, 0)
    for span in spans:
        assert tracer.calls(span) >= 1, span


@pytest.mark.parametrize("name", sorted(_TINY_WORKLOADS))
def test_tiny_workload_runs_and_passes_its_checks(name, tmp_path):
    # the sequence of calls bench/run.py makes, without its timing
    workload, workdir, seed = _TINY_WORKLOADS[name], str(tmp_path), 0
    workload.make_inputs(geopro, workdir, seed)
    state = workload.setup(geopro, workdir, seed)
    for k in range(workload.warmup_ops):
        workload.op(geopro, state, k)
    workload.before_ops(geopro, state)
    first = workload.warmup_ops
    outputs = [
        (k, workload.op(geopro, state, k)[1]) for k in range(first, first + workload.min_ops)
    ]
    assert workload.check(geopro, state, outputs) == []
