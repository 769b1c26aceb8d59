"""Self-test of the benchmark harness at tiny sizes; runs in well under a minute.

    python3 bench/selftest.py

For every workload it runs ``run.py --tiny`` untraced once and traced
twice, and checks that each result line has the fields and metric names
that ``BENCHMARK.json`` declares, that every output check passed, that
the traced counts repeat exactly, and that the checks do fail on broken
outputs.  It also runs the harness in a directory without the geopro
sources and expects a non-zero exit without a result line.  Exits 1 on
the first failed expectation.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
COUNTS = ("calls", "tape_nodes", "tape_mb", "matmul_gflop")


def fail(message):
    print("selftest: FAIL: %s" % message)
    sys.exit(1)


def run(workload, trace, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace, declared):
    done = run(workload, trace)
    if done.returncode != 0:
        fail("%s trace=%d exited %d: %s" % (workload, trace, done.returncode, done.stderr[-800:]))
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(line)))
    if line["correct"] is not True or line["failed"] != 0 or line["attempted"] < 1:
        fail("%s: correct=%r failed=%r attempted=%r"
             % (workload, line["correct"], line["failed"], line["attempted"]))
    units = {name: m["unit"] for name, m in line["metrics"].items()}
    if units != declared:
        fail("%s trace=%d: metrics differ from BENCHMARK.json: %s"
             % (workload, trace, sorted(set(units) ^ set(declared))))
    return {name: m["value"] for name, m in line["metrics"].items()}


def checks_catch_faults():
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import geopro.cli  # noqa: F401
    from workloads import workloads

    geopro = sys.modules["geopro"]
    table = workloads(tiny=True)
    workdir = os.path.join(ROOT, ".bench_out", "selftest-%d" % os.getpid())
    try:
        for name, workload in table.items():
            os.makedirs(workdir, exist_ok=True)
            workload.make_inputs(geopro, workdir, 3)
            state = workload.setup(geopro, workdir, 3)
            workload.before_ops(geopro, state)
            outputs = [(k, workload.op(geopro, state, k)[1]) for k in range(2)]
            if workload.check(geopro, state, outputs):
                fail("%s: checks fail on good outputs" % name)
            if name.startswith("train"):
                outputs[0][1][0].train_total = float("nan")
            else:
                outputs[1][1][0].sequence[state["motif"].positions[0]] += 1
                outputs[1][1][1].coords[0, 0] = np.inf
            if len(workload.check(geopro, state, outputs)) < (1 if name.startswith("train") else 2):
                fail("%s: checks pass on broken outputs" % name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fails_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "bare-%d" % os.getpid())
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run("train-toy", 0, cwd=bare,
                   script=os.path.join(bare, os.path.basename(HERE), "run.py"))
        if done.returncode == 0 or '"metrics"' in done.stdout:
            fail("a checkout without geopro sources printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        result(workload, 0, end_to_end)
        first, second = (result(workload, 1, per_layer) for _ in range(2))
        for name, value in first.items():
            if name.endswith(COUNTS) and value != second[name]:
                fail("%s: count %s differs between traced runs: %r vs %r"
                     % (workload, name, value, second[name]))
        print("selftest: %s ok" % workload, flush=True)
    checks_catch_faults()
    print("selftest: checks catch broken outputs", flush=True)
    fails_without_sources()
    print("selftest: a bare checkout exits non-zero without a result")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
