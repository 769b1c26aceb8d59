"""Run one benchmark workload of geopro and print its metrics as JSON.

    python3 bench/run.py --workload train-toy --seed 1 --seconds 20 --trace 0

Each run executes one workload in this process.  It makes the inputs
from ``--seed``, times set-up in fresh child processes, warms up, then
times each op from outside the program for ``--seconds`` seconds and
checks the outputs.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A failed check makes the exit code 1.

Details of every run go to ``.bench_out/`` at the root of the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: the same code paths in seconds")
    parser.add_argument("--probe-setup", metavar="WORKDIR",
                        help=argparse.SUPPRESS)  # child mode: set up once, report
    return parser.parse_args(argv)


def import_geopro():
    if not os.path.isfile(os.path.join(SRC, "geopro", "__init__.py")):
        raise SystemExit("bench: no geopro sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import geopro.cli  # noqa: F401  (loads every module the workloads use)
    return sys.modules["geopro"]


def probe_setup(args):
    """Child mode: import geopro, read the inputs, build the model, report."""
    geopro = import_geopro()
    from workloads import workloads

    workloads(args.tiny)[args.workload].setup(geopro, args.probe_setup, args.seed)
    print("ready %.9f" % time.monotonic(), flush=True)
    return 0


def time_setup(args, workdir, probes):
    """Median seconds from spawning a fresh process to its first op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup", workdir]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
        ready = float(done.stdout.split()[-1])
        times.append(ready - start)
    return times


def run_ops(workload, geopro, state, first_k, seconds, min_ops, tracer=None):
    """Time ops from outside; with a tracer, trace every second op."""
    walls, cpus, items, outputs, traced = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    k = first_k
    while len(walls) < min_ops or time.perf_counter() < deadline or len(walls) % 2:
        use_trace = tracer is not None and len(walls) % 2 == 1
        if use_trace:
            with tracer.installed():
                c0, t0 = time.process_time(), time.perf_counter()
                n, out = workload.op(geopro, state, k)
                t1, c1 = time.perf_counter(), time.process_time()
        else:
            c0, t0 = time.process_time(), time.perf_counter()
            n, out = workload.op(geopro, state, k)
            t1, c1 = time.perf_counter(), time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        items.append(n)
        traced.append(use_trace)
        outputs.append((k, out))
        k += 1
    return walls, cpus, items, outputs, traced


def layer_metrics(tracer, walls, items, traced):
    """Per-item layer figures from the traced ops, plus trace quality."""
    from spans import AUTODIFF_OPS

    t_walls = [w for w, t in zip(walls, traced) if t]
    u_walls = [w for w, t in zip(walls, traced) if not t]
    n = sum(i for i, t in zip(items, traced) if t)

    def per_item(total, scale=1):
        # Exact ratio first, so a count reads the same whatever n is.
        return float(Fraction(total, n) / scale)

    def secs(*names):
        return tracer.self_s(*names) / n

    m = {
        "egnn.fwd_s": (secs("egnn"), "s"),
        "egnn.layer.fwd_s": (secs("egnn.layer"), "s"),
        "egnn.fwd_total_s": (tracer.total_s("egnn") / n, "s"),
        "egnn.matmul_gflop": (per_item(tracer.egnn_matmul_flop, 10**9), "GFLOP"),
        "seqmodel.encoder.fwd_s": (secs("seqmodel.encoder"), "s"),
        "seqmodel.encoder.fwd_total_s": (tracer.total_s("seqmodel.encoder") / n, "s"),
        "seqmodel.encoder.calls": (per_item(tracer.calls("seqmodel.encoder")), "count"),
        "seqmodel.decoder.fwd_s": (secs("seqmodel.decoder"), "s"),
        "seqmodel.decoder.fwd_total_s": (tracer.total_s("seqmodel.decoder") / n, "s"),
        "seqmodel.sample_s": (secs("seqmodel.sample"), "s"),
        "pipeline.init_s": (secs("pipeline.init"), "s"),
        "pipeline.loss_s": (secs("pipeline.loss"), "s"),
        "autodiff.backward_s": (secs("autodiff.backward"), "s"),
        "autodiff.adam_s": (secs("autodiff.adam"), "s"),
        "autodiff.tape_nodes": (per_item(tracer.tape_nodes), "count"),
        "autodiff.tape_mb": (per_item(tracer.tape_bytes, 2**20), "MB"),
    }
    for op in AUTODIFF_OPS:
        name = "autodiff.op." + op
        m[name + ".calls"] = (per_item(tracer.calls(name)), "count")
        m[name + ".s"] = (secs(name), "s")
    m["trace.coverage"] = (tracer.summed_self_s() / sum(t_walls), "ratio")
    m["trace.overhead"] = (statistics.median(t_walls) / statistics.median(u_walls), "ratio")
    return m


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, HERE)
    from workloads import workloads

    table = workloads(args.tiny)
    if args.workload not in table:
        print("bench: unknown workload %r, expected one of %s"
              % (args.workload, sorted(table)), file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args)
    geopro = import_geopro()
    workload = table[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        workload.make_inputs(geopro, workdir, args.seed)
        setup_times = []
        if not args.trace:
            setup_times = time_setup(args, workdir, 2 if args.tiny else SETUP_PROBES)
        state = workload.setup(geopro, workdir, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    warmup_walls = []
    for k in range(workload.warmup_ops):
        start = time.perf_counter()
        workload.op(geopro, state, k)
        warmup_walls.append(time.perf_counter() - start)
    workload.before_ops(geopro, state)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(geopro)
    walls, cpus, items, outputs, traced = run_ops(
        workload, geopro, state, workload.warmup_ops, args.seconds,
        workload.min_ops, tracer,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = workload.check(geopro, state, outputs)
    for failure in failures:
        print("bench: check failed: %s" % failure, file=sys.stderr)

    if tracer is None:
        # Work completed per second over the whole window: a median of
        # per-op rates would jump between the phases of the machine's
        # speed, which drifts by tens of percent within a minute.
        metrics = {
            "items_per_s": (sum(items) / sum(walls), "1/s"),
            "cpu_s_per_item": (sum(cpus) / sum(items), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        metrics = layer_metrics(tracer, walls, items, traced)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "unit": workload.unit,
        "warmup_wall_s": warmup_walls, "op_wall_s": walls, "op_cpu_s": cpus,
        "op_items": items, "op_traced": traced,
        "setup_s": setup_times, "peak_rss_mb": peak_rss_mb, "failures": failures,
        "checks": {k: v for k, v in state.items() if k.endswith("_dev") or k.endswith("_err")},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if tracer is not None:
        detail["spans"] = tracer.table()
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                  "-tiny" if args.tiny else "")
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as handle:
        json.dump(detail, handle, indent=1)

    print(json.dumps({
        "correct": not failures,
        "attempted": len(walls),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
