"""Span tracing from outside the program, by wrapping public functions.

Each wrapped function records a span: its name, its duration, and the
time covered by the spans it caused.  A span's self time is its
duration minus that child time.  Spans are aggregated by name in memory
while they close; nothing inside ``geopro`` is edited.

Every function is wrapped where its caller looks it up: ``pipeline``
imports the encoder, EGNN, decoder, sampling and initialisation
functions by name, ``egnn.egnn_forward`` finds ``egcl_forward`` in its
own module, and every layer calls the autodiff ops as ``ad.<op>``.
"""

import contextlib
import time

# Public autodiff ops; ``Tensor`` operators reach them through the module
# globals of ``geopro.autodiff``, so one wrapper per op sees every call.
AUTODIFF_OPS = (
    "add", "sub", "mul", "div", "neg", "matmul", "tsum", "tmean", "concat",
    "reshape", "transpose", "gather_rows", "index_add_rows", "sigmoid", "silu",
    "sqrt", "square", "softmax", "log_softmax",
)

EGNN = "egnn"


def _targets(geopro):
    """(owner, attribute, span name) for every function the trace wraps."""
    pl, eg, ad = geopro.pipeline, geopro.egnn, geopro.autodiff
    out = [
        (pl, "encode_context", "seqmodel.encoder"),
        (pl, "egnn_forward", EGNN),
        (eg, "egcl_forward", "egnn.layer"),
        (pl, "gsd_feature_select", "seqmodel.decoder"),
        (pl, "decode_logits", "seqmodel.decoder"),
        (pl, "sample_top_k", "seqmodel.sample"),
        (pl, "init_backbone_coords", "pipeline.init"),
        (pl, "backbone_loss", "pipeline.loss"),
        (pl, "sequence_loss", "pipeline.loss"),
        (pl, "total_loss", "pipeline.loss"),
        (ad.Tape, "backward", "autodiff.backward"),
        (ad, "adam_step", "autodiff.adam"),
    ]
    out += [(ad, op, "autodiff.op." + op) for op in AUTODIFF_OPS]
    return out


class Tracer:
    """Aggregated spans and counts of every call made while installed."""

    def __init__(self, geopro):
        self._geopro = geopro
        self._stack = []  # [name, child seconds] of each open span
        self.spans = {}  # name -> [calls, self seconds, total seconds]
        self.top_level_s = 0.0
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.egnn_matmul_flop = 0

    def _close(self, name, duration, child_s):
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration - child_s
        entry[2] += duration
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_level_s += duration

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                self._close(name, duration, frame[1])

        return traced

    def _inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def _op(self, opname, fn):
        ad = self._geopro.autodiff
        span = self._span("autodiff.op." + opname, fn)

        def counted(*args, **kwargs):
            tape = ad.active_tape()
            recorded = len(tape) if tape is not None else 0
            out = span(*args, **kwargs)
            if tape is not None and len(tape) > recorded:
                self.tape_bytes += out.data.nbytes
            if opname == "matmul" and self._inside(EGNN):
                a, b = args[0], args[1]
                batch = out.data.size // (a.shape[-2] * b.shape[-1])
                self.egnn_matmul_flop += 2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]
            return out

        return counted

    def _backward(self, fn):
        span = self._span("autodiff.backward", fn)

        def counted(tape, loss):
            self.tape_nodes += len(tape)
            return span(tape, loss)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name in _targets(self._geopro):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                if name.startswith("autodiff.op."):
                    wrapper = self._op(attr, original)
                elif name == "autodiff.backward":
                    wrapper = self._backward(original)
                else:
                    wrapper = self._span(name, original)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_s(self, *names):
        return sum(self.spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def total_s(self, *names):
        return sum(self.spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def summed_self_s(self):
        return sum(entry[1] for entry in self.spans.values())

    def table(self):
        """Per-name rows, largest self time first."""
        rows = [
            {"span": name, "calls": calls, "self_s": self_s, "total_s": total_s}
            for name, (calls, self_s, total_s) in self.spans.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])
