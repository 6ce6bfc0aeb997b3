"""Spans recorded from outside the program, and the per-layer metrics built
from them.

The tracer wraps each public function under the name its caller looks up:
``network`` binds the layer functions at import, so those wrappers go on
``intrinsics.network``; reads are wrapped at both ``intrinsics.cli.read_png``
and ``intrinsics.data.read_png``.  ``deconv_backward`` reaches
``layers.conv_forward`` through the ``layers`` module, which is not wrapped,
so that call is counted once, inside ``deconv_backward``.  Conv calls are
attributed to named layers by mapping the ``spec`` argument back through
``Network.specs`` by identity, because several layers have equal specs.

A span is (name, start, end, parent, operation).  Spans stay in memory and
are written out when the run ends.  Training iterations are delimited by the
returns of ``sgd_momentum_step``; each gets a ``trainer.train_loop`` span
(the loop's own code) holding a ``data.batch`` span that lasts until
``Network.forward`` is called.  The first iteration of each ``train`` call
and the work around the loop are set-up, not operations.
"""

from __future__ import annotations

import json
import struct
import time
import zlib
from collections import defaultdict

import numpy as np

import intrinsics.cli as cli
import intrinsics.data as data
import intrinsics.metrics as metrics
import intrinsics.network as network
import intrinsics.rng as rng
import intrinsics.trainer as trainer

NAME, START, END, PARENT, OP = range(5)

LAYER_FUNCS = [f"{fn}_{side}" for fn in ("conv", "deconv", "max_pool",
                                         "bilinear_upsample", "prelu", "dropout")
               for side in ("forward", "backward")]
CONV_FUNCS = ("conv_forward", "conv_backward", "deconv_forward", "deconv_backward")
NET_LAYERS = [f"s1.conv{i}" for i in range(1, 7)] + [f"s2.conv{i}" for i in range(1, 5)] \
    + ["albedo.conv", "albedo.deconv", "shading.conv", "shading.deconv"]
F32 = 4


def conv_work(func: str, spec, x_shape) -> tuple[float, int, int, list]:
    """Computed (FLOPs, column-matrix bytes, column matrices built, GEMM
    shapes) of one conv call.

    ``x_shape`` is the layer's data input: the conv input for conv_*, the
    deconv input for deconv_*.  A column matrix is the float32
    (N, C*kh*kw, P) operand of an im2col or col2im; backward passes build
    two.  A GEMM is (batch, M, K, N) for a batched (M,K)@(K,N).
    """
    n, _, h, w = x_shape
    k = spec.in_channels * spec.kernel_h * spec.kernel_w
    c = spec.out_channels
    p = spec.out_extent(h, w)[0] * spec.out_extent(h, w)[1] \
        if func.startswith("conv") else h * w  # deconv input = conv output grid
    cols = n * k * p * F32
    if func == "conv_forward":
        return 2.0 * n * c * k * p, cols, 1, [(n, c, k, p)]
    if func == "deconv_forward":
        return 2.0 * n * c * k * p, cols, 1, [(n, k, c, p)]
    # backward: the weight gradient is one GEMM over batch * pixels; the
    # input gradient is a column GEMM (conv) or a conv forward (deconv)
    dx = (n, k, c, p) if func == "conv_backward" else (n, c, k, p)
    return 4.0 * n * c * k * p, cols, 2, [(1, c, n * p, k), dx]


def png_rows(path: str) -> tuple[int, list[int]]:
    """(raw scanline bytes, rows per filter type 0-4) of a PNG file."""
    with open(path, "rb") as f:
        blob = f.read()
    pos, idat, ihdr = 8, [], None
    while pos < len(blob):
        (length,) = struct.unpack(">I", blob[pos:pos + 4])
        kind = blob[pos + 4:pos + 8]
        if kind == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", blob[pos + 8:pos + 8 + length])
        elif kind == b"IDAT":
            idat.append(blob[pos + 8:pos + 8 + length])
        pos += 12 + length
    w, h, depth, color_type = ihdr[:4]
    stride = w * (3 if color_type == 2 else 1) * depth // 8
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    filters = raw.reshape(h, stride + 1)[:, 0]
    return h * stride, np.bincount(filters, minlength=5)[:5].tolist()


class Tracer:
    """Wraps the program's public functions while installed; records spans,
    counters and per-span attributes (conv work, PNG paths and sizes)."""

    def __init__(self):
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.counts: list[tuple] = []  # (key, n, op)
        self.iterations = 0  # completed iterations that are operations
        self.stack: list[int] = []
        self.op = ["setup", 0]
        self.layer_of: dict[int, tuple] = {}
        self._saved: list = []
        self._iter_span = -1
        self._iters = 0

    # -- spans ---------------------------------------------------------------

    def set_op(self, kind: str, ident) -> None:
        self.op = [kind, ident]

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def count(self, key: str, n: int) -> None:
        self.counts.append((key, n, self.op))

    def _close_batch(self) -> None:
        if self.stack and self.spans[self.stack[-1]][NAME] == "data.batch":
            self.close(self.stack[-1])

    def _start_iteration(self) -> None:
        self._iter_span = self.open("trainer.train_loop")
        self.open("data.batch")

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, orig, after=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                self.attrs[idx] = after(args, kwargs, out)
            return out
        return wrapper

    def install(self) -> None:
        """Wrap every traced function; ``uninstall`` restores them."""
        span = self._span
        for func in LAYER_FUNCS:
            orig = getattr(network, func)
            self._patch(network, func, self._conv(func, orig) if func in CONV_FUNCS
                        else span(f"layers.{func}", orig))

        def register(args, kwargs, net):
            for name, spec in net.specs.items():
                self.layer_of[id(spec)] = (spec, name)  # keeps spec ids unique
            return {}

        def read_attrs(args, kwargs, out):
            return {"path": str(args[0])}

        def write_attrs(args, kwargs, out):
            depth = kwargs.get("bit_depth", args[2] if len(args) > 2 else 16)
            return {"bytes": int(np.asarray(args[1]).size) * depth // 8}

        read = span("png_io.read_png", cli.read_png, read_attrs)
        self._patch(cli, "read_png", read)
        self._patch(data, "read_png", read)
        self._patch(cli, "write_png", span("png_io.write_png", cli.write_png, write_attrs))
        self._patch(cli, "main", span("cli.main", cli.main))
        self._patch(cli, "load_dataset", span("data.load_dataset", cli.load_dataset))
        self._patch(cli, "load_sample", span("data.load_sample", cli.load_sample))
        self._patch(cli, "build_network",
                    span("network.build_network", cli.build_network, register))
        self._patch(cli, "load_checkpoint",
                    span("trainer.load_checkpoint", cli.load_checkpoint))
        self._patch(cli, "network_from_checkpoint",
                    span("trainer.network_from_checkpoint",
                         cli.network_from_checkpoint, register))
        self._patch(cli, "decompose_image",
                    span("trainer.decompose_image", cli.decompose_image))
        self._patch(cli, "evaluate_report",
                    span("metrics.evaluate_report", cli.evaluate_report))
        self._patch(cli, "train_loop", self._train_loop(cli.train_loop))
        self._patch(trainer, "augment", span("data.augment", trainer.augment))
        self._patch(trainer, "total_loss", span("losses.total_loss", trainer.total_loss))
        self._patch(trainer, "save_checkpoint",
                    span("trainer.save_checkpoint", trainer.save_checkpoint))
        self._patch(trainer, "sgd_momentum_step", self._step(trainer.sgd_momentum_step))
        self._patch(network.Network, "forward", self._forward(network.Network.forward))
        self._patch(network.Network, "backward",
                    span("network.backward", network.Network.backward))
        self._patch(metrics, "si_mse", self._si_mse(metrics.si_mse))
        self._patch(metrics, "lmse", span("metrics.lmse", metrics.lmse))
        self._patch(metrics, "dssim", span("metrics.dssim", metrics.dssim))
        for method in ("uniform", "normal", "integers", "permutation"):
            self._patch(rng.Rng, method, self._draw(getattr(rng.Rng, method),
                                                    timed=method == "uniform"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _conv(self, func: str, orig):
        def after(args, kwargs, out):
            spec = args[3] if len(args) > 3 else kwargs["spec"]
            data_in = args[1] if func.endswith("backward") else args[0]
            flops, cols, mats, gemms = conv_work(func, spec, data_in.shape)
            layer = self.layer_of.get(id(spec), (None, "unknown"))[1]
            return {"layer": layer, "flops": flops, "cols": cols, "mats": mats,
                    "gemms": gemms}
        return self._span(f"layers.{func}", orig, after)

    def _forward(self, orig):
        inner = self._span("network.forward", orig)

        def wrapper(*args, **kwargs):
            self._close_batch()
            return inner(*args, **kwargs)
        return wrapper

    def _train_loop(self, orig):
        def wrapper(*args, **kwargs):
            outer = self.open("trainer.train_loop.setup")
            self._start_iteration()
            try:
                return orig(*args, **kwargs)
            finally:
                # the iteration opened after the last step holds the final
                # checkpoint write: it is set-up, not an operation
                self._close_batch()
                self.close(self._iter_span)
                self.op[:] = self.spans[outer][OP]
                self.op = self.spans[outer][OP]
                self.close(outer)
        return wrapper

    def _step(self, orig):
        inner = self._span("trainer.sgd_momentum_step", orig)

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.close(self._iter_span)
            self.iterations += self.spans[self._iter_span][OP][0] == "iter"
            self._iters += 1
            self.op = ["iter", self._iters]
            self._start_iteration()
            return out
        return wrapper

    def _si_mse(self, orig):
        inner = self._span("metrics.si_mse", orig)

        def wrapper(*args, **kwargs):
            # the per-window calls from lmse are part of lmse's own time
            if self.stack and self.spans[self.stack[-1]][NAME] == "metrics.lmse":
                self.count("lmse_windows", 1)
                return orig(*args, **kwargs)
            return inner(*args, **kwargs)
        return wrapper

    def _draw(self, orig, timed: bool):
        inner = self._span("rng.uniform", orig) if timed else orig

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.count("draws", int(np.size(out)))
            return out
        return wrapper

    # -- results -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "op": list(op), **self.attrs.get(i, {})}
                f.write(json.dumps(rec) + "\n")


def measure_roofs(gemms) -> dict:
    """Best-of-several ``np.matmul`` time for each (batch, M, K, N) float32
    GEMM shape: the roof each conv layer's own GEMMs could reach here."""
    roofs = {}
    for shape in sorted(set(gemms)):
        b, m, k, n = shape
        a = np.full((b, m, k) if b > 1 else (m, k), 0.5, dtype=np.float32)
        x = np.full((b, k, n) if b > 1 else (k, n), 0.25, dtype=np.float32)
        times = []
        while len(times) < 2 or (sum(times) < 0.1 and len(times) < 20):
            t = time.perf_counter()
            np.matmul(a, x)
            times.append(time.perf_counter() - t)
        roofs[shape] = min(times)
        del a, x
    return roofs


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]


def layer_metrics(tr: Tracer, op_kinds, n_ops: int, n_setups: int) -> dict:
    """Per-layer metrics from the spans of the traced calls.

    Times are self times per operation.  A function that ran only during
    set-up (dataset load and network build when training) is reported per
    set-up instead.  ``network.forward_s`` and ``network.backward_s`` are
    inclusive; ``network.glue_s`` is their self time.  Work counts (FLOPs,
    column bytes) are computed from shapes, not measured.
    """
    st = self_times(tr.spans)
    in_op = [s[OP][0] in op_kinds for s in tr.spans]
    op_self, setup_self, op_incl = defaultdict(float), defaultdict(float), defaultdict(float)
    for i, s in enumerate(tr.spans):
        if in_op[i]:
            op_self[s[NAME]] += st[i]
            op_incl[s[NAME]] += s[END] - s[START]
        else:
            setup_self[s[NAME]] += st[i]

    names = defaultdict(list)
    for i, s in enumerate(tr.spans):
        names[s[NAME]].append(i)

    def scoped(name):
        """Spans of ``name`` in operations, else in set-up, with the count
        to divide by."""
        ops = [i for i in names[name] if in_op[i]]
        return (ops, n_ops) if ops else (names[name], n_setups)

    def per(name):
        spans, n = scoped(name)
        return sum(st[i] for i in spans) / n

    m = {}
    for func in LAYER_FUNCS:
        m[f"layers.{func}_s"] = per(f"layers.{func}")

    conv = [i for f in CONV_FUNCS for i in names[f"layers.{f}"] if in_op[i]]
    gemm_count = defaultdict(float)
    by_layer = defaultdict(lambda: {"fwd_s": 0.0, "bwd_s": 0.0, "flops": 0.0,
                                    "gemms": defaultdict(float)})
    for i in conv:
        a = tr.attrs[i]
        rec = by_layer[a["layer"]]
        rec["bwd_s" if tr.spans[i][NAME].endswith("backward") else "fwd_s"] += st[i] / n_ops
        rec["flops"] += a["flops"] / n_ops
        for g in a["gemms"]:
            rec["gemms"][tuple(g)] += 1.0 / n_ops
            gemm_count[tuple(g)] += 1.0 / n_ops
    roofs = measure_roofs(gemm_count) if gemm_count else {}

    def gemm_flops(g):
        return 2.0 * g[0] * g[1] * g[2] * g[3]

    def roof_rate(counts):
        t = sum(c * roofs[g] for g, c in counts.items())
        return sum(c * gemm_flops(g) for g, c in counts.items()) / t / 1e9 if t else 0.0

    conv_s = sum(st[i] for i in conv) / n_ops
    conv_flop = sum(tr.attrs[i]["flops"] for i in conv) / n_ops
    m["layers.conv_gflop"] = conv_flop / 1e9
    m["layers.col_mb"] = sum(tr.attrs[i]["cols"] * tr.attrs[i]["mats"]
                             for i in conv) / n_ops / 1e6
    m["layers.col_peak_mb"] = max((tr.attrs[i]["cols"] for i in conv), default=0) / 1e6
    m["layers.conv_gflops"] = conv_flop / conv_s / 1e9 if conv_s else 0.0
    m["layers.conv_roof_gflops"] = roof_rate(gemm_count)
    m["layers.conv_roof_frac"] = (m["layers.conv_gflops"] / m["layers.conv_roof_gflops"]
                                  if m["layers.conv_roof_gflops"] else 0.0)
    m["layers.calls"] = sum(len([i for i in names[f"layers.{f}"] if in_op[i]])
                            for f in LAYER_FUNCS) / n_ops
    for layer in NET_LAYERS:
        rec = by_layer.get(layer)
        busy = rec["fwd_s"] + rec["bwd_s"] if rec else 0.0
        m[f"network.{layer}.fwd_s"] = rec["fwd_s"] if rec else 0.0
        m[f"network.{layer}.bwd_s"] = rec["bwd_s"] if rec else 0.0
        m[f"network.{layer}.gflops"] = rec["flops"] / busy / 1e9 if busy else 0.0
        m[f"network.{layer}.roof_gflops"] = roof_rate(rec["gemms"]) if rec else 0.0
    m["network.forward_s"] = op_incl["network.forward"] / n_ops
    m["network.backward_s"] = op_incl["network.backward"] / n_ops
    m["network.glue_s"] = (op_self["network.forward"] + op_self["network.backward"]) / n_ops
    m["network.build_network_s"] = per("network.build_network")
    m["losses.total_loss_s"] = per("losses.total_loss")
    m["data.batch_s"] = per("data.batch")
    m["data.augment_s"] = per("data.augment")
    m["data.load_dataset_s"] = per("data.load_dataset")
    m["data.load_sample_s"] = per("data.load_sample")
    m["rng.uniform_s"] = per("rng.uniform")
    for key, metric in (("draws", "rng.draws"), ("lmse_windows", "metrics.lmse_windows")):
        hits = [(n, op[0] in op_kinds) for k, n, op in tr.counts if k == key]
        in_ops = [n for n, o in hits if o]
        m[metric] = (sum(in_ops) / n_ops if in_ops
                     else sum(n for n, _ in hits) / n_setups)
    for name in ("sgd_momentum_step", "load_checkpoint", "network_from_checkpoint",
                 "decompose_image", "save_checkpoint", "train_loop"):
        m[f"trainer.{name}_s"] = per(f"trainer.{name}")

    reads, n_read = scoped("png_io.read_png")
    parsed = {p: png_rows(p) for p in {tr.attrs[i]["path"] for i in reads}}
    read_s = sum(st[i] for i in reads)
    read_bytes = sum(parsed[tr.attrs[i]["path"]][0] for i in reads)
    m["png_io.read_png_s"] = read_s / n_read
    m["png_io.read_mb_per_s"] = read_bytes / read_s / 1e6 if read_s else 0.0
    for f in range(5):
        m[f"png_io.rows_filter{f}"] = sum(parsed[tr.attrs[i]["path"]][1][f]
                                          for i in reads) / n_read
    writes, n_write = scoped("png_io.write_png")
    write_s = sum(st[i] for i in writes)
    m["png_io.write_png_s"] = write_s / n_write
    m["png_io.write_mb_per_s"] = (sum(tr.attrs[i]["bytes"] for i in writes) / write_s / 1e6
                                  if write_s else 0.0)
    for name in ("si_mse", "lmse", "dssim", "evaluate_report"):
        m[f"metrics.{name}_s"] = per(f"metrics.{name}")
    m["cli.glue_s"] = per("cli.main")
    m["trace.op_s"] = sum(op_self.values()) / n_ops
    return m
