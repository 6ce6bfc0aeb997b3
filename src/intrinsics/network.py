"""The two-scale convolutional regression network.

Scale 1 is an AlexNet-style stack (conv1-conv5 with 3x3 stride-2 max pools
after conv1, conv2, and conv5) followed by a 1x1 conv6 whose output is
bilinearly upsampled x8 to one quarter of the input resolution, keeping the
model fully convolutional.  Scale 2 extracts fine features with a stride-2
9x9 conv plus a 2x2 pool down to the same quarter resolution, concatenates
the scale-1 output, and runs three 5x5 convs into two prediction heads
(albedo and shading) that regress log-domain maps at full resolution,
either through a learned 8x8 stride-4 deconvolution or a 3-channel conv
followed by fixed bilinear x4 upsampling.

conv6 runs before the upsample: a 1x1 conv commutes with bilinear
upsampling, whose interpolation weights sum to 1, bias included.  So it
computes what upsample-then-conv6 would, up to float rounding, on 1/64 of
the cells.  The optional hypercolumn variant feeds conv6 the post-pool
conv1/conv2/conv5 maps as well: conv6 applies each map's columns of its
weight at that map's own resolution, upsamples the three results x2, x4
and x8 to quarter resolution, sums them and adds its bias once, which is
conv6 over the concatenation of the upsampled maps.  Everything
downstream of conv6 is identical across variants.

Images of any extents go in: ``Network.forward`` edge-pads the bottom and
right to a multiple of ``input_multiple`` (of the total stride 32) and crops
the outputs back, and ``Network.backward`` applies the pad's adjoint.

Widths scale with ``channel_scale`` (rounded up) so that shape contracts
and gradient checks can run on tiny instances; channel_scale 1 is the full
topology (96/256/384/384/256 + 64, scale-2 9x9/96).  PReLU follows every
layer except each head's 3-channel predictor (the deconv, or the bilinear
head's conv), and dropout follows every PReLU layer except scale-1
conv1-conv5, so no prediction is ever dropped out.  A pooled layer whose
slopes are all positive runs its PReLU after the pool, which it commutes
with (see ``Network._block``).

The dropout rng is the one train/eval switch: a forward given one draws
dropout masks and returns the tape it records, the caller's to hand to one
``Network.backward``, and a forward without one does neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .layers import (ConvSpec, bilinear_upsample_backward,
                     bilinear_upsample_forward, conv_backward, conv_forward,
                     deconv_backward, deconv_forward, dropout_backward,
                     dropout_forward, dropout_scale, max_pool_backward,
                     max_pool_forward, pad_constant, prelu_backward, prelu_forward)
from .rng import Rng

PRELU_INIT = 0.25
# conv1's stride 4 times the three stride-2 pools that follow it
TOTAL_STRIDE = 32
# each key of Network.widths -> (its width at channel_scale 1, the layer
# whose weight's first axis carries it)
WIDTHS = {"c1": (96, "s1.conv1"), "c2": (256, "s1.conv2"), "c3": (384, "s1.conv3"),
          "c4": (384, "s1.conv4"), "c5": (256, "s1.conv5"), "c6": (64, "s1.conv6"),
          "s2c1": (96, "s2.conv1"), "mid": (64, "s2.conv2"), "head": (64, "albedo.conv")}


@dataclass
class NetworkConfig:
    channel_scale: float = 1.0
    use_hypercolumn: bool = False
    use_deconv_head: bool = True
    dropout_prob: float = 0.5
    input_multiple: int = 32

    def __post_init__(self):
        if not (math.isfinite(self.channel_scale) and self.channel_scale > 0):
            raise ValueError(f"NetworkConfig: channel_scale must be finite and > 0, "
                             f"got {self.channel_scale}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("NetworkConfig: dropout_prob outside [0, 1)")
        if self.input_multiple < 1 or self.input_multiple % TOTAL_STRIDE:
            raise ValueError(f"NetworkConfig: input_multiple must be a positive "
                             f"multiple of {TOTAL_STRIDE}, the network's total "
                             f"stride, got {self.input_multiple}")

    def width(self, base: int) -> int:
        return max(1, math.ceil(base * self.channel_scale))


class Param:
    """One named parameter tensor with its gradient and momentum buffers."""

    __slots__ = ("name", "value", "grad", "momentum")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        # np.zeros, unlike zeros_like, leaves untouched pages unmapped: an
        # eval process never makes its gradient and momentum resident
        self.grad = np.zeros(value.shape, value.dtype)
        self.momentum = np.zeros(value.shape, value.dtype)

    def zero_grad(self):
        self.grad.fill(0.0)


class _Var(NamedTuple):
    """A forward value, the tape that recorded it (None when not recording)
    and the tape position of the step that produced it."""
    value: np.ndarray
    tape: list | None
    slot: int


def _record(y, backward, *inputs) -> _Var:
    """Append one step to its inputs' tape.  ``backward`` maps the gradient
    of ``y`` to the gradients of ``inputs``, routed by tape position."""
    tape = inputs[0].tape
    if tape is None:
        return _Var(y, None, -1)
    tape.append((backward, tuple(v.slot for v in inputs)))
    return _Var(y, tape, len(tape) - 1)


class Network:
    """Built topology plus the named parameter registry.

    ``forward`` given an rng is a training forward: it draws the dropout
    masks and returns a tape, one entry per step, holding what that step's
    backward reads.  Without an rng it is eval: no dropout and no tape.  A
    step is one layer (see ``_block``), except scale 2's concatenation and
    the output seed, which keep nothing.  A layer keeps its conv inputs,
    which are earlier layers' outputs, its pool's winning taps (uint8) and
    its dropout mask (``np.packbits``, one bit per cell, unpacked in its
    backward), and reads its PReLU input back from its own output.  Where
    every slope of a pooled layer is positive, its PReLU runs after the
    pool.  ``backward`` replays a tape once, in reverse; it
    writes only the parameter gradients, which accumulate across calls until
    ``zero_grads``.  A network built with ``rng`` None has zero weights, for
    a caller that installs its own (``network_from_shapes``).
    """

    def __init__(self, cfg: NetworkConfig, rng: Rng | None, dtype=np.float32,
                 widths: dict[str, int] | None = None):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Param] = {}
        self.specs: dict[str, ConvSpec] = {}
        self.widths = dict(widths) if widths else {
            key: cfg.width(base) for key, (base, _) in WIDTHS.items()}
        self._build(rng)

    # -- construction -----------------------------------------------------

    def _add_conv(self, name: str, spec: ConvSpec, rng: Rng | None, prelu: bool = True):
        self.specs[name] = spec
        w_shape = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
        if name.endswith(".deconv"):
            # data flows out_channels -> in_channels through a deconv
            fan_in = spec.out_channels * spec.kernel_h * spec.kernel_w
            out_ch = spec.in_channels
        else:
            fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w
            out_ch = spec.out_channels
        if rng is None:
            w = np.zeros(w_shape, dtype=self.dtype)
        else:
            w = (rng.normal(w_shape) * math.sqrt(2.0 / fan_in)).astype(self.dtype)
        self.params[f"{name}.weight"] = Param(f"{name}.weight", w)
        self.params[f"{name}.bias"] = Param(f"{name}.bias",
                                            np.zeros(out_ch, dtype=self.dtype))
        if prelu:
            slopes = np.full(out_ch, PRELU_INIT, dtype=self.dtype)
            self.params[f"{name}.slope"] = Param(f"{name}.slope", slopes)

    def _build(self, rng: Rng | None):
        cfg = self.cfg
        wd = self.widths
        self._add_conv("s1.conv1", ConvSpec(3, wd["c1"], 11, 11, 4, 4, 5, 5), rng)
        self._add_conv("s1.conv2", ConvSpec(wd["c1"], wd["c2"], 5, 5, 1, 1, 2, 2), rng)
        self._add_conv("s1.conv3", ConvSpec(wd["c2"], wd["c3"], 3, 3, 1, 1, 1, 1), rng)
        self._add_conv("s1.conv4", ConvSpec(wd["c3"], wd["c4"], 3, 3, 1, 1, 1, 1), rng)
        self._add_conv("s1.conv5", ConvSpec(wd["c4"], wd["c5"], 3, 3, 1, 1, 1, 1), rng)
        # conv6's input groups, each with the factor that takes it to quarter
        # resolution: post-pool conv1 and conv2 (hypercolumn only), then conv5
        taps = ([(wd["c1"], 2), (wd["c2"], 4)] if cfg.use_hypercolumn else []) + [(wd["c5"], 8)]
        conv6 = ConvSpec(sum(c for c, _ in taps), wd["c6"], 1, 1)
        self._add_conv("s1.conv6", conv6, rng)
        # layer -> its input groups, (spec, weight columns, upsample factor),
        # where that is not one group of every column at factor 1: conv6's
        # 1x1 conv runs on each group at the group's own resolution
        starts = np.cumsum([0] + [c for c, _ in taps])
        self._groups = {"s1.conv6": [
            (conv6 if len(taps) == 1 else ConvSpec(c, wd["c6"], 1, 1),
             slice(int(c0), int(c0) + c), factor)
            for (c, factor), c0 in zip(taps, starts)]}

        self._add_conv("s2.conv1", ConvSpec(3, wd["s2c1"], 9, 9, 2, 2, 4, 4), rng)
        cat_ch = wd["s2c1"] + wd["c6"]
        self._add_conv("s2.conv2", ConvSpec(cat_ch, wd["mid"], 5, 5, 1, 1, 2, 2), rng)
        self._add_conv("s2.conv3", ConvSpec(wd["mid"], wd["mid"], 5, 5, 1, 1, 2, 2), rng)
        self._add_conv("s2.conv4", ConvSpec(wd["mid"], wd["mid"], 5, 5, 1, 1, 2, 2), rng)

        for head in ("albedo", "shading"):
            if cfg.use_deconv_head:
                self._add_conv(f"{head}.conv",
                               ConvSpec(wd["mid"], wd["head"], 5, 5, 1, 1, 2, 2), rng)
                self._add_conv(f"{head}.deconv",
                               ConvSpec(3, wd["head"], 8, 8, 4, 4, 2, 2),
                               rng, prelu=False)
            else:
                pred = ConvSpec(wd["mid"], 3, 5, 5, 1, 1, 2, 2)
                self._add_conv(f"{head}.conv", pred, rng, prelu=False)
                self._groups[f"{head}.conv"] = [(pred, slice(None), 4)]

    # -- registry ---------------------------------------------------------

    def zero_grads(self):
        for p in self.params.values():
            p.zero_grad()

    # -- steps: each runs one layer and records its backward on the tape ---

    def _block(self, name, xs, pool=None, drop=None, out=None):
        """One layer as one tape step: the sum over its input groups of a
        conv (a deconv for ``*.deconv``) on the group's columns of the
        weight, upsampled by the group's factor when it is above 1, plus one
        bias; then [max pool] -> [PReLU] -> [dropout] while every slope is
        positive, and [PReLU] -> [max pool | dropout] otherwise.  A layer has
        one group of every column at factor 1, except conv6, whose groups
        each run at their own resolution, and the bilinear head's predictor,
        at factor 4.

        A PReLU with positive slopes is strictly increasing, so it commutes
        with max and runs on the pooled grid, on a quarter of the cells.  The
        pool then picks its winners on the conv output.  The one difference
        from pooling the PReLU output is two negative taps whose products
        with the slope round to one value: the larger input wins, not the
        first of the two.

        ``pool`` is (kernel, stride), ``drop`` is the dropout rng (None in
        eval, or for a layer without dropout), and ``out``, if given,
        receives the result: a slice of the next layer's concatenated input.
        The step keeps what its backward reads: the conv inputs, the pool's
        winning taps, the dropout mask packed to one bit per cell, and its
        own output, which the next layer keeps as well.

        While every slope is positive, backward runs dropout, then PReLU on
        the grid of the step's output, reading the PReLU output from it,
        then the pool.  The pool routes each window's gradient to its
        winner, whose PReLU output is the window's output.  A negative cell
        that wins k overlapping windows gets sum(a * dy_i), not
        a * sum(dy_i), so its dx moves at float rounding level.  A layer
        with any other slope keeps the PReLU input and runs dropout, pool,
        then PReLU at full size.
        """
        w, b = self.params[f"{name}.weight"], self.params[f"{name}.bias"]
        a = self.params.get(f"{name}.slope")
        p = self.cfg.dropout_prob
        groups = self._groups.get(name, [(self.specs[name], slice(None), 1)])
        deconv = name.endswith(".deconv")
        xvs = [v.value for v in xs]
        record = xs[0].tape is not None
        y = None
        lows = []  # each group's conv output shape, for the upsample adjoint
        for i, (xv, (spec, cols, factor)) in enumerate(zip(xvs, groups)):
            part = (deconv_forward if deconv else conv_forward)(
                xv, w.value[:, cols], b.value if i == 0 else None, spec)
            lows.append(part.shape)
            if factor > 1:
                part = bilinear_upsample_forward(part, factor)
            y = part if y is None else y + part
        pre_shape = y.shape
        after_pool = a is not None and (a.value > 0).all()
        kept_in = y if a is not None and record and not after_pool else None
        if a is not None and not after_pool:
            y = prelu_forward(y, a.value)
        arg = keep = None
        if pool is not None:
            y = max_pool_forward(y, *pool, winners=record)
            if record:
                y, arg = y
        if after_pool:
            y = prelu_forward(y, a.value)
        if drop is not None:
            y, keep = dropout_forward(y, p, drop)
        if out is not None:
            assert y.shape == out.shape, f"{name}: output {y.shape} does not fit {out.shape}"
            out[...] = y
            y = out
        if not record:
            return _Var(y, None, -1)
        kept_out = y if a is not None and kept_in is None else None
        scale = dropout_scale(y.dtype, p) if keep is not None else 1.0
        bits = np.packbits(keep) if keep is not None else None

        def backward(dy, input_grad=True):
            if bits is not None:
                keep = np.unpackbits(bits, count=dy.size).view(bool).reshape(dy.shape)
                dy = dropout_backward(dy, keep, p)
            if kept_out is not None:
                dy, da = prelu_backward(dy, kept_out, a.value, out_scale=scale)
            if pool is not None:
                dy = max_pool_backward(dy, arg, pre_shape, *pool)
            if kept_in is not None:
                dy, da = prelu_backward(dy, kept_in, a.value)
            if a is not None:
                a.grad += da
            dxs = []
            for i, (xv, low, (spec, cols, factor)) in enumerate(zip(xvs, lows, groups)):
                d = bilinear_upsample_backward(dy, factor, low) if factor > 1 else dy
                if deconv:
                    dx, dw, db = deconv_backward(d, xv, w.value[:, cols], spec)
                else:
                    dx, dw, db = conv_backward(d, xv, w.value[:, cols], spec,
                                               input_grad=input_grad)
                w.grad[:, cols] += dw
                if i == 0:
                    b.grad += db
                dxs.append(dx)
            return tuple(dxs)
        return _record(y, backward, *xs)

    # -- inference ---------------------------------------------------------

    def forward(self, image: np.ndarray, rng: Rng | None = None):
        """Run the network on one (1,3,H,W) image of any extents; returns
        (log_albedo, log_shading) at its extents, as views of the padded
        maps.  Any other batch size is rejected: a batch is train_loop's,
        one forward per image.

        ``rng`` is the one train/eval switch.  A forward given an rng is a
        training forward: it draws the dropout masks from it and returns
        (log_albedo, log_shading, tape), the tape for one ``backward``.  A
        forward without one is eval: no dropout, no tape, and each
        activation is freed once its consumer has run.  Every layer, the
        bilinear head's x4 upsample included, is one ``_block`` step."""
        if image.ndim != 4 or image.shape[:2] != (1, 3):
            raise ValueError(f"forward: runs on one image (1,3,H,W), got {image.shape}")
        h, w = image.shape[2:]
        m = self.cfg.input_multiple
        ph, pw = -h % m, -w % m
        pad = ((0, 0), (0, 0), (0, ph), (0, pw))
        unpad = None
        if ph or pw:  # one padded array: cast into, then edge-filled in place
            x = np.empty((1, 3, h + ph, w + pw), self.dtype)
            x[:, :, :h, :w] = image
            x[:, :, :h, w:] = x[:, :, :h, w - 1:w]
            x[:, :, h:] = x[:, :, h - 1:h]

            def unpad(dx):  # the pad's adjoint: copies fold onto the edge
                if ph:
                    dx[:, :, h - 1] += dx[:, :, h:].sum(axis=2)
                if pw:
                    dx[:, :, :h, w - 1] += dx[:, :, :h, w:].sum(axis=3)
                return dx[:, :, :h, :w]
        else:
            x = np.ascontiguousarray(image, dtype=self.dtype)

        # position 0: the padded image, with the pad's adjoint if any
        tape = [(unpad, ())] if rng is not None else None
        x = _Var(x, tape, 0)
        block = self._block

        # scale 1
        p1 = block("s1.conv1", [x], pool=(3, 2))
        p2 = block("s1.conv2", [p1], pool=(3, 2))
        p5 = block("s1.conv5", [block("s1.conv4", [block("s1.conv3", [p2])])], pool=(3, 2))
        # scale 2's concatenated input: the pooled scale-2 features, then scale 1
        q = self.widths["s2c1"]
        cat = np.empty((1, q + self.widths["c6"], (h + ph) // 4, (w + pw) // 4), self.dtype)
        s1_out = block("s1.conv6", [p1, p2, p5] if self.cfg.use_hypercolumn else [p5],
                       drop=rng, out=cat[:, q:])

        # scale 2
        q1 = block("s2.conv1", [x], pool=(2, 2), drop=rng, out=cat[:, :q])
        b = _record(cat, lambda dy: (dy[:, :q], dy[:, q:]), q1, s1_out)
        for name in ("s2.conv2", "s2.conv3", "s2.conv4"):
            b = block(name, [b], drop=rng)

        outs = []
        for head in ("albedo", "shading"):
            if self.cfg.use_deconv_head:
                out = block(f"{head}.deconv", [block(f"{head}.conv", [b], drop=rng)])
            else:
                out = block(f"{head}.conv", [b])
            assert out.value.shape == (1, 3, h + ph, w + pw)
            outs.append(out)

        la, ls = (out.value[:, :, :h, :w] for out in outs)
        if tape is None:
            return la, ls

        def seed(d):  # the last entry: (d_log_albedo, d_log_shading), zero on the pad
            if any(g.shape != (1, 3, h, w) for g in d):
                raise ValueError(f"backward: output gradients {[g.shape for g in d]} "
                                 f"do not match the outputs' {(1, 3, h, w)}")
            return [pad_constant(g.astype(self.dtype, copy=False), pad) if unpad
                    else g.astype(self.dtype, copy=False) for g in d]
        _record(None, seed, *outs)
        return la, ls, tape

    def backward(self, d_log_albedo: np.ndarray, d_log_shading: np.ndarray, tape: list,
                 image_grad: bool = True):
        """Accumulate parameter gradients from output gradients at the
        input's extents through ``tape``, which a training forward returned;
        returns the input-image gradient, or None with ``image_grad=False``,
        which skips computing it.

        Replays the tape in reverse and empties it, freeing each step's
        activations as it goes: a tape is replayed once.  A step's output
        gradient is the sum of what its consumers returned.  Gradients of
        another shape raise before any parameter gradient moves.
        """
        if not tape:
            raise ValueError("backward: the tape is empty (a tape is replayed once, "
                             "and only a training forward, one given an rng, returns one)")
        grads = [None] * (len(tape) - 1) + [(d_log_albedo, d_log_shading)]
        while len(tape) > 1:
            step, inputs = tape[-1]
            dy = grads.pop()
            # the image (slot 0) feeds convs only, which can decline its gradient
            outs = step(dy) if image_grad or inputs != (0,) else step(dy, input_grad=False)
            tape.pop()  # only now: a rejected seed leaves the tape whole
            for slot, g in zip(inputs, outs):
                if g is not None:
                    grads[slot] = g if grads[slot] is None else grads[slot] + g
        unpad, _ = tape.pop()
        return grads[0] if unpad is None or grads[0] is None else unpad(grads[0])


def build_network(cfg: NetworkConfig, rng: Rng, dtype=np.float32) -> Network:
    """Construct a network with freshly initialized parameters.

    Weights are zero-mean normal with std sqrt(2/fan_in), biases zero,
    PReLU slopes 0.25; identical seeds give bit-identical parameters.
    """
    return Network(cfg, rng, dtype=dtype)


def network_from_shapes(shapes) -> Network:
    """A zero-weight network whose widths and variant are read from parameter
    shapes (name -> shape), such as a checkpoint's.

    Each width is the first axis of its layer's weight (``WIDTHS``); the
    head is a deconv head when ``albedo.deconv.weight`` is present, and
    conv6 takes the hypercolumn when its input width is not conv5's.  Only
    the widths are checked here: installing the weights checks every shape.
    """
    widths = {}
    for key, (_, layer) in WIDTHS.items():
        name = f"{layer}.weight"
        if len(shapes.get(name, ())) != 4:
            raise ValueError(f"network: tensor {name!r} is missing or not 4-D")
        widths[key] = shapes[name][0]
    cfg = NetworkConfig(use_hypercolumn=shapes["s1.conv6.weight"][1] != widths["c5"],
                        use_deconv_head="albedo.deconv.weight" in shapes)
    return Network(cfg, None, widths=widths)
