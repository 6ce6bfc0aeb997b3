"""The two-scale convolutional regression network.

Scale 1 is an AlexNet-style stack (conv1-conv5 with 3x3 stride-2 max pools
after conv1, conv2, and conv5) whose output is bilinearly upsampled to one
quarter of the input resolution and passed through a 1x1 conv6, keeping the
model fully convolutional.  Scale 2 extracts fine features with a stride-2
9x9 conv plus a 2x2 pool down to the same quarter resolution, concatenates
the scale-1 output, and runs three 5x5 convs into two prediction heads
(albedo and shading) that regress log-domain maps at full resolution,
either through a learned 8x8 stride-4 deconvolution or a 3-channel conv
followed by fixed bilinear x4 upsampling.

The optional hypercolumn variant concatenates the post-pool conv1/conv2/
conv5 maps, each bilinearly resized to quarter resolution, as conv6's
input; everything downstream of conv6 is identical across variants.

Widths scale with ``channel_scale`` (rounded up) so that shape contracts
and gradient checks can run on tiny instances; channel_scale 1 is the full
topology (96/256/384/384/256 + 64, scale-2 9x9/96).  PReLU follows every
conv except the two 3-channel predictors; dropout follows every conv
except scale-1 conv1-conv5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .layers import (ConvSpec, bilinear_upsample_backward,
                     bilinear_upsample_forward, concat_backward,
                     concat_channels, conv_backward, conv_forward,
                     deconv_backward, deconv_forward, dropout_backward,
                     dropout_forward, max_pool_backward, max_pool_forward,
                     prelu_backward, prelu_forward)
from .rng import Rng

PRELU_INIT = 0.25


@dataclass
class NetworkConfig:
    channel_scale: float = 1.0
    use_hypercolumn: bool = False
    use_deconv_head: bool = True
    dropout_prob: float = 0.5
    input_multiple: int = 32

    def __post_init__(self):
        if self.channel_scale <= 0:
            raise ValueError(f"NetworkConfig: channel_scale must be > 0, "
                             f"got {self.channel_scale}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("NetworkConfig: dropout_prob outside [0, 1)")
        if self.input_multiple < 1:
            raise ValueError("NetworkConfig: input_multiple must be >= 1")

    def width(self, base: int) -> int:
        return max(1, math.ceil(base * self.channel_scale))


class Param:
    """One named parameter tensor with its gradient and momentum buffers."""

    __slots__ = ("name", "value", "grad", "momentum")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)
        self.momentum = np.zeros_like(value)

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

    ``forward`` runs eval- or train-mode inference; with ``keep_cache=True``
    it records a tape: one entry per step, holding what that step's
    backward needs.  ``backward`` replays the tape once, in reverse.
    Parameter gradients accumulate across backward calls until
    ``zero_grads``.  With ``rng`` None the weights are left zero, for a
    caller that installs its own (a checkpoint).
    """

    def __init__(self, cfg: NetworkConfig, rng: Rng | None, dtype=np.float32,
                 widths: dict[str, int] | None = None):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Param] = {}
        self.specs: dict[str, ConvSpec] = {}
        self._tape = None
        w = cfg.width
        self.widths = dict(widths) if widths else {
            "c1": w(96), "c2": w(256), "c3": w(384), "c4": w(384),
            "c5": w(256), "c6": w(64), "s2c1": w(96), "mid": w(64),
            "head": w(64)}
        self._build(rng)

    # -- construction -----------------------------------------------------

    def _add_conv(self, name: str, spec: ConvSpec, rng: Rng | None, prelu: bool = True,
                  deconv: bool = False):
        self.specs[name] = spec
        w_shape = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
        if deconv:
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
        conv6_in = (wd["c1"] + wd["c2"] + wd["c5"] if cfg.use_hypercolumn
                    else wd["c5"])
        self._add_conv("s1.conv6", ConvSpec(conv6_in, wd["c6"], 1, 1), rng)

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
                               rng, prelu=False, deconv=True)
            else:
                self._add_conv(f"{head}.conv", ConvSpec(wd["mid"], 3, 5, 5, 1, 1, 2, 2),
                               rng, prelu=False)

    # -- registry ---------------------------------------------------------

    def named_parameters(self):
        """Parameters as (name, array) in fixed registry order."""
        return [(p.name, p.value) for p in self.params.values()]

    def zero_grads(self):
        for p in self.params.values():
            p.zero_grad()

    # -- steps: each runs one layer and records its backward on the tape ---

    def _conv(self, name, x, deconv=False):
        w, b = self.params[f"{name}.weight"], self.params[f"{name}.bias"]
        spec, xv = self.specs[name], x.value
        y = (deconv_forward if deconv else conv_forward)(xv, w.value, b.value, spec)

        def backward(dy, input_grad=True):
            if deconv:
                dx, dw, db = deconv_backward(dy, xv, w.value, spec)
            else:
                dx, dw, db = conv_backward(dy, xv, w.value, spec, input_grad=input_grad)
            w.grad += dw
            b.grad += db
            return (dx,)
        return _record(y, backward, x)

    def _prelu(self, name, x):
        a, xv = self.params[f"{name}.slope"], x.value

        def backward(dy):
            dx, da = prelu_backward(dy, xv, a.value)
            a.grad += da
            return (dx,)
        return _record(prelu_forward(xv, a.value), backward, x)

    def _dropout(self, x, train_mode, rng):
        p = self.cfg.dropout_prob
        y, keep = dropout_forward(x.value, p, rng, train_mode)
        return _record(y, lambda dy: (dropout_backward(dy, keep, p),), x)

    @staticmethod
    def _pool(x, kernel, stride):
        xv = x.value
        y = max_pool_forward(xv, kernel, stride)
        return _record(y, lambda dy: (max_pool_backward(dy, xv, y, kernel, stride),), x)

    @staticmethod
    def _upsample(x, factor):
        shape = x.value.shape
        return _record(bilinear_upsample_forward(x.value, factor),
                       lambda dy: (bilinear_upsample_backward(dy, factor, shape),), x)

    @staticmethod
    def _concat(a, b):
        channels = a.value.shape[1]
        return _record(concat_channels(a.value, b.value),
                       lambda dy: concat_backward(dy, channels), a, b)

    # -- inference ---------------------------------------------------------

    def forward(self, image: np.ndarray, train_mode: bool = False,
                rng: Rng | None = None, keep_cache: bool = False):
        """Run the network; returns (log_albedo, log_shading) at input resolution."""
        if image.ndim != 4 or image.shape[1] != 3:
            raise ValueError(f"forward: expected (N,3,H,W) input, got {image.shape}")
        m = self.cfg.input_multiple
        h, w = image.shape[2], image.shape[3]
        if h % m or w % m:
            pad_h = (-h) % m
            pad_w = (-w) % m
            raise ValueError(
                f"forward: input {h}x{w} must be a multiple of {m}; "
                f"pad by ({pad_h}, {pad_w}) first (see data.pad_to_multiple)")
        if train_mode and self.cfg.dropout_prob > 0 and rng is None:
            raise ValueError("forward: train_mode with dropout needs an rng")

        self._tape = None
        tape = [(None, ())] if keep_cache else None  # position 0: the image
        x = _Var(np.ascontiguousarray(image, dtype=self.dtype), tape, 0)

        def conv_prelu(name, v):
            return self._prelu(name, self._conv(name, v))

        def drop(v):
            return self._dropout(v, train_mode, rng)

        # scale 1
        p1 = self._pool(conv_prelu("s1.conv1", x), 3, 2)
        p2 = self._pool(conv_prelu("s1.conv2", p1), 3, 2)
        a5 = conv_prelu("s1.conv5", conv_prelu("s1.conv4", conv_prelu("s1.conv3", p2)))
        feat = self._upsample(self._pool(a5, 3, 2), 8)
        if self.cfg.use_hypercolumn:
            taps = self._concat(self._upsample(p1, 2), self._upsample(p2, 4))
            feat = self._concat(taps, feat)
        assert feat.value.shape[2:] == (h // 4, w // 4), "scale-1 path missed quarter resolution"
        s1_out = drop(conv_prelu("s1.conv6", feat))

        # scale 2
        q1 = drop(self._pool(conv_prelu("s2.conv1", x), 2, 2))
        assert q1.value.shape[2:] == (h // 4, w // 4), "scale-2 path missed quarter resolution"
        b = self._concat(q1, s1_out)
        for name in ("s2.conv2", "s2.conv3", "s2.conv4"):
            b = drop(conv_prelu(name, b))

        outs = []
        for head in ("albedo", "shading"):
            if self.cfg.use_deconv_head:
                out = self._conv(f"{head}.deconv", drop(conv_prelu(f"{head}.conv", b)),
                                 deconv=True)
            else:
                out = self._upsample(drop(self._conv(f"{head}.conv", b)), 4)
            assert out.value.shape == (image.shape[0], 3, h, w)
            outs.append(out)

        if tape is not None:
            # last entry: backward seeds it with (d_log_albedo, d_log_shading)
            dtype = self.dtype
            _record(None, lambda d: [g.astype(dtype, copy=False) for g in d], *outs)
            self._tape = tape
        return outs[0].value, outs[1].value

    def backward(self, d_log_albedo: np.ndarray, d_log_shading: np.ndarray,
                 image_grad: bool = True):
        """Accumulate parameter gradients; returns the input-image gradient,
        or None with ``image_grad=False``, which skips computing it.

        Replays the tape of the last ``forward(keep_cache=True)`` in reverse
        and consumes it, freeing each step's activations as it goes.  A
        step's output gradient is the sum of what its consumers returned.
        """
        tape, self._tape = self._tape, None
        if tape is None:
            raise ValueError("backward: no cached forward (run forward with keep_cache)")
        grads = [None] * (len(tape) - 1) + [(d_log_albedo, d_log_shading)]
        while len(tape) > 1:
            step, inputs = tape.pop()
            dy = grads.pop()
            # the image (slot 0) feeds convs only, which can decline its gradient
            outs = step(dy) if image_grad or inputs != (0,) else step(dy, input_grad=False)
            for slot, g in zip(inputs, outs):
                if g is not None:
                    grads[slot] = g if grads[slot] is None else grads[slot] + g
        return grads[0]


def build_network(cfg: NetworkConfig, rng: Rng, dtype=np.float32) -> Network:
    """Construct a network with freshly initialized parameters.

    Weights are zero-mean normal with std sqrt(2/fan_in), biases zero,
    PReLU slopes 0.25; identical seeds give bit-identical parameters.
    """
    return Network(cfg, rng, dtype=dtype)
