"""Forward and backward passes for every layer of the two-scale network.

Convolution is cross-correlation (no kernel flip) over zero-padded input;
deconvolution is its exact transpose, so the pair satisfies the adjoint
identity <conv(x, w), y> = <x, deconv(y, w)> for any weight tensor.
Every (de)convolution runs on one (1, C, H, W) image and rejects any other
batch size; a batch is train_loop's, one image per forward and backward.
conv_forward and _weight_grad build im2col columns in blocks of at most
_BLOCK_BYTES: whole output rows for the forward; for the weight gradient
whole input channels, or kernel rows of one channel where a channel's
columns exceed the budget.  No block cuts a GEMM's reduction axis.  On
OpenBLAS the float32 bytes matched one GEMM per call at the full-topology
shapes, and across budgets at 6-96 output channels, but not at 2-3: a
model at channel_scale <= about 1/48 on large crops can change bytes when
_BLOCK_BYTES changes.  Every other convolution runs through conv_forward,
the transposed ones as one conv over stride phases.
Max pooling uses ceil-mode output extents with windows clipped to the
input, which is what makes a stack of stride-2 pools halve extents exactly
without pool padding.  Its forward keeps a running maximum over strided
views; for training it also keeps which tap of each window won, one uint8
per output cell, and the backward routes dy through those taps alone.  At
one image its C-contiguous dx is the (C, H*W) matrix that the conv weight
gradient behind the pool multiplies, so that reads it without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import Rng


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one (de)convolution: channels, kernel, stride, padding.

    For deconvolution the spec describes the convolution being transposed:
    the deconv maps out_channels -> in_channels and upsamples.
    """

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError(f"ConvSpec: channels must be >= 1, got "
                             f"in={self.in_channels} out={self.out_channels}")
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ValueError("ConvSpec: kernel extents must be >= 1")
        if self.stride_h < 1 or self.stride_w < 1:
            raise ValueError("ConvSpec: strides must be >= 1")
        if not (0 <= self.pad_h < self.kernel_h and 0 <= self.pad_w < self.kernel_w):
            raise ValueError(f"ConvSpec: padding {self.pad_h}x{self.pad_w} outside [0, kernel)")

    def out_extent(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.pad_h - self.kernel_h) // self.stride_h + 1
        ow = (w + 2 * self.pad_w - self.kernel_w) // self.stride_w + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"ConvSpec: input {h}x{w} too small for kernel "
                             f"{self.kernel_h}x{self.kernel_w} pad "
                             f"{self.pad_h}x{self.pad_w}")
        return oh, ow

    def deconv_out_extent(self, h: int, w: int) -> tuple[int, int]:
        oh = (h - 1) * self.stride_h + self.kernel_h - 2 * self.pad_h
        ow = (w - 1) * self.stride_w + self.kernel_w - 2 * self.pad_w
        if oh < 1 or ow < 1:
            raise ValueError("ConvSpec: deconvolution output extent < 1")
        return oh, ow


# Columns are built in blocks of at most this many bytes, in one buffer that
# every block of a call reuses.  Against 16 MB, in 6 alternating benchmark
# pairs on a 2-vCPU VM, 8 MB took train-full's peak RSS from 176.0 to
# 162.1 MB and test-set's op_s (436x1024 decompose) from 1.20 to 1.04 s,
# both lower in 6/6; train-full's op_s had no consistent sign.  A block
# always holds at least one output row, or one kernel row of one channel.
_BLOCK_BYTES = 8 << 20


def _block(unit_bytes: int, units: int, budget: int) -> int:
    """Units (output rows, channels or kernel rows) per block within a byte
    budget."""
    return max(1, min(units, budget // unit_bytes))


def pad_constant(x: np.ndarray, widths, value=0.0) -> np.ndarray:
    """``x`` padded by ``widths``, one (before, after) per axis, with
    ``value``: np.pad's constant mode as one ``np.full`` and one slice
    assignment, without np.pad's per-call cost."""
    shape = tuple(n + a + b for n, (a, b) in zip(x.shape, widths))
    out = np.full(shape, value, dtype=x.dtype)
    out[tuple(slice(a, a + n) for n, (a, _) in zip(x.shape, widths))] = x
    return out


def _windows(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Zero-pad a (1,C,H,W) image per spec and view it as the im2col
    windows (C, kh, kw, Ho, Wo), one read-only strided view; the padded
    copy is the only one, and at zero padding there is none."""
    x = x[0]
    if spec.pad_h or spec.pad_w:
        x = pad_constant(x, ((0, 0), (spec.pad_h, spec.pad_h), (spec.pad_w, spec.pad_w)))
    c, h, w = x.shape
    kh, kw, sh, sw = spec.kernel_h, spec.kernel_w, spec.stride_h, spec.stride_w
    sc, sy, sx = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (c, kh, kw, (h - kh) // sh + 1, (w - kw) // sw + 1),
        (sc, sy, sx, sy * sh, sx * sw), writeable=False)


def _weight_grad(dy: np.ndarray, x: np.ndarray, spec: ConvSpec, w_shape) -> np.ndarray:
    """Conv weight gradient from output gradient dy and input x; with the
    two swapped it is the deconv weight gradient.

    Blocks of whole input channels, or of kernel rows of one channel when a
    channel's columns exceed the budget: each block's columns (rows*kw,
    Ho*Wo) give its rows of dw.T = columns @ dy(O, Ho*Wo).T, so every entry
    is still one dot over Ho*Wo and each block writes contiguous rows."""
    win = _windows(x, spec)
    c, kh, kw, ho, wo = win.shape
    dy_rows = dy.reshape(dy.shape[1], -1)
    taps, p = kh * kw, ho * wo
    dw_t = np.empty((c * taps, dy_rows.shape[0]), dtype=np.result_type(dy, x))
    row_bytes = kw * p * x.itemsize  # one kernel row of one channel
    rows = _block(row_bytes, kh, _BLOCK_BYTES)
    chans = _block(kh * row_bytes, c, _BLOCK_BYTES) if rows == kh else 1
    buf = np.empty(chans * rows * kw * p, dtype=x.dtype)
    for c0 in range(0, c, chans):
        c1 = min(c0 + chans, c)
        for r0 in range(0, kh, rows):
            r1 = min(r0 + rows, kh)
            cols = buf[:(c1 - c0) * (r1 - r0) * kw * p].reshape(c1 - c0, r1 - r0, kw, ho, wo)
            np.copyto(cols, win[c0:c1, r0:r1])
            # a block is whole channels or rows of one: its dw.T rows are contiguous
            np.matmul(cols.reshape(-1, p), dy_rows.T,
                      out=dw_t[c0 * taps + r0 * kw:(c1 - 1) * taps + r1 * kw])
    return np.ascontiguousarray(dw_t.T).reshape(w_shape)


def _transposed_conv(dy: np.ndarray, w: np.ndarray, spec: ConvSpec, out_hw) -> np.ndarray:
    """Conv input gradient of extents out_hw, also the deconv forward, as one
    stride-1 conv_forward over zero-padded dy.  Along an axis (kernel k,
    stride s, padding p), padded output cell q*s + r sums taps r + t*s with
    dy cells q - t, so the s_h*s_w phases r are one conv of ceil(k/s) taps
    and s_h*s_w*C output channels over the cells q that land on the output,
    interleaved back onto the stride grid.  Stride 1 is the one-phase case:
    the kernel flipped and transposed, dy padded by k-1-p."""
    _, o, ho, wo = dy.shape
    c, sh, sw = spec.in_channels, spec.stride_h, spec.stride_w
    th, tw = -(-spec.kernel_h // sh), -(-spec.kernel_w // sw)
    ph, pw = th - 1 - spec.pad_h // sh, tw - 1 - spec.pad_w // sw  # >= 0 as p < k
    # zero cells past dy reach output cells that no window covers
    eh = max(0, (spec.pad_h + out_hw[0] - 1) // sh + 1 - ph - ho)
    ew = max(0, (spec.pad_w + out_hw[1] - 1) // sw + 1 - pw - wo)
    if eh or ew:
        dy = pad_constant(dy, ((0, 0), (0, 0), (0, eh), (0, ew)))
    # phase r takes taps r + t*s, t reversed; taps past the kernel are zero
    g = pad_constant(w, ((0, 0), (0, 0), (0, th * sh - spec.kernel_h),
                         (0, tw * sw - spec.kernel_w)))
    g = g.reshape(o, c, th, sh, tw, sw)[:, :, ::-1, :, ::-1].transpose(3, 5, 1, 0, 2, 4)
    y = conv_forward(dy, g.reshape(sh * sw * c, o, th, tw), None,
                     ConvSpec(o, sh * sw * c, th, tw, pad_h=ph, pad_w=pw))
    qh, qw = y.shape[2:]
    y = y.reshape(sh, sw, c, qh, qw).transpose(2, 3, 0, 4, 1).reshape(1, c, qh * sh, qw * sw)
    off_h, off_w = spec.pad_h % sh, spec.pad_w % sw
    return np.ascontiguousarray(y[:, :, off_h:off_h + out_hw[0], off_w:off_w + out_hw[1]])


def _check_conv_input(x: np.ndarray, w: np.ndarray, spec: ConvSpec, channels: int):
    if x.ndim != 4 or x.shape[0] != 1:
        raise ValueError(f"conv: runs on one image (1,C,H,W), got {x.shape}")
    if x.shape[1] != channels:
        raise ValueError(f"conv: input has {x.shape[1]} channels, spec expects {channels}")
    expect_w = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
    if w.shape != expect_w:
        raise ValueError(f"conv: weight shape {w.shape} != expected {expect_w}")


def conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                 spec: ConvSpec) -> np.ndarray:
    """Cross-correlation with zero padding of one (1,C,H,W) image; output
    extents per ConvSpec.

    Blocks of whole output rows: each block's columns (C*kh*kw, rows*Wo)
    go through one GEMM straight into the output, so every output element
    is one dot over C*kh*kw."""
    _check_conv_input(x, w, spec, spec.in_channels)
    c = x.shape[1]
    oh, ow = spec.out_extent(x.shape[2], x.shape[3])
    kh, kw = spec.kernel_h, spec.kernel_w
    win = _windows(x, spec)
    k = c * kh * kw
    w2 = w.reshape(spec.out_channels, k)
    y = np.empty((1, spec.out_channels, oh, ow), dtype=np.result_type(x, w))
    y_rows = y.reshape(spec.out_channels, oh * ow)
    rows = _block(k * ow * x.itemsize, oh, _BLOCK_BYTES)
    buf = np.empty(k * rows * ow, dtype=x.dtype)
    for r0 in range(0, oh, rows):
        r1 = min(r0 + rows, oh)
        cols = buf[:k * (r1 - r0) * ow].reshape(c, kh, kw, r1 - r0, ow)
        np.copyto(cols, win[:, :, :, r0:r1])
        np.matmul(w2, cols.reshape(k, -1), out=y_rows[:, r0 * ow:r1 * ow])
    if b is not None:
        y += b.reshape(1, -1, 1, 1)
    return y


def conv_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray, spec: ConvSpec,
                  input_grad: bool = True):
    """Gradients of conv_forward w.r.t. input, weights, and bias; the input
    gradient is None with ``input_grad=False``, which skips its conv."""
    _check_conv_input(x, w, spec, spec.in_channels)
    db = dy.reshape(spec.out_channels, -1).sum(axis=1)
    dx = _transposed_conv(dy, w, spec, x.shape[2:]) if input_grad else None
    return dx, _weight_grad(dy, x, spec, w.shape), db


def deconv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                   spec: ConvSpec) -> np.ndarray:
    """Transposed convolution: the adjoint of conv_forward for the same spec.

    Input carries spec.out_channels, output carries spec.in_channels at
    (in-1)*stride + kernel - 2*pad extents.
    """
    _check_conv_input(x, w, spec, spec.out_channels)
    y = _transposed_conv(x, w, spec, spec.deconv_out_extent(*x.shape[2:]))
    if b is not None:
        y = y + b.reshape(1, -1, 1, 1)
    return y


def deconv_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray, spec: ConvSpec):
    """Gradients of deconv_forward; dx reuses conv_forward (mutual adjoints)."""
    _check_conv_input(x, w, spec, spec.out_channels)
    dx = conv_forward(dy, w, None, spec)
    return dx, _weight_grad(x, dy, spec, w.shape), dy.sum(axis=(0, 2, 3))


# The max-pool passes work through blocks of whole channels of about this
# many input bytes, so that their taps, masks and padded copies stay in
# cache; a block always holds at least one channel.
_POOL_BLOCK_BYTES = 512 << 10


def _pool_taps(xp: np.ndarray, kernel: int, stride: int, oh: int, ow: int):
    """Strided views of the padded input, one per window tap in row-major
    order: view (i, j) holds tap (i, j) of every window."""
    return [xp[:, :, i:i + stride * (oh - 1) + 1:stride, j:j + stride * (ow - 1) + 1:stride]
            for i in range(kernel) for j in range(kernel)]


def _pool_extents(x_shape, kernel: int, stride: int):
    """(oh, ow, hp, wp): output extents and the input padded right/bottom
    to whole windows."""
    if kernel < 1 or stride < 1:
        raise ValueError("max_pool: kernel and stride must be >= 1")
    h, w = x_shape[2:]
    oh = -(-(h - kernel) // stride) + 1
    ow = -(-(w - kernel) // stride) + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"max_pool: window {kernel} does not overlap input {h}x{w}")
    return oh, ow, (oh - 1) * stride + kernel, (ow - 1) * stride + kernel


def _channel_blocks(shape, itemsize: int):
    """Channel slices of about _POOL_BLOCK_BYTES of an (N, C, H, W) input."""
    n, c, h, w = shape
    chans = _block(n * h * w * itemsize, c, _POOL_BLOCK_BYTES)
    return [slice(c0, c0 + chans) for c0 in range(0, c, chans)]


def max_pool_forward(x: np.ndarray, kernel: int, stride: int, winners: bool = False):
    """Ceil-mode max pooling; returns the output, or with ``winners=True``
    (output, winning taps) for max_pool_backward.

    Output extent is ceil((in - kernel)/stride) + 1; trailing windows are
    clipped to the input.  The output is a running maximum over the window
    taps.  A window's winning tap is its row-major index in the window, one
    uint8 per output cell: the first tap equal to the maximum, or the first
    NaN of a window that holds one.
    """
    if winners and kernel * kernel > 256:
        raise ValueError(f"max_pool: {kernel}x{kernel} taps do not fit a uint8")
    n, c, h, w = x.shape
    oh, ow, hp, wp = _pool_extents(x.shape, kernel, stride)
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    arg = np.zeros(out.shape, dtype=np.uint8) if winners else None
    for block in _channel_blocks(x.shape, x.itemsize):
        # -inf padding: a clipped window never selects a pad cell
        xp = x[:, block]
        if (hp, wp) != (h, w):
            xp = pad_constant(xp, ((0, 0), (0, 0), (0, hp - h), (0, wp - w)), -np.inf)
        taps = _pool_taps(xp, kernel, stride, oh, ow)
        ob = out[:, block]
        np.copyto(ob, taps[0])
        for view in taps[1:]:
            # numpy's maximum returns its second operand on a tie, so the
            # earlier tap keeps its value (and the sign of a zero)
            np.maximum(view, ob, out=ob)
        if winners:
            # the first tap equal to the maximum, or the first NaN where it is
            # NaN: taps go last to first, each hit overwriting its cell by
            # arg += hit * (t - arg), mod 256, with no masked writes
            ab = arg[:, block]
            nan = np.isnan(ob)
            nan = nan if nan.any() else None
            for t in reversed(range(len(taps))):
                hit = taps[t] == ob
                if nan is not None:
                    hit |= np.isnan(taps[t]) & nan
                step = np.subtract(np.uint8(t), ab)
                step *= hit
                ab += step
    return out if arg is None else (out, arg)


def max_pool_backward(dy: np.ndarray, arg: np.ndarray, in_shape, kernel: int,
                      stride: int) -> np.ndarray:
    """Route each window's dy to its winning tap ``arg`` from
    max_pool_forward(x, kernel, stride, winners=True); ``in_shape`` is
    x.shape.  Taps are added last to first, so that a cell that won
    several windows sums their dy in row-major output order."""
    n, _, h, w = in_shape
    oh, ow, hp, wp = _pool_extents(in_shape, kernel, stride)
    # dy * 0 is NaN where dy is not finite, so such a dy is masked instead
    finite = np.isfinite(dy).all()
    dx = np.empty(in_shape, dtype=dy.dtype)
    for block in _channel_blocks(in_shape, dy.itemsize):
        dyb, ab = dy[:, block], arg[:, block]
        dxp = np.zeros((n, ab.shape[1], hp, wp), dtype=dy.dtype)
        views = _pool_taps(dxp, kernel, stride, oh, ow)
        for t in reversed(range(len(views))):
            hit = ab == t
            views[t] += dyb * hit if finite else np.where(hit, dyb, 0)
        dx[:, block] = dxp[:, :, :h, :w]
    return dx


@lru_cache(maxsize=256)
def _bilinear_matrix(factor: int, n_in: int) -> np.ndarray:
    """Sampling matrix (n_in*factor, n_in) for align-corners-false upsampling."""
    n_out = n_in * factor
    m = np.zeros((n_out, n_in), dtype=np.float64)
    for o in range(n_out):
        s = (o + 0.5) / factor - 0.5
        s = min(max(s, 0.0), n_in - 1.0)
        i0 = int(np.floor(s))
        t = s - i0
        i1 = min(i0 + 1, n_in - 1)
        m[o, i0] += 1.0 - t
        m[o, i1] += t
    return m


@lru_cache(maxsize=64)
def _einsum_path(equation: str, *shapes) -> list:
    """``np.einsum``'s ``optimize=True`` contraction path for operands of
    these shapes; it depends on the shapes alone, so each is searched once."""
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(equation, *operands, optimize=True)[0]


def _einsum(equation: str, *operands) -> np.ndarray:
    """``np.einsum(..., optimize=True)`` with its path from ``_einsum_path``."""
    path = _einsum_path(equation, *(t.shape for t in operands))
    return np.einsum(equation, *operands, optimize=path)


def bilinear_upsample_forward(x: np.ndarray, factor: int) -> np.ndarray:
    """Fixed bilinear upsampling by an integer factor (align-corners-false)."""
    if factor < 1:
        raise ValueError("bilinear_upsample: factor must be a positive integer")
    if factor == 1:
        return x
    uh = _bilinear_matrix(factor, x.shape[2])
    uw = _bilinear_matrix(factor, x.shape[3])
    y = _einsum("hp,ncpq,wq->nchw", uh, x, uw)
    return y.astype(x.dtype, copy=False)


def bilinear_upsample_backward(dy: np.ndarray, factor: int, in_shape) -> np.ndarray:
    """Exact adjoint of bilinear_upsample_forward."""
    if factor == 1:
        return dy
    uh = _bilinear_matrix(factor, in_shape[2])
    uw = _bilinear_matrix(factor, in_shape[3])
    dx = _einsum("hp,nchw,wq->ncpq", uh, dy, uw)
    return dx.astype(dy.dtype, copy=False)


def prelu_forward(x: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Per-channel parametric ReLU: x where x >= 0, slope*x where x < 0."""
    if slopes.shape != (x.shape[1],):
        raise ValueError(f"prelu: {slopes.shape[0] if slopes.ndim else 0} slopes "
                         f"for {x.shape[1]} channels")
    # x * (1 where x >= 0, else a), in one full-size array: x * 1 and x * a
    # are the bytes of x and a * x
    y = np.where(x >= 0, 1, slopes.reshape(1, -1, 1, 1)).astype(np.result_type(x, slopes),
                                                                copy=False)
    y *= x
    return y


def prelu_backward(dy: np.ndarray, x: np.ndarray, slopes: np.ndarray,
                   out_scale=None):
    """Gradients of prelu_forward w.r.t. x and the slopes.

    ``x`` is the forward's input, or with ``out_scale`` c its output times
    c > 0, which needs every slope positive.  Then the output is negative
    exactly where the input is, so dx is the same bytes, except at a
    negative subnormal input whose product with its slope rounds to -0;
    the slope gradient divides by a * c once per channel, so it moves at
    float rounding level.  That output may also be max-pooled (and
    dropped out after the pool), with dy on the pooled grid: each window's
    value is its winner's output, so dx is the winner's gradient per
    window, for max_pool_backward to route.

    The slope gradient sums min(x, 0) * dy per channel, formed in one
    temporary.  Cells with x >= 0 add a zero product, so for finite x and
    dy the sums equal those of x * dy over the cells with x < 0, in the
    same order; a NaN x or a non-finite dy makes its channel's sum NaN."""
    if out_scale is not None and not (slopes > 0).all():
        raise ValueError("prelu_backward: the output gives x only for positive slopes")
    neg = x < 0
    prod = np.minimum(x, 0, dtype=np.result_type(x, dy))
    prod *= dy
    da = prod.sum(axis=(0, 2, 3))
    # a caller that passes x as a temporary lets it go before dx is made
    del prod, x
    if out_scale is not None:
        da /= slopes * out_scale
    # dx = dy * (a where x < 0, else 1): a * dy and dy * 1 are exact swaps
    dx = np.where(neg, slopes.reshape(1, -1, 1, 1), 1).astype(np.result_type(slopes, dy),
                                                              copy=False)
    dx *= dy
    return dx, da


def dropout_scale(dtype, p: float) -> np.ndarray:
    """1 / (1 - p) as a 0-d array of dtype, rounded as that dtype divides."""
    return np.asarray(1.0, dtype=dtype) / np.asarray(1.0 - p, dtype=dtype)


def dropout_forward(x: np.ndarray, p: float, rng: Rng | None):
    """Inverted dropout; returns (output, bool keep mask).  Without an rng
    (eval) or at p = 0 it is the identity and returns the mask None.

    Cell i is kept where rng.uniform(x.shape)[i] >= p.  That uniform is
    (raw >> 11) * 2**-53 of the raw uint64 draw, so the mask compares the
    raw draws with ceil(p * 2**53) << 11 instead and is bit-identical.
    The output is x * keep * (1/(1-p)): a dropped cell is x * 0, so its
    zero keeps x's sign and a non-finite x stays NaN."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: probability {p} outside [0, 1)")
    if rng is None or p == 0.0:
        return x, None
    threshold = np.uint64(math.ceil(p * 2.0 ** 53) << 11)
    keep = (rng._raw(x.size) >= threshold).reshape(x.shape)
    y = np.multiply(x, keep)
    y *= dropout_scale(x.dtype, p)
    return y, keep


def dropout_backward(dy: np.ndarray, keep: np.ndarray | None, p: float) -> np.ndarray:
    """dy * keep * (1/(1-p)), by the same arithmetic as dropout_forward."""
    if keep is None:
        return dy
    dx = np.multiply(dy, keep)
    dx *= dropout_scale(dy.dtype, p)
    return dx

