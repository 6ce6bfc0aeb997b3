"""Release-gate verification: every module's invariants at desk scale.

This module is the one home of the package's oracles, invariant suites and
finite-difference gradient checker; the acceptance gate and the CLI both
run them from here.  ``run_suite`` runs one suite of ``SUITES`` and returns
a (name, passed, detail) row; the CLI turns those into a pass/fail listing
and exit status.  Each suite re-derives its expected values from an
independent oracle (nested-loop convolution and its direct-sum gradients,
per-window max pooling, grid-search alpha, window enumeration, direct-sum
SSIM) rather than trusting the implementation under test.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import layers
from .data import (AugmentConfig, _bilinear_gather, augment,
                   generate_mit_shading, make_synthetic_sample, resynthesize)
from .layers import ConvSpec
from .losses import LossConfig, gradient_loss, log_guarded, sil2_loss, total_loss
from .metrics import (SSIM_K1, SSIM_K2, SSIM_SIGMA, SSIM_WINDOW, dssim,
                      fit_alpha, lmse, si_mse, ssim_map)
from .network import NetworkConfig, Param, build_network
from .png_io import read_png, write_png
from .rng import Rng, derive_seed
from .trainer import (Checkpoint, TrainConfig, _batch_samples, load_checkpoint,
                      save_checkpoint, sgd_momentum_step, train_loop)

GRAD_TOL = 1e-4
LAYER_H = 1e-3
# a whole-net perturbation shifts every downstream activation, so a large
# step walks across pool-argmax and PReLU kinks that per-layer checks dodge
# by construction
NETWORK_H = 1e-5


# -- independent oracles -------------------------------------------------------

def conv_oracle(x, w, b, spec):
    """Direct nested-loop cross-correlation; the independent reference."""
    n, c, h, wd = x.shape
    oh, ow = spec.out_extent(h, wd)
    out = np.zeros((n, spec.out_channels, oh, ow))
    for ni in range(n):
        for o in range(spec.out_channels):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0 if b is None else float(b[o])
                    for ci in range(c):
                        for ky in range(spec.kernel_h):
                            for kx in range(spec.kernel_w):
                                iy = oy * spec.stride_h + ky - spec.pad_h
                                ix = ox * spec.stride_w + kx - spec.pad_w
                                if 0 <= iy < h and 0 <= ix < wd:
                                    acc += w[o, ci, ky, kx] * x[ni, ci, iy, ix]
                    out[ni, o, oy, ox] = acc
    return out


def conv_backward_oracle(dy, x, w, spec):
    """Direct-sum gradients of the nested-loop cross-correlation: every
    (output pixel, weight tap) product pushed back onto dx, dw and db."""
    n, c, h, wd = x.shape
    oh, ow = dy.shape[2:]
    dx, dw, db = np.zeros(x.shape), np.zeros(w.shape), np.zeros(spec.out_channels)
    for ni in range(n):
        for o in range(spec.out_channels):
            for oy in range(oh):
                for ox in range(ow):
                    g = dy[ni, o, oy, ox]
                    db[o] += g
                    for ci in range(c):
                        for ky in range(spec.kernel_h):
                            for kx in range(spec.kernel_w):
                                iy = oy * spec.stride_h + ky - spec.pad_h
                                ix = ox * spec.stride_w + kx - spec.pad_w
                                if 0 <= iy < h and 0 <= ix < wd:
                                    dx[ni, ci, iy, ix] += w[o, ci, ky, kx] * g
                                    dw[o, ci, ky, kx] += x[ni, ci, iy, ix] * g
    return dx, dw, db


def max_pool_oracle(x, dy, kernel, stride):
    """Window by window: each clipped window's maximum, and dy scattered
    with np.add.at onto the flat index of the window's first maximum (its
    first NaN, if it holds one), in row-major output order."""
    n, c, h, w = x.shape
    oh = -(-(h - kernel) // stride) + 1
    ow = -(-(w - kernel) // stride) + 1
    y = np.empty((n, c, oh, ow), dtype=x.dtype)
    flat = np.empty((n, c, oh, ow), dtype=np.intp)
    for i in range(oh):
        for j in range(ow):
            win = x[:, :, i * stride:i * stride + kernel, j * stride:j * stride + kernel]
            kw = win.shape[3]
            arg = win.reshape(n, c, -1).argmax(axis=2)
            y[:, :, i, j] = np.take_along_axis(win.reshape(n, c, -1), arg[..., None], 2)[..., 0]
            flat[:, :, i, j] = (i * stride + arg // kw) * w + j * stride + arg % kw
    dx = np.zeros((n, c, h * w), dtype=dy.dtype)
    np.add.at(dx, (np.arange(n)[:, None, None], np.arange(c)[None, :, None],
                   flat.reshape(n, c, -1)), dy.reshape(n, c, -1))
    return y, dx.reshape(x.shape)


def alpha_grid_oracle(target, pred, mask):
    """Dense scan of the brightness scale over [0, 10] in steps of 1e-4:
    returns the best alpha on the grid and its masked sum of squared errors."""
    grid = np.arange(0.0, 10.0 + 1e-4, 1e-4)
    t2 = float((target * target * mask).sum())
    tp = float((target * pred * mask).sum())
    p2 = float((pred * pred * mask).sum())
    losses = t2 - 2.0 * grid * tp + grid * grid * p2
    best = int(np.argmin(losses))
    return float(grid[best]), float(losses[best])


def lmse_oracle(target, pred, mask):
    """Window enumeration from scratch: windows a tenth of the larger side,
    half a window apart, flush-fit placement, per-window least-squares
    alpha, mean over windows holding a valid pixel."""
    h, w = target.shape[2:]
    k = max(1, int(0.1 * max(h, w) + 0.5))
    stride = max(1, k // 2)

    def starts(extent):
        out = list(range(0, extent - k + 1, stride))
        if out[-1] != extent - k:
            out.append(extent - k)
        return out

    vals = []
    for i in starts(h):
        for j in starts(w):
            t = target[:, :, i:i + k, j:j + k]
            p = pred[:, :, i:i + k, j:j + k]
            m = mask[:, :, i:i + k, j:j + k]
            nvalid = m.sum() * target.shape[1]
            if nvalid == 0:
                continue
            denom = float((p * p * m).sum())
            a = float((t * p * m).sum()) / denom if denom > 0 else 0.0
            vals.append(float((((t - a * p) * m) ** 2).sum()) / nvalid)
    return float(np.mean(vals))


def ssim_oracle(target, pred, mask):
    """Direct per-pixel 2-D Gaussian sums, no separability tricks: the SSIM
    of each window whose centre pixel is valid, with masked pixels entering
    both windows as 0, and NaN where the centre is masked."""
    size, sigma = SSIM_WINDOW, SSIM_SIGMA
    ax = np.arange(size) - (size - 1) / 2.0
    g1 = np.exp(-(ax ** 2) / (2 * sigma ** 2))
    g1 /= g1.sum()
    g2d = np.outer(g1, g1)
    c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
    n, c, h, w = target.shape
    oh, ow = h - size + 1, w - size + 1
    out = np.full((n, c, oh, ow), np.nan)
    for ni in range(n):
        valid = mask[ni, 0]
        for ci in range(c):
            x = target[ni, ci] * valid
            y = pred[ni, ci] * valid
            for i in range(oh):
                for j in range(ow):
                    if valid[i + size // 2, j + size // 2] == 0:
                        continue
                    wx = x[i:i + size, j:j + size]
                    wy = y[i:i + size, j:j + size]
                    mx = float((g2d * wx).sum())
                    my = float((g2d * wy).sum())
                    vx = float((g2d * wx * wx).sum()) - mx * mx
                    vy = float((g2d * wy * wy).sum()) - my * my
                    cov = float((g2d * wx * wy).sum()) - mx * my
                    out[ni, ci, i, j] = (((2 * mx * my + c1) * (2 * cov + c2))
                                         / ((mx * mx + my * my + c1)
                                            * (vx + vy + c2)))
    return out


def dssim_oracle(target, pred, mask):
    """(1 - mean SSIM)/2 over the valid window centres, after the
    prediction's least-squares scale on valid pixels and a clip to [0, 1]."""
    m = np.broadcast_to(mask, target.shape)
    a = float((target * pred)[m > 0].sum()) / float((pred * pred)[m > 0].sum())
    return (1 - np.nanmean(ssim_oracle(target, np.clip(a * pred, 0.0, 1.0), mask))) / 2


def _full_mask(shape):
    return np.ones((shape[0], 1, shape[2], shape[3]))


def check_gradient(f, x: np.ndarray, h: float = 1e-3,
                   max_coords: int | None = None) -> float:
    """Compare an analytic gradient against central finite differences.

    ``f(x)`` must return ``(value, grad)`` where ``grad`` has x's shape.
    Returns the max over checked coordinates of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.

    ``max_coords`` limits the check to a deterministic random subset of
    coordinates (needed for whole-network checks, where x is large).
    """
    x = np.asarray(x, dtype=np.float64)
    _, grad = f(x)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != x.shape:
        raise ValueError(f"analytic gradient shape {grad.shape} != input shape {x.shape}")

    n = x.size
    if max_coords is not None and max_coords < n:
        coords = Rng(0).permutation(n)[:max_coords]
    else:
        coords = np.arange(n)

    flat = x.reshape(-1)
    worst = 0.0
    for k in coords:
        k = int(k)
        orig = flat[k]
        flat[k] = orig + h
        fp, _ = f(x)
        flat[k] = orig - h
        fm, _ = f(x)
        flat[k] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(
                f"check_gradient: non-finite value at coordinate {k} "
                f"(f(x+h)={fp}, f(x-h)={fm})")
        numeric = (fp - fm) / (2.0 * h)
        analytic = grad.reshape(-1)[k]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def check_all(checks, h) -> list[str]:
    """Run (label, f, x, coords) gradient checks at step ``h``, each on at
    most ``coords`` coordinates (None: all); returns one line per label
    whose error reaches GRAD_TOL."""
    failures = []
    for label, f, x, coords in checks:
        err = check_gradient(f, x, h=h, max_coords=coords)
        if err >= GRAD_TOL:
            failures.append(f"{label}: rel error {err:.2e} >= {GRAD_TOL}")
    return failures


# -- layer gradients -----------------------------------------------------------
# Each probe is (label, f, x, None) for check_all: f(v) returns the linear
# probe <forward(v), dy> and the layer's backward applied to dy at x.
# check_gradient reads the analytic gradient only from its first call, at x,
# so the finite differences run forward passes alone.  Layers are looked up
# on the module when the suite runs, so that a patched layer is the one checked.

def _probe(label, x, dy, forward, grad):
    return label, lambda v: (float((forward(v) * dy).sum()), grad), x, None


def conv_probes(rng, kind, spec, hw):
    """x, w and b probes of conv or of deconv (which maps out -> in channels)
    on one image."""
    def fwd(x, w, b):
        return getattr(layers, f"{kind}_forward")(x, w, b, spec)

    cin, cout = spec.in_channels, spec.out_channels
    if kind == "deconv":
        cin, cout = cout, cin
    x = rng.normal((1, cin, *hw))
    w = rng.normal((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
    b = rng.normal((cout,))
    dy = rng.normal(fwd(x, w, b).shape)
    dx, dw, db = getattr(layers, f"{kind}_backward")(dy, x, w, spec)
    tag = f"{hw[0]}x{hw[1]} stride {spec.stride_h} pad ({spec.pad_h}, {spec.pad_w})"
    return [_probe(f"{kind} backward (x, {tag})", x, dy, lambda v: fwd(v, w, b), dx),
            _probe(f"{kind} backward (w, {tag})", w, dy, lambda v: fwd(x, v, b), dw),
            _probe(f"{kind} backward (b, {tag})", b, dy, lambda v: fwd(x, w, v), db)]


def pool_probe(rng, hw):
    # distinct values 10h apart: no finite-difference step moves an argmax
    x = (rng.permutation(2 * hw[0] * hw[1]) * 10 * LAYER_H).reshape(1, 2, *hw)
    y, arg = layers.max_pool_forward(x, 3, 2, winners=True)
    dy = rng.normal(y.shape)
    return _probe(f"max_pool backward (3x3 stride 2, {hw[0]}x{hw[1]})", x, dy,
                  lambda v: layers.max_pool_forward(v, 3, 2),
                  layers.max_pool_backward(dy, arg, x.shape, 3, 2))


def bilinear_probe(rng, factor, hw):
    x = rng.normal((1, 2, *hw))
    dy = rng.normal((1, 2, hw[0] * factor, hw[1] * factor))
    return _probe(f"bilinear backward (factor {factor}, {hw[0]}x{hw[1]})", x, dy,
                  lambda v: layers.bilinear_upsample_forward(v, factor),
                  layers.bilinear_upsample_backward(dy, factor, x.shape))


def prelu_probes(rng, n):
    x = rng.normal((n, 3, 4, 4))
    x[np.abs(x) < 1e-2] = 0.5  # keep clear of the kink
    slopes = rng.uniform((3,)) * 0.5 + 0.1
    dy = rng.normal(x.shape)
    dx, da = layers.prelu_backward(dy, x, slopes)
    return [_probe(f"prelu backward (x, N={n})", x, dy,
                   lambda v: layers.prelu_forward(v, slopes), dx),
            _probe(f"prelu backward (slopes, N={n})", slopes, dy,
                   lambda v: layers.prelu_forward(x, v), da)]


def dropout_probe(rng, shape):
    x = rng.normal(shape)
    _, keep = layers.dropout_forward(x, 0.5, Rng(9))
    dy = rng.normal(shape)
    return _probe(f"dropout backward (frozen mask, {shape})", x, dy,
                  lambda v: v * keep / 0.5, layers.dropout_backward(dy, keep, 0.5))


def _layer_probes():
    rng = Rng(1)
    probes = []
    for stride, pad_h in ((1, 0), (2, 1)):
        probes += conv_probes(rng, "conv", ConvSpec(2, 3, 3, 3, stride, stride, pad_h, 1),
                              (6, 6))
    for h in (4, 5, 6):
        probes += conv_probes(rng, "deconv", ConvSpec(2, 3, 4, 4, 2, 2, 1, 1), (h, 5))
    probes += [pool_probe(rng, hw) for hw in ((6, 6), (7, 6), (8, 6), (7, 7))]
    probes += [bilinear_probe(rng, factor, hw) for factor, hw in
               ((2, (3, 4)), (3, (4, 4)), (4, (3, 4)), (2, (4, 4)), (3, (3, 4)))]
    probes += prelu_probes(rng, 1) + prelu_probes(rng, 2)
    probes += [dropout_probe(rng, shape) for shape in ((1, 2, 5, 5), (1, 1, 8, 8))]
    return probes


def _suite_layer_gradients():
    failures = check_all(_layer_probes(), LAYER_H)
    assert not failures, "; ".join(failures)


# -- oracles and invariants ------------------------------------------------------

@contextmanager
def _block_budget(nbytes):
    """Run with the conv column blocks and the max-pool channel blocks
    capped at nbytes.  The oracle cases fit in one block at the default
    budgets, so each runs again at 1 byte, which forces one output row, one
    kernel row or one pool channel per block; the conv oracle also runs at
    two kernel rows and at two channels of its weight gradient's columns."""
    saved = layers._BLOCK_BYTES, layers._POOL_BLOCK_BYTES
    layers._BLOCK_BYTES = layers._POOL_BLOCK_BYTES = nbytes
    try:
        yield
    finally:
        layers._BLOCK_BYTES, layers._POOL_BLOCK_BYTES = saved


def _suite_conv_oracle():
    rng = Rng(2)
    for hw, spec in (
            ((6, 6), ConvSpec(2, 3, 3, 3, 2, 2)),
            ((8, 7), ConvSpec(3, 2, 3, 3, 1, 1, 1, 1)),
            ((5, 9), ConvSpec(1, 4, 1, 3, 1, 2, 0, 1)),
            ((12, 12), ConvSpec(4, 2, 5, 5, 2, 2, 2, 2)),
            ((11, 12), ConvSpec(2, 2, 4, 2, 3, 1, 1, 0)),
            ((8, 8), ConvSpec(2, 2, 3, 3, 1, 1, 1, 1)),
            ((9, 8), ConvSpec(3, 2, 3, 3, 2, 2, 1, 1)),
            # phase padding: stride 1 at pad 0 and k-1, uneven strides, ends no window covers
            ((7, 8), ConvSpec(3, 2, 3, 3)),
            ((6, 7), ConvSpec(2, 3, 4, 3, 1, 1, 3, 2)),
            ((12, 14), ConvSpec(2, 3, 5, 7, 3, 2, 2, 3)),
            ((7, 5), ConvSpec(2, 2, 2, 2, 2, 2))):
        x = rng.normal((1, spec.in_channels, *hw))
        w = rng.normal((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
        b = rng.normal((spec.out_channels,))
        want = conv_oracle(x, w, b, spec)
        dy = rng.normal(want.shape)
        want_grads = conv_backward_oracle(dy, x, w, spec)
        # one kernel row of one channel's weight-gradient columns
        row = spec.kernel_w * want[0, 0].size * x.itemsize
        for budget in (layers._BLOCK_BYTES, 1, 2 * row, 2 * spec.kernel_h * row):
            with _block_budget(budget):
                got = layers.conv_forward(x, w, b, spec)
                grads = layers.conv_backward(dy, x, w, spec)
            tag = f"{spec}, {budget}-byte blocks"
            assert got.shape == want.shape, f"conv extents {got.shape} != {want.shape}"
            gap = np.max(np.abs(got - want))
            assert gap < 1e-10, f"conv vs nested loop oracle ({tag}): {gap:.2e}"
            for label, g, o in zip(("dx", "dw", "db"), grads, want_grads):
                gap = np.max(np.abs(g - o))
                assert gap < 1e-10, \
                    f"conv backward {label} vs direct-sum oracle ({tag}): {gap:.2e}"


def _suite_max_pool_oracle():
    rng = Rng(18)
    # 3x3/2 windows overlap, 2x2/2 tile; odd extents clip the last window
    for kernel, stride, hw in ((3, 2, (8, 8)), (3, 2, (7, 9)), (3, 2, (13, 6)),
                               (2, 2, (6, 8)), (2, 2, (7, 5)), (3, 2, (2, 2))):
        for dtype in (np.float32, np.float64):
            shape = (2, 3, *hw)
            # real values, then small integers: most windows hold ties
            for x in (rng.normal(shape), np.floor(rng.uniform(shape) * 3)):
                x = x.astype(dtype)
                dy = rng.normal(layers.max_pool_forward(x, kernel, stride).shape).astype(dtype)
                want_y, want_dx = max_pool_oracle(x, dy, kernel, stride)
                for budget in (layers._POOL_BLOCK_BYTES, 1):
                    tag = (f"{kernel}x{kernel}/{stride} {hw[0]}x{hw[1]} "
                           f"{np.dtype(dtype).name}, {budget}-byte blocks")
                    with _block_budget(budget):
                        y, arg = layers.max_pool_forward(x, kernel, stride, winners=True)
                        for got in (y, layers.max_pool_forward(x, kernel, stride)):
                            assert got.dtype == dtype and np.array_equal(got, want_y), \
                                f"max_pool forward vs window oracle ({tag})"
                        dx = layers.max_pool_backward(dy, arg, x.shape, kernel, stride)
                    assert dx.dtype == dtype and np.array_equal(dx, want_dx), \
                        f"max_pool backward vs first-max add.at oracle ({tag})"


def _suite_deconv_adjoint():
    rng = Rng(3)
    for hw, spec in (
            ((7, 7), ConvSpec(2, 3, 3, 3, 2, 2)),
            ((8, 6), ConvSpec(1, 2, 4, 4, 2, 2, 1, 1)),
            ((5, 5), ConvSpec(3, 2, 2, 2)),
            ((16, 16), ConvSpec(3, 4, 8, 8, 4, 4, 2, 2)),
            ((9, 7), ConvSpec(2, 2, 5, 3, 1, 1, 2, 1)),
            ((16, 16), ConvSpec(2, 4, 8, 8, 4, 4, 2, 2)),
            ((13, 11), ConvSpec(2, 3, 5, 7, 3, 2, 2, 3))):
        x = rng.normal((1, spec.in_channels, *hw))
        w = rng.normal((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
        y = rng.normal(layers.conv_forward(x, w, None, spec).shape)
        for budget in (layers._BLOCK_BYTES, 1):
            with _block_budget(budget):
                lhs = float((layers.conv_forward(x, w, None, spec) * y).sum())
                rhs = float((x * layers.deconv_forward(y, w, None, spec)).sum())
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), \
                f"deconv adjoint identity ({spec}, {budget}-byte blocks): " \
                f"{abs(lhs - rhs):.2e}"


def _suite_bilinear_adjoint():
    rng = Rng(19)
    for factor, hw in ((2, (3, 4)), (4, (4, 4)), (8, (2, 3)), (3, (5, 2)), (2, (7, 7))):
        x = rng.normal((2, 3, *hw))
        y = rng.normal((2, 3, hw[0] * factor, hw[1] * factor))
        lhs = float((layers.bilinear_upsample_forward(x, factor) * y).sum())
        rhs = float((x * layers.bilinear_upsample_backward(y, factor, x.shape)).sum())
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), \
            f"bilinear adjoint identity (factor {factor}, {hw[0]}x{hw[1]}): " \
            f"{abs(lhs - rhs):.2e}"


def _suite_loss_algebra():
    rng = Rng(4)
    for shape in ((1, 3, 5, 5), (1, 3, 4, 6)):
        t, p = rng.normal(shape), rng.normal(shape)
        mask = _full_mask(shape)
        base, _ = sil2_loss(t, p, mask, 1.0)
        for c in (-3.0, -2.0, 0.1, 0.7, 1.7, 17.0, 42.0):
            gap = abs(sil2_loss(t, p + c, mask, 1.0)[0] - base)
            assert gap < 1e-10, f"lambda=1 offset invariance ({shape}) at c={c}: {gap:.2e}"
        mse, _ = sil2_loss(t, p, mask, 0.0)
        assert abs(mse - float(((t - p) ** 2).mean())) < 1e-12, "lambda=0 = plain MSE"
        for use_grad in (False, True):
            cfg = LossConfig(lam=0.5, use_gradient_loss=use_grad)
            tot, _, _ = total_loss(t, t + 0.3, p, p - 0.1, mask, cfg)
            want = sil2_loss(t, p, mask, 0.5)[0] + sil2_loss(t + 0.3, p - 0.1, mask, 0.5)[0]
            if use_grad:
                want += gradient_loss(t, p, mask)[0]
            assert abs(tot - want) < 1e-12, f"total loss composition (grad={use_grad})"

        holed = mask.copy()
        holed[0, 0, 1, 2] = holed[0, 0, 3, 0] = 0.0
        poked = p.copy()
        poked[0, :, 1, 2] = 99.0
        poked[0, :, 3, 0] = -99.0
        for name, loss_fn in (("sil2", lambda v: sil2_loss(t, v, holed, 0.5)),
                              ("gradient loss", lambda v: gradient_loss(t, v, holed))):
            l0, g0 = loss_fn(p)
            l1, g1 = loss_fn(poked)
            assert abs(l0 - l1) < 1e-12 and np.max(np.abs(g0 - g1)) < 1e-12, \
                f"{name}: masked perturbation leaked into loss/gradients"
            assert np.all(g0[0, :, 1, 2] == 0.0), f"{name}: gradient at a masked pixel"


def _suite_loss_gradients():
    rng = Rng(17)
    failures = []
    for shape in ((1, 3, 5, 5), (1, 3, 4, 6)):
        t, p = rng.normal(shape), rng.normal(shape)
        mask = _full_mask(shape)
        holed = mask.copy()
        holed[0, 0, 1, 2] = holed[0, 0, 3, 0] = 0.0
        sparse = (rng.uniform(holed.shape) > 0.2).astype(float)
        sparse[0, 0, 0, 0] = 1.0
        checks = [(f"sil2 gradient (lambda={lam}, {kind} mask, {shape})",
                   lambda v, m=m, lam=lam: sil2_loss(t, v, m, lam), p, None)
                  for lam in (0.0, 0.5, 1.0)
                  for kind, m in (("full", mask), ("holed", holed))]
        checks += [(f"gradient-loss gradient ({kind} mask, {shape})",
                    lambda v, m=m: gradient_loss(t, v, m), p, None)
                   for kind, m in (("full", mask), ("sparse", sparse))]
        failures += check_all(checks, LAYER_H)
    assert not failures, "; ".join(failures)


def _suite_alpha_grid():
    rng = Rng(5)
    for _ in range(20):
        for shape, lo, span, noise in (((1, 3, 5, 5), 0.3, 3.0, 0.1),
                                       ((1, 3, 6, 6), 0.3, 3.0, 0.1),
                                       ((1, 3, 5, 5), 0.2, 4.0, 0.05)):
            p = rng.uniform(shape) + 0.05
            t = (lo + span * rng.uniform()) * p + noise * rng.normal(shape)
            holed = (rng.uniform((1, 1, *shape[2:])) > 0.2).astype(float)
            holed[0, 0, 0, 0] = 1.0
            for kind, mask in (("full", None), ("holed", holed)):
                a = fit_alpha(t, p, mask)
                if mask is None:
                    mask = _full_mask(shape)
                best, sse = alpha_grid_oracle(t, p, mask)
                assert abs(a - best) <= 1e-3, f"fit_alpha vs grid ({kind} mask)"
                fit_sse = float((((t - a * p) * mask) ** 2).sum())
                assert fit_sse <= sse + 1e-6, f"fit_alpha loss above grid ({kind} mask)"
                want = sse / (mask.sum() * shape[1])
                got = si_mse(t, p, mask)
                # the closed form beats the grid, by at most grid resolution
                assert got <= want + 1e-12 and abs(got - want) < 1e-6, \
                    f"si_mse vs grid ({kind} mask): {abs(got - want):.2e}"


def _suite_lmse_oracle():
    rng = Rng(6)
    # (41, 40): the last window start is placed flush with the border
    for hw in ((30, 30), (40, 40), (47, 33), (80, 64), (41, 40)):
        t = rng.uniform((1, 3, *hw))
        p = rng.uniform((1, 3, *hw))
        mask = (rng.uniform((1, 1, *hw)) > 0.1).astype(float)
        gap = abs(lmse(t, p, mask) - lmse_oracle(t, p, mask))
        assert gap < 1e-10, f"lmse vs window oracle ({hw}): {gap:.2e}"


def _suite_dssim_oracle():
    rng = Rng(7)
    # (1, 1, 76, 140) blurs to 66x130: two row tiles and three column tiles
    # of the banded GEMMs, each ending in a remainder
    for shape in ((1, 1, 14, 14), (1, 3, 16, 16), (2, 2, 13, 12), (1, 1, 76, 140)):
        t = rng.uniform(shape)
        p = rng.uniform(shape)
        full = _full_mask(shape)
        got = ssim_map(t, p)
        want = ssim_oracle(t, p, full)
        assert got.shape == want.shape, f"ssim extents {got.shape} != {want.shape}"
        gap = np.max(np.abs(got - want))
        assert gap < 1e-8, f"ssim vs direct-sum oracle ({shape}): {gap:.2e}"
        half = (rng.uniform(full.shape) > 0.5).astype(float)
        for name, mask in (("unmasked", full), ("masked", half)):
            gap = abs(dssim(t, p, mask) - dssim_oracle(t, p, mask))
            assert gap < 1e-8, f"{name} dssim vs direct-sum oracle ({shape}): {gap:.2e}"
            assert dssim(t, t, mask) == 0.0, f"{name} dssim of identical images"


def _suite_data_synthesis():
    rng = Rng(8)
    for hw in ((10, 10), (20, 20)):
        a = 0.2 + 0.7 * rng.uniform((1, 3, *hw))
        s_true = 0.2 + 0.7 * rng.uniform((1, 1, *hw))
        img = resynthesize(a, s_true)
        assert np.max(np.abs(img - a * s_true)) < 1e-6, "resynthesis identity"
        s, alpha, valid = generate_mit_shading(img, a)
        assert np.max(np.abs(s - s_true)) < 1e-8, "shading recovery"
        assert abs(alpha - 1.0) < 1e-8, "alpha recovery"
        assert np.all(valid == 1.0), "valid mask on an exact factorization"
        with tempfile.TemporaryDirectory() as d:
            s3 = s_true * np.ones((1, 3, 1, 1))
            for name, arr in (("i", resynthesize(a, s3)), ("a", a), ("s", s3)):
                write_png(f"{d}/{name}.png", arr[0].transpose(1, 2, 0), bit_depth=16)
            i2, a2, s2 = (read_png(f"{d}/{name}.png").transpose(2, 0, 1)[None]
                          for name in "ias")
            gap = np.max(np.abs(i2 - a2 * s2))
            assert gap < 2.0 / 65535.0, f"png round-trip identity: {gap:.2e}"


def crop_oracle(sample, cfg, rng):
    """augment's crop and mirror without rotate/zoom, through the bilinear
    gather on the integer grid: same draws, same maps.  Returns the
    offsets and the (image, albedo, shading, mask) maps."""
    h, w = sample.image.shape[2:]
    off_r = rng.integers(0, h - cfg.crop_h)
    off_c = rng.integers(0, w - cfg.crop_w)
    flip = cfg.mirror_prob > 0 and rng.uniform() < cfg.mirror_prob
    cols = np.arange(cfg.crop_w, dtype=np.float64)
    sy, sx = np.meshgrid(np.arange(cfg.crop_h, dtype=np.float64) + off_r,
                         (cols[::-1] if flip else cols) + off_c, indexing="ij")
    maps = [_bilinear_gather(t, sy, sx) for t in
            (sample.image, sample.albedo, sample.shading, sample.mask)]
    return (off_r, off_c), maps


def _suite_augmentation():
    # piecewise-constant albedo x slow shading: per-cell interpolation
    # cross-terms stay inside the bilinear tolerance
    cfg = AugmentConfig(crop_h=32, crop_w=32, mirror_prob=0.5,
                        enable_rotate_zoom=True)
    for seed in range(5):
        s = make_synthetic_sample(seed, h=48, w=48)
        out = augment(s, cfg, Rng(seed))
        gap = (np.abs(out.image - out.albedo * out.shading) * out.mask).max()
        assert gap < 1e-3, f"augment intrinsic identity: {gap:.2e}"
    # without rotate/zoom the crop is a slice; it must equal the gather
    offsets = set()
    for crop in ((47, 46), (48, 48)):
        for mirror in (0.0, 0.5, 1.0):
            cfg = AugmentConfig(crop_h=crop[0], crop_w=crop[1], mirror_prob=mirror)
            for seed in range(10):
                s = make_synthetic_sample(seed, h=48, w=48)
                s.mask = (Rng(seed).uniform(s.mask.shape) > 0.2).astype(np.float64)
                out = augment(s, cfg, Rng(seed))
                offs, want = crop_oracle(s, cfg, Rng(seed))
                offsets |= {(crop, 0, offs[0]), (crop, 1, offs[1])}
                for name, w in zip(("image", "albedo", "shading", "mask"), want):
                    got = getattr(out, name)
                    assert got.dtype == w.dtype and np.array_equal(got, w), \
                        f"augment crop {name} vs gather (crop {crop}, mirror {mirror})"
    for crop in ((47, 46), (48, 48)):
        for axis in (0, 1):
            for off in (0, 48 - crop[axis]):
                assert (crop, axis, off) in offsets, f"crop {crop}: offset {off} not drawn"


def _suite_network_shapes():
    # forward pads the non-multiples of 32 itself
    extents = (1, 32, 33, 64, 70, 96, 128, 160)
    for hc in (False, True):
        for deconv in (False, True):
            cfg = NetworkConfig(channel_scale=1 / 16, use_hypercolumn=hc,
                                use_deconv_head=deconv)
            net = build_network(cfg, Rng(10), dtype=np.float32)
            for h in extents:
                for w in extents:
                    la, ls = net.forward(Rng(11).uniform((1, 3, h, w)))
                    assert la.shape == (1, 3, h, w) and ls.shape == (1, 3, h, w), \
                        f"shape contract (hc={hc}, deconv={deconv}, {h}x{w})"


def _suite_topology_audit():
    net = build_network(NetworkConfig(channel_scale=1.0), Rng(12))
    shapes = {n: p.value.shape for n, p in net.params.items()}
    stated = {"s1.conv1.weight": (96, 3, 11, 11), "s1.conv2.weight": (256, 96, 5, 5),
              "s1.conv3.weight": (384, 256, 3, 3), "s1.conv4.weight": (384, 384, 3, 3),
              "s1.conv5.weight": (256, 384, 3, 3), "s1.conv6.weight": (64, 256, 1, 1),
              "s2.conv1.weight": (96, 3, 9, 9)}
    for name, want in stated.items():
        assert shapes[name] == want, f"{name}: {shapes[name]} != {want}"
    for name in ("s2.conv2", "s2.conv3", "s2.conv4"):
        assert shapes[f"{name}.weight"][2:] == (5, 5), f"{name} kernel"
    for head in ("albedo", "shading"):
        spec = net.specs[f"{head}.deconv"]
        assert shapes[f"{head}.deconv.weight"] == (64, 3, 8, 8)
        assert (spec.kernel_h, spec.kernel_w, spec.stride_h, spec.stride_w) \
            == (8, 8, 4, 4), f"{head} deconv spec not 8x8 stride 4"


def whole_network_gradient(hc: bool, deconv: bool) -> list[str]:
    """Finite differences of the total loss through one network variant at
    every parameter tensor; returns the failing checks.  Every forward is a
    training forward with the same fixed-seed rng, so all of them draw the
    same dropout masks and dropout's backward is checked too."""
    rng = Rng(14)
    x = rng.uniform((1, 3, 32, 32))
    ta = rng.normal((1, 3, 32, 32)) * 0.1
    ts = rng.normal((1, 3, 32, 32)) * 0.1
    mask = _full_mask(x.shape)
    cfg = LossConfig(lam=0.5, use_gradient_loss=True)
    net = build_network(NetworkConfig(channel_scale=1 / 16, use_hypercolumn=hc,
                                      use_deconv_head=deconv),
                        Rng(13), dtype=np.float64)

    def loss():  # (loss, d_log_albedo, d_log_shading, tape)
        la, ls, tape = net.forward(x, rng=Rng(15))
        return total_loss(ta, ts, la, ls, mask, cfg) + (tape,)

    # one backward gives every analytic gradient; the finite differences
    # need only forward passes
    _, d_la, d_ls, tape = loss()
    net.zero_grads()
    net.backward(d_la, d_ls, tape)
    tag = f"hc={hc} deconv={deconv}"
    checks = []
    for name, p in net.params.items():
        def f(v, p=p, grad=p.grad.copy()):
            saved = p.value
            p.value = v
            try:
                return loss()[0], grad
            finally:
                p.value = saved

        checks.append((f"{tag} {name}", f, p.value.copy(), 4))
    return check_all(checks, NETWORK_H)


def _suite_whole_network_gradient():
    failures = [f for hc in (False, True) for deconv in (True, False)
                for f in whole_network_gradient(hc, deconv)]
    assert not failures, "whole-network gradient: " + "; ".join(failures)


def _suite_trainer():
    params = {"p": Param("p", np.zeros(1))}
    cfg = TrainConfig(base_lr=0.1, momentum=0.9, batch_size=1, max_iterations=1)
    params["p"].grad[:] = 1.0
    sgd_momentum_step(params, cfg)
    assert abs(params["p"].value[0] + 0.1) < 1e-12, "sgd step 1"
    params["p"].grad[:] = 1.0
    sgd_momentum_step(params, cfg)
    assert abs(params["p"].value[0] + 0.29) < 1e-12, "sgd step 2"

    samples = [make_synthetic_sample(i, h=32, w=32) for i in range(3)]
    tcfg = TrainConfig(base_lr=0.005, batch_size=2, max_iterations=3, seed=3,
                       loss=LossConfig(lam=0.5),
                       augment=AugmentConfig(crop_h=32, crop_w=32, mirror_prob=0.0,
                                             enable_rotate_zoom=False))
    traces = []
    for _ in range(2):
        net = build_network(NetworkConfig(channel_scale=1 / 16, dropout_prob=0.5),
                            Rng(15))
        _, trace = train_loop(net, samples, tcfg)
        traces.append(trace)
    assert traces[0] == traces[1], "deterministic training trace"

    # the logged loss is the mean of one-image losses, in batch order, over the
    # images with a valid pixel; each image is its sample (whole crop, no mirror)
    held = samples[:2] + [replace(samples[2], mask=np.zeros_like(samples[2].mask))]
    bcfg = replace(tcfg, batch_size=3, max_iterations=1,
                   loss=LossConfig(lam=0.5, use_gradient_loss=True))
    net = build_network(NetworkConfig(channel_scale=1 / 16, dropout_prob=0.5), Rng(15))
    losses = []
    for j, s in enumerate(_batch_samples(held, bcfg, 0)):
        if s.mask.any():
            la, ls, _ = net.forward(s.image.astype(net.dtype),
                                    rng=Rng(derive_seed(bcfg.seed, "dropout", 0, j)))
            losses.append(total_loss(log_guarded(s.albedo).astype(net.dtype),
                                     log_guarded(s.shading).astype(net.dtype), la, ls,
                                     s.mask.astype(net.dtype), bcfg.loss)[0])
    _, [(_, logged)] = train_loop(net, held, bcfg)
    assert len(losses) == 2 and logged == sum(losses) / 2, \
        f"batch loss {logged!r} is not the mean of its valid images' losses {losses}"

    with tempfile.TemporaryDirectory() as d:
        net = build_network(NetworkConfig(channel_scale=1 / 16), Rng(16))
        ck = Checkpoint.from_network(net, 3, (1, 2, 0, 0), b"\x01" * 32)
        save_checkpoint(ck, f"{d}/a.ck")
        save_checkpoint(load_checkpoint(f"{d}/a.ck"), f"{d}/b.ck")
        with open(f"{d}/a.ck", "rb") as fa, open(f"{d}/b.ck", "rb") as fb:
            assert fa.read() == fb.read(), "checkpoint save/load/save identity"


SUITES = [
    ("layer-gradients", _suite_layer_gradients),
    ("loss-gradients", _suite_loss_gradients),
    ("conv-oracle", _suite_conv_oracle),
    ("max-pool-oracle", _suite_max_pool_oracle),
    ("deconv-adjoint", _suite_deconv_adjoint),
    ("bilinear-adjoint", _suite_bilinear_adjoint),
    ("loss-algebra", _suite_loss_algebra),
    ("alpha-grid-oracle", _suite_alpha_grid),
    ("lmse-window-oracle", _suite_lmse_oracle),
    ("dssim-oracle", _suite_dssim_oracle),
    ("data-synthesis", _suite_data_synthesis),
    ("augmentation", _suite_augmentation),
    ("network-shapes", _suite_network_shapes),
    ("topology-audit", _suite_topology_audit),
    ("whole-network-gradient", _suite_whole_network_gradient),
    ("trainer", _suite_trainer),
]


def run_suite(name: str):
    """Run one suite by name; returns (name, passed, detail)."""
    t0 = time.perf_counter()
    try:
        dict(SUITES)[name]()
    except Exception as e:  # report and continue
        return name, False, str(e)
    return name, True, f"{time.perf_counter() - t0:.2f}s"
