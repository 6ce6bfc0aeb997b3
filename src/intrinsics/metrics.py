"""Benchmark measures: scale-invariant MSE, local MSE over sliding windows,
and DSSIM, plus ``evaluate_report``, the one loop that loads and scores each
sample of a set through a caller's ``load`` and reports its read and scoring
failures together, in order.

All metrics operate on linear-intensity images, score only the pixels the
validity mask marks, and first fit the prediction's brightness (never the
ground truth's) on those pixels with ``fit_alpha``, the one home of that
least-squares scale: si_mse and LMSE (per window) as in Grosse et al. 2009,
and DSSIM, which always takes SSIM (Wang et al. 2004) of the rescaled
prediction clipped to [0, 1], averaged over the windows whose centre pixel
is valid.  SSIM's Gaussian blurs run as banded GEMMs on BLAS.
"""

from __future__ import annotations

import numpy as np

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
LMSE_WINDOW_FRACTION = 0.1  # of the larger image side
LMSE_STRIDE_FRACTION = 0.5  # of a window
_BLUR_TILE = 64  # output rows or columns per GEMM of the SSIM blur


def fit_alpha(target: np.ndarray, pred: np.ndarray,
              mask: np.ndarray | None = None) -> float:
    """Least-squares brightness scale argmin_a sum(mask * (target - a*pred)^2),
    or 0 when the prediction is identically zero on the mask."""
    m = 1.0 if mask is None else mask
    denom = float((pred * pred * m).sum())
    return 0.0 if denom == 0.0 else float((target * pred * m).sum()) / denom


def _aligned_ssq(target: np.ndarray, pred: np.ndarray, mask: np.ndarray) -> float:
    """Squared masked error left once ``fit_alpha`` scales the prediction:
    si_mse's numerator, and one window's term of ``mit_total_lmse``."""
    a = fit_alpha(target, pred, mask)
    diff = (target - a * pred) * mask
    return float((diff * diff).sum())


def si_mse(target: np.ndarray, pred: np.ndarray, mask: np.ndarray) -> float:
    """Mean squared error after fitting a single brightness scale to the
    prediction; sums run over valid channel entries only."""
    if target.shape != pred.shape:
        raise ValueError(f"si_mse: shapes differ {target.shape} vs {pred.shape}")
    n = float(mask.sum()) * target.shape[1]
    if n == 0:
        raise ValueError("si_mse: mask has no valid pixels")
    return _aligned_ssq(target, pred, mask) / n


def _windows(target: np.ndarray, pred: np.ndarray, mask: np.ndarray):
    """Yield the (target, pred, mask) crops of every window holding a valid
    pixel: square windows of LMSE_WINDOW_FRACTION of the larger side,
    LMSE_STRIDE_FRACTION of a window apart, with the last window of each row
    and column flush to the border."""
    h, w = target.shape[2:]
    k = max(1, int(LMSE_WINDOW_FRACTION * max(h, w) + 0.5))
    if k > h or k > w:
        raise ValueError(f"lmse: window {k} exceeds image extents {h}x{w}")
    stride = max(1, int(k * LMSE_STRIDE_FRACTION))

    def starts(extent):
        out = list(range(0, extent - k + 1, stride))
        return out if out[-1] == extent - k else out + [extent - k]

    for i in starts(h):
        for j in starts(w):
            m = mask[:, :, i:i + k, j:j + k]
            if m.sum() != 0:
                yield target[:, :, i:i + k, j:j + k], pred[:, :, i:i + k, j:j + k], m


def lmse(target: np.ndarray, pred: np.ndarray, mask: np.ndarray) -> float:
    """Mean of per-window si_mse over overlapping square windows sized a
    tenth of the larger image dimension, stride half a window."""
    total = 0.0
    count = 0
    for t, p, m in _windows(target, pred, mask):
        total += si_mse(t, p, m)
        count += 1
    if count == 0:
        raise ValueError("lmse: no window contains a valid pixel")
    return total / count


def mit_total_lmse(albedo_true: np.ndarray, albedo_pred: np.ndarray,
                   shading_true: np.ndarray, shading_pred: np.ndarray,
                   mask: np.ndarray) -> float:
    """Average of albedo and shading windowed errors, each normalized by the
    windowed error of the zero predictor.  Approximates the reweighted
    benchmark scorer; flagged as such wherever reported."""
    out = 0.0
    for target, pred in ((albedo_true, albedo_pred), (shading_true, shading_pred)):
        ssq = zero_ssq = 0.0
        for t, p, m in _windows(target, pred, mask):
            ssq += _aligned_ssq(t, p, m)
            zero_ssq += float((t * t * m).sum())
        if zero_ssq == 0.0:
            raise ValueError("mit_total_lmse: zero normalizer (ground truth is zero)")
        out += ssq / zero_ssq
    return out / 2.0


def _gaussian_kernel() -> np.ndarray:
    x = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return g / g.sum()


def _blur_valid(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable 'valid' filtering of (N,C,H,W) along H then W, as banded
    GEMMs on BLAS.  Each tile of ``_BLUR_TILE`` output rows (columns) is one
    product of its ``_BLUR_TILE + k - 1`` input rows (columns) with the
    kernel's band matrix, written in place; a remainder tile uses the band's
    top-left corner.  No product in a band's zeros changes a sum, so the
    result differs from the direct sums by summation order only."""
    k = kernel.shape[0]
    t = _BLUR_TILE
    band = np.zeros((t + k - 1, t))
    for j in range(t):
        band[j:j + k, j] = kernel
    n, c, hi, wi = x.shape
    h, w = hi - k + 1, wi - k + 1
    y = np.empty((n, c, h, wi))
    for i in range(0, h, t):
        r = min(t, h - i)
        np.matmul(band[:r + k - 1, :r].T, x[:, :, i:i + r + k - 1], out=y[:, :, i:i + r])
    y = y.reshape(n * c * h, wi)
    out = np.empty((n * c * h, w))
    for j in range(0, w, t):
        r = min(t, w - j)
        np.matmul(y[:, j:j + r + k - 1], band[:r + k - 1, :r], out=out[:, j:j + r])
    return out.reshape(n, c, h, w)


def ssim_map(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Per-pixel, per-channel SSIM over the valid (fully-windowed) region,
    using an 11x11 Gaussian window (sigma 1.5) and dynamic range 1."""
    if target.shape != pred.shape:
        raise ValueError(f"ssim: shapes differ {target.shape} vs {pred.shape}")
    h, w = target.shape[2:]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"ssim: image {h}x{w} smaller than the "
                         f"{SSIM_WINDOW}x{SSIM_WINDOW} window")
    kernel = _gaussian_kernel()
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    mu_x = _blur_valid(target, kernel)
    mu_y = _blur_valid(pred, kernel)
    var_x = _blur_valid(target * target, kernel)
    var_y = _blur_valid(pred * pred, kernel)
    cov = _blur_valid(target * pred, kernel)
    # ((2 mu_x mu_y + c1)(2 cov + c2)) / ((mu_x^2 + mu_y^2 + c1)(var_x + var_y + c2)),
    # folded in place in the same operation order
    num = mu_x * mu_y
    cov -= num
    cov *= 2
    cov += c2
    num *= 2
    num += c1
    num *= cov
    mu_x *= mu_x
    mu_y *= mu_y
    var_x -= mu_x
    var_y -= mu_y
    var_x += var_y
    var_x += c2
    mu_x += mu_y
    mu_x += c1
    mu_x *= var_x
    num /= mu_x
    return num


def dssim(target: np.ndarray, pred: np.ndarray, mask: np.ndarray) -> float:
    """(1 - mean SSIM)/2 in [0, 1] over the windows whose centre pixel is
    valid, weighted by the mask there.  The prediction is first
    brightness-scaled to the target by ``fit_alpha`` on valid pixels and
    clipped to [0, 1]; masked pixels then enter both images as 0, so they
    add no disagreement to any window."""
    r = SSIM_WINDOW // 2
    pred = np.clip(fit_alpha(target, pred, mask) * pred, 0.0, 1.0)
    pred *= mask
    s = ssim_map(target * mask, pred)
    centre = mask[:, :, r:r + s.shape[2], r:r + s.shape[3]]
    n = float(centre.sum()) * s.shape[1]
    if n == 0:
        raise ValueError("dssim: no window has a valid centre pixel")
    return float((1.0 - float((s * centre).sum()) / n) / 2.0)


_METRIC_NAMES = ("mse", "lmse", "dssim")  # each scored as <name>_a and <name>_s


def evaluate_report(ids, load, include_mit_total: bool = False) -> dict:
    """Per-sample metrics plus dataset means and albedo/shading averages.

    The one scoring loop: for each id in order, ``load(id)`` returns
    ``(albedo_true, shading_true, albedo_pred, shading_pred, mask)``, and the
    sample is scored before the next is loaded, so one sample's maps are
    held at a time.  A sample whose load or scoring raises OSError or
    ValueError is listed under ``errors``, in id order, rather than silently
    dropped.  Outputs a JSON-ready dict:
    ``{per_sample: [...], mean: {...}, avg: {...}, errors: [...],
    mit_total_lmse?, mit_total_lmse_note?}``.  ``mean`` and ``avg`` are
    present when some sample was scored; ``mit_total_lmse`` averages the
    scored samples only.
    """
    per_sample = []
    errors = []
    totals = []
    for sid in ids:
        try:
            at, st, ap, sp, mask = load(sid)
            row = {"id": sid}
            # looked up per sample: the benchmark's tracer patches these names here
            for name, metric in zip(_METRIC_NAMES, (si_mse, lmse, dssim)):
                row[f"{name}_a"] = metric(at, ap, mask)
                row[f"{name}_s"] = metric(st, sp, mask)
            if include_mit_total:
                totals.append(mit_total_lmse(at, ap, st, sp, mask))
            per_sample.append(row)
        except (OSError, ValueError) as e:
            errors.append({"id": sid, "error": str(e)})
    if not (per_sample or errors):
        raise ValueError("evaluate_report: no samples")
    report = {"per_sample": per_sample, "errors": errors}
    if per_sample:
        mean = {k: float(np.mean([r[k] for r in per_sample]))
                for k in per_sample[0] if k != "id"}
        report["mean"] = mean
        report["avg"] = {name: (mean[f"{name}_a"] + mean[f"{name}_s"]) / 2.0
                         for name in _METRIC_NAMES}
    if include_mit_total and totals:
        report["mit_total_lmse"] = float(np.mean(totals))
        report["mit_total_lmse_note"] = (
            "approximation of the reweighted benchmark scorer: per-window "
            "errors normalized by the zero predictor's windowed error")
    return report
