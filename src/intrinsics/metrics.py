"""Benchmark measures: scale-invariant MSE, local MSE over sliding windows,
and DSSIM, plus report aggregation.

All metrics operate on linear-intensity images and first fit the
prediction's brightness (never the ground truth's) with ``fit_alpha``, the
one home of that least-squares scale: si_mse and LMSE (per window) as in
Grosse et al. 2009, and DSSIM, which always takes SSIM (Wang et al. 2004)
of the rescaled prediction clipped to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
LMSE_WINDOW_FRACTION = 0.1  # of the larger image side
LMSE_STRIDE_FRACTION = 0.5  # of a window


def fit_alpha(target: np.ndarray, pred: np.ndarray,
              mask: np.ndarray | None = None) -> float:
    """Least-squares brightness scale argmin_a sum(mask * (target - a*pred)^2),
    or 0 when the prediction is identically zero on the mask."""
    m = 1.0 if mask is None else mask
    denom = float((pred * pred * m).sum())
    return 0.0 if denom == 0.0 else float((target * pred * m).sum()) / denom


def si_mse(target: np.ndarray, pred: np.ndarray, mask: np.ndarray) -> float:
    """Mean squared error after fitting a single brightness scale to the
    prediction; sums run over valid channel entries only."""
    if target.shape != pred.shape:
        raise ValueError(f"si_mse: shapes differ {target.shape} vs {pred.shape}")
    n = float(mask.sum()) * target.shape[1]
    if n == 0:
        raise ValueError("si_mse: mask has no valid pixels")
    a = fit_alpha(target, pred, mask)
    diff = (target - a * pred) * mask
    return float((diff * diff).sum()) / n


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


def lmse_window_sums(target: np.ndarray, pred: np.ndarray,
                     mask: np.ndarray) -> tuple[float, float]:
    """Windowed squared-error sums for the reweighted total score:
    (sum of per-window aligned errors, same sums for the zero predictor)."""
    ssq = 0.0
    zero_ssq = 0.0
    for t, p, m in _windows(target, pred, mask):
        a = fit_alpha(t, p, m)
        diff = (t - a * p) * m
        ssq += float((diff * diff).sum())
        zero_ssq += float((t * t * m).sum())
    return ssq, zero_ssq


def mit_total_lmse(sums_albedo: tuple[float, float],
                   sums_shading: tuple[float, float]) -> float:
    """Average of albedo and shading windowed errors, each normalized by the
    windowed error of the zero predictor.  Approximates the reweighted
    benchmark scorer; flagged as such wherever reported."""
    out = 0.0
    for ssq, zero_ssq in (sums_albedo, sums_shading):
        if zero_ssq == 0.0:
            raise ValueError("mit_total_lmse: zero normalizer (ground truth is zero)")
        out += ssq / zero_ssq
    return out / 2.0


def _gaussian_kernel() -> np.ndarray:
    x = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return g / g.sum()


def _blur_valid(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable 'valid' filtering of (N,C,H,W) along H then W: one
    multiply-add of a shifted view per tap, with no window copies."""
    k = kernel.shape[0]
    h = x.shape[2] - k + 1
    y = x[:, :, :h] * kernel[0]
    for i in range(1, k):
        y += x[:, :, i:i + h] * kernel[i]
    w = x.shape[3] - k + 1
    out = y[..., :w] * kernel[0]
    for j in range(1, k):
        out += y[..., j:j + w] * kernel[j]
    return out


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
    var_x = _blur_valid(target * target, kernel) - mu_x * mu_x
    var_y = _blur_valid(pred * pred, kernel) - mu_y * mu_y
    cov = _blur_valid(target * pred, kernel) - mu_x * mu_y
    return (((2 * mu_x * mu_y + c1) * (2 * cov + c2))
            / ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)))


def dssim(target: np.ndarray, pred: np.ndarray) -> float:
    """(1 - mean SSIM)/2 in [0, 1], after the prediction is brightness-scaled
    to the target by ``fit_alpha`` and clipped to [0, 1]."""
    pred = np.clip(fit_alpha(target, pred) * pred, 0.0, 1.0)
    return float((1.0 - ssim_map(target, pred).mean()) / 2.0)


@dataclass
class PredictionRecord:
    """One evaluation unit: ground truth, prediction, and validity mask."""
    id: str
    albedo_true: np.ndarray
    shading_true: np.ndarray
    albedo_pred: np.ndarray
    shading_pred: np.ndarray
    mask: np.ndarray


_METRIC_KEYS = ("mse_a", "mse_s", "lmse_a", "lmse_s", "dssim_a", "dssim_s")


def evaluate_report(records, include_mit_total: bool = False) -> dict:
    """Per-sample metrics plus dataset means and albedo/shading averages.

    Failing samples are reported in an ``errors`` list rather than silently
    dropped.  Outputs a JSON-ready dict:
    ``{per_sample: [...], mean: {...}, avg: {...}, errors: [...],
    mit_total_lmse?, mit_total_lmse_note?}``.
    """
    records = list(records)
    if not records:
        raise ValueError("evaluate_report: no samples")
    per_sample = []
    errors = []
    totals = []
    for rec in records:
        try:
            row = {
                "id": rec.id,
                "mse_a": si_mse(rec.albedo_true, rec.albedo_pred, rec.mask),
                "mse_s": si_mse(rec.shading_true, rec.shading_pred, rec.mask),
                "lmse_a": lmse(rec.albedo_true, rec.albedo_pred, rec.mask),
                "lmse_s": lmse(rec.shading_true, rec.shading_pred, rec.mask),
                "dssim_a": dssim(rec.albedo_true, rec.albedo_pred),
                "dssim_s": dssim(rec.shading_true, rec.shading_pred),
            }
            if include_mit_total:
                totals.append(mit_total_lmse(
                    lmse_window_sums(rec.albedo_true, rec.albedo_pred, rec.mask),
                    lmse_window_sums(rec.shading_true, rec.shading_pred, rec.mask)))
            per_sample.append(row)
        except ValueError as e:
            errors.append({"id": rec.id, "error": str(e)})
    report = {"per_sample": per_sample, "errors": errors}
    if per_sample:
        mean = {k: float(np.mean([r[k] for r in per_sample])) for k in _METRIC_KEYS}
        report["mean"] = mean
        report["avg"] = {
            "mse": (mean["mse_a"] + mean["mse_s"]) / 2.0,
            "lmse": (mean["lmse_a"] + mean["lmse_s"]) / 2.0,
            "dssim": (mean["dssim_a"] + mean["dssim_s"]) / 2.0,
        }
    if include_mit_total and totals:
        report["mit_total_lmse"] = float(np.mean(totals))
        report["mit_total_lmse_note"] = (
            "approximation of the reweighted benchmark scorer: per-window "
            "errors normalized by the zero predictor's windowed error")
    return report
