"""Scale-invariant L2 loss, gradient L2 loss, and their masked combination.

All losses consume log-domain tensors produced upstream by ``log_guarded``;
they never take logs themselves.  The validity mask is (N,1,H,W) with
1 = valid, broadcast across channels; n counts one image's valid channel
entries (3x its valid pixels for RGB).  Every loss is computed per image,
with that image's n and sums, and then averaged over the batch, as in
Eigen et al. 2014: no image's offset or size changes another's term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_EPS = 1e-4


def log_guarded(x: np.ndarray, eps: float = LOG_EPS) -> np.ndarray:
    """log(max(x, eps)); the standard guard for intensity images containing zeros."""
    return np.log(np.maximum(x, eps))


@dataclass
class LossConfig:
    lam: float = 0.5
    use_gradient_loss: bool = False
    log_epsilon: float = LOG_EPS

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"LossConfig: lambda {self.lam} outside [0, 1]")
        if not (math.isfinite(self.log_epsilon) and self.log_epsilon > 0):
            raise ValueError(f"LossConfig: log_epsilon must be finite and > 0, "
                             f"got {self.log_epsilon}")


def _per_image_weights(pred: np.ndarray, target: np.ndarray,
                       mask: np.ndarray) -> tuple[np.ndarray, int]:
    """(1/n per image in float64, shaped (N,1,1,1), and k): n counts an
    image's valid channel entries, and k the images with any.  An image with
    none weighs 0, so it adds nothing to the batch mean over the k others."""
    if target.shape != pred.shape:
        raise ValueError(f"loss: target shape {target.shape} != prediction {pred.shape}")
    if mask.shape != (pred.shape[0], 1, pred.shape[2], pred.shape[3]):
        raise ValueError(f"loss: mask shape {mask.shape} incompatible with {pred.shape}")
    n = mask.sum(axis=(1, 2, 3), keepdims=True, dtype=np.float64) * pred.shape[1]
    k = int(np.count_nonzero(n))
    if k == 0:
        raise ValueError("loss: mask has no valid pixels")
    return np.divide(1.0, n, out=np.zeros_like(n), where=n > 0), k


def _image_sums(t: np.ndarray) -> np.ndarray:
    return t.sum(axis=(1, 2, 3), keepdims=True)


def sil2_loss(log_target: np.ndarray, log_pred: np.ndarray, mask: np.ndarray,
              lam: float):
    """Scale-invariant L2 loss over valid entries and its gradient.

    With y = log_target - log_pred over one image's n valid entries, its
    loss is (1/n) sum y^2 - lam (1/n^2) (sum y)^2; the batch loss is the
    mean over the images that have valid entries.  At lam = 1 the loss is
    invariant to a constant offset of any one image's prediction; at
    lam = 0 it is the per-image mean squared error in log space.
    """
    inv_n, k = _per_image_weights(log_pred, log_target, mask)
    y = (log_target - log_pred) * mask
    sum_y = _image_sums(y)
    loss = float((inv_n * (_image_sums(y * y) - lam * inv_n * sum_y * sum_y)).sum()) / k
    inv_n = inv_n.astype(y.dtype)  # full-size terms stay in the maps' dtype
    dlog_pred = (-2.0 / k) * inv_n * (y - lam * inv_n * sum_y * mask)
    dlog_pred *= mask
    return loss, dlog_pred.astype(log_pred.dtype, copy=False)


def gradient_loss(log_target: np.ndarray, log_pred: np.ndarray, mask: np.ndarray):
    """L2 error of forward-difference spatial gradients of the residual.

    A difference term contributes only when both of its endpoints are valid,
    so defective pixels never leak into the loss.  Each image's sum is
    divided by its n, the count of its valid channel entries, and the batch
    loss is the mean over images, as in sil2_loss.
    """
    inv_n, k = _per_image_weights(log_pred, log_target, mask)
    y = (log_target - log_pred) * mask
    mi = mask[:, :, 1:, :] * mask[:, :, :-1, :]
    mj = mask[:, :, :, 1:] * mask[:, :, :, :-1]
    di = (y[:, :, 1:, :] - y[:, :, :-1, :]) * mi
    dj = (y[:, :, :, 1:] - y[:, :, :, :-1]) * mj

    loss = float((inv_n * (_image_sums(di * di) + _image_sums(dj * dj))).sum()) / k

    scale = (2.0 / k) * inv_n.astype(y.dtype)
    di *= scale
    dj *= scale
    dy = np.zeros_like(y)
    dy[:, :, 1:, :] += di
    dy[:, :, :-1, :] -= di
    dy[:, :, :, 1:] += dj
    dy[:, :, :, :-1] -= dj
    dlog_pred = -dy * mask
    return loss, dlog_pred.astype(log_pred.dtype, copy=False)


def total_loss(log_albedo_target, log_shading_target, log_albedo, log_shading,
               mask, cfg: LossConfig):
    """Joint objective: SIL2 on albedo + SIL2 on shading, plus optionally the
    gradient term on albedo only (shading is not piecewise constant)."""
    loss_a, da = sil2_loss(log_albedo_target, log_albedo, mask, cfg.lam)
    loss_s, ds = sil2_loss(log_shading_target, log_shading, mask, cfg.lam)
    loss = loss_a + loss_s
    if cfg.use_gradient_loss:
        loss_g, dg = gradient_loss(log_albedo_target, log_albedo, mask)
        loss += loss_g
        da = da + dg
    return loss, da, ds
