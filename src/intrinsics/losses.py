"""Scale-invariant L2 loss, gradient L2 loss, and their masked combination.

All losses consume log-domain tensors produced upstream by ``log_guarded``;
they never take logs themselves.  Each call scores one image: (1,C,H,W)
maps and a (1,1,H,W) validity mask, 1 = valid, broadcast across channels;
n counts its valid channel entries (3x its valid pixels for RGB).  Only
``train_loop`` averages over a batch, as in Eigen et al. 2014.  A loss
forms its gradient in place and drops each full-size temporary once used,
rounding as the out-of-place expressions would.
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


def _inv_n(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """1/n in float64, shaped (1,1,1,1), for one image's valid channel
    entries; rejects a batch of other than one image and an empty mask."""
    if pred.ndim != 4 or pred.shape[0] != 1:
        raise ValueError(f"loss: scores one image (1,C,H,W), got {pred.shape}")
    if target.shape != pred.shape:
        raise ValueError(f"loss: target shape {target.shape} != prediction {pred.shape}")
    if mask.shape != (1, 1, *pred.shape[2:]):
        raise ValueError(f"loss: mask shape {mask.shape} incompatible with {pred.shape}")
    n = mask.sum(keepdims=True, dtype=np.float64) * pred.shape[1]
    if not n.any():
        raise ValueError("loss: mask has no valid pixels")
    return 1.0 / n


def sil2_loss(log_target: np.ndarray, log_pred: np.ndarray, mask: np.ndarray,
              lam: float):
    """Scale-invariant L2 loss over valid entries and its gradient.

    With y = log_target - log_pred over one image's n valid entries, its
    loss is (1/n) sum y^2 - lam (1/n^2) (sum y)^2.  At lam = 1 the loss is
    invariant to a constant offset of the prediction; at lam = 0 it is the
    mean squared error in log space.
    """
    inv_n = _inv_n(log_pred, log_target, mask)
    y = (log_target - log_pred) * mask
    sum_y = y.sum(keepdims=True)
    loss = (inv_n * ((y * y).sum(keepdims=True) - lam * inv_n * sum_y * sum_y)).item()
    inv_n = inv_n.astype(y.dtype)  # full-size terms stay in the maps' dtype
    dlog_pred = y - lam * inv_n * sum_y * mask
    del y
    dlog_pred *= -2.0 * inv_n
    dlog_pred *= mask
    return loss, dlog_pred.astype(log_pred.dtype, copy=False)


def gradient_loss(log_target: np.ndarray, log_pred: np.ndarray, mask: np.ndarray):
    """L2 error of forward-difference spatial gradients of the residual.

    A difference term contributes only when both of its endpoints are valid,
    so defective pixels never leak into the loss.  The sum is divided by n,
    the count of the image's valid channel entries, as in sil2_loss.
    """
    inv_n = _inv_n(log_pred, log_target, mask)
    y = (log_target - log_pred) * mask
    # the mask's dtype is never wider than y's, so these in-place products
    # round as the out-of-place ones would
    di = y[:, :, 1:, :] - y[:, :, :-1, :]
    di *= mask[:, :, 1:, :] * mask[:, :, :-1, :]
    dj = y[:, :, :, 1:] - y[:, :, :, :-1]
    dj *= mask[:, :, :, 1:] * mask[:, :, :, :-1]
    del y

    loss = (inv_n * ((di * di).sum(keepdims=True)
                     + (dj * dj).sum(keepdims=True))).item()

    scale = 2.0 * inv_n.astype(di.dtype)
    di *= scale
    dj *= scale
    dlog_pred = np.zeros(log_pred.shape, di.dtype)
    dlog_pred[:, :, 1:, :] += di
    dlog_pred[:, :, :-1, :] -= di
    del di
    dlog_pred[:, :, :, 1:] += dj
    dlog_pred[:, :, :, :-1] -= dj
    del dj
    np.negative(dlog_pred, out=dlog_pred)
    dlog_pred *= mask
    return loss, dlog_pred.astype(log_pred.dtype, copy=False)


def total_loss(log_albedo_target, log_shading_target, log_albedo, log_shading,
               mask, cfg: LossConfig):
    """Joint objective on one image: SIL2 on albedo + SIL2 on shading, plus
    optionally the gradient term on albedo only (shading is not piecewise constant)."""
    loss_a, da = sil2_loss(log_albedo_target, log_albedo, mask, cfg.lam)
    loss_s, ds = sil2_loss(log_shading_target, log_shading, mask, cfg.lam)
    loss = loss_a + loss_s
    if cfg.use_gradient_loss:
        loss_g, dg = gradient_loss(log_albedo_target, log_albedo, mask)
        loss += loss_g
        da += dg
    return loss, da, ds
