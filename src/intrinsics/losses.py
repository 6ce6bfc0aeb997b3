"""Scale-invariant L2 loss, gradient L2 loss, and their masked combination.

All losses consume log-domain tensors produced upstream by ``log_guarded``;
they never take logs themselves.  The validity mask is (N,1,H,W) with
1 = valid, broadcast across channels; n counts valid channel entries
(3x valid pixels for RGB).
"""

from __future__ import annotations

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
        if self.log_epsilon <= 0:
            raise ValueError("LossConfig: log_epsilon must be > 0")


def _check_mask(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> float:
    if target.shape != pred.shape:
        raise ValueError(f"loss: target shape {target.shape} != prediction {pred.shape}")
    if mask.shape != (pred.shape[0], 1, pred.shape[2], pred.shape[3]):
        raise ValueError(f"loss: mask shape {mask.shape} incompatible with {pred.shape}")
    n = float(mask.sum()) * pred.shape[1]
    if n == 0:
        raise ValueError("loss: mask has no valid pixels")
    return n


def sil2_loss(log_target: np.ndarray, log_pred: np.ndarray, mask: np.ndarray,
              lam: float):
    """Scale-invariant L2 loss over valid entries and its gradient.

    With y = log_target - log_pred: loss = (1/n) sum y^2 - lam (1/n^2) (sum y)^2.
    At lam = 1 the loss is invariant to a constant offset of the prediction;
    at lam = 0 it is plain mean squared error in log space.
    """
    n = _check_mask(log_pred, log_target, mask)
    y = (log_target - log_pred) * mask
    sum_y = float(y.sum())
    loss = float((y * y).sum()) / n - lam * (sum_y * sum_y) / (n * n)
    dlog_pred = -((2.0 / n) * y - (2.0 * lam / (n * n)) * sum_y * mask)
    dlog_pred = dlog_pred * mask
    return loss, dlog_pred.astype(log_pred.dtype, copy=False)


def gradient_loss(log_target: np.ndarray, log_pred: np.ndarray, mask: np.ndarray):
    """L2 error of forward-difference spatial gradients of the residual.

    A difference term contributes only when both of its endpoints are valid,
    so defective pixels never leak into the loss. n is the count of valid
    channel entries, matching sil2_loss.
    """
    n = _check_mask(log_pred, log_target, mask)
    y = (log_target - log_pred) * mask
    mi = mask[:, :, 1:, :] * mask[:, :, :-1, :]
    mj = mask[:, :, :, 1:] * mask[:, :, :, :-1]
    di = (y[:, :, 1:, :] - y[:, :, :-1, :]) * mi
    dj = (y[:, :, :, 1:] - y[:, :, :, :-1]) * mj

    loss = (float((di * di).sum()) + float((dj * dj).sum())) / n

    dy = np.zeros_like(y)
    dy[:, :, 1:, :] += (2.0 / n) * di
    dy[:, :, :-1, :] -= (2.0 / n) * di
    dy[:, :, :, 1:] += (2.0 / n) * dj
    dy[:, :, :, :-1] -= (2.0 / n) * dj
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
