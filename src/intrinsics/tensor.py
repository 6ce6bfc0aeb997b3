"""The guarded log and the finite-difference gradient checker.

Tensors throughout the package are plain numpy ndarrays laid out as
(N, C, H, W): batch, channel, row, column.  Tests and gradient checks run
in float64; the training path runs in float32 (the checkpoint format
stores 32-bit payloads, so live precision must match stored precision for
bit-exact resume).
"""

from __future__ import annotations

import numpy as np

LOG_EPS = 1e-4


def log_guarded(x: np.ndarray, eps: float = LOG_EPS) -> np.ndarray:
    """log(max(x, eps)); the standard guard for intensity images containing zeros."""
    return np.log(np.maximum(x, eps))


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
        from .rng import Rng
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
