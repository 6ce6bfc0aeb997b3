import tracemalloc

import numpy as np
import pytest

from intrinsics.losses import (LossConfig, gradient_loss, log_guarded, sil2_loss,
                               total_loss)
from intrinsics.rng import Rng


def full_mask(shape):
    return np.ones((shape[0], 1, shape[2], shape[3]))


class TestSil2:
    def test_perfect_prediction_zero(self):
        y = Rng(1).normal((1, 3, 4, 4))
        for lam in (0.0, 0.5, 1.0):
            loss, grad = sil2_loss(y, y, full_mask(y.shape), lam)
            assert loss == 0.0
            assert np.all(grad == 0.0)

    def test_hand_computed_value(self):
        target = np.zeros((1, 1, 2, 2))
        pred = np.ones((1, 1, 2, 2))
        loss, _ = sil2_loss(target, pred, full_mask(target.shape), 0.5)
        assert abs(loss - 0.5) < 1e-15

    def test_nonnegative(self):
        rng = Rng(5)
        for _ in range(1000):
            target = rng.normal((1, 1, 3, 3))
            pred = rng.normal((1, 1, 3, 3))
            lam = rng.uniform()
            loss, _ = sil2_loss(target, pred, full_mask(target.shape), lam)
            assert loss >= -1e-15

    def test_empty_mask_rejected(self):
        t = np.zeros((1, 3, 2, 2))
        with pytest.raises(ValueError, match="no valid pixels"):
            sil2_loss(t, t, np.zeros((1, 1, 2, 2)), 0.5)


class TestGradientLoss:
    def test_constant_residual_zero(self):
        rng = Rng(8)
        target = rng.normal((1, 3, 4, 4))
        loss, grad = gradient_loss(target, target + 3.0, full_mask(target.shape))
        assert abs(loss) < 1e-12
        assert np.max(np.abs(grad)) < 1e-12

    def test_hand_computed_value(self):
        target = np.array([0.0, 2.0]).reshape(1, 1, 1, 2)
        pred = np.zeros((1, 1, 1, 2))
        loss, _ = gradient_loss(target, pred, full_mask(target.shape))
        assert abs(loss - 2.0) < 1e-15

    def test_difference_needs_both_endpoints_valid(self):
        target = np.array([0.0, 2.0, 5.0]).reshape(1, 1, 1, 3)
        pred = np.zeros((1, 1, 1, 3))
        mask = np.array([1.0, 0.0, 1.0]).reshape(1, 1, 1, 3)
        # both differences touch the masked middle pixel, so loss is 0
        loss, grad = gradient_loss(target, pred, mask)
        assert loss == 0.0
        assert np.all(grad == 0.0)


class TestTotalLoss:
    def _random_case(self, seed):
        rng = Rng(seed)
        shape = (1, 3, 5, 5)
        return (rng.normal(shape), rng.normal(shape), rng.normal(shape),
                rng.normal(shape), full_mask(shape))

    def test_perfect_zero(self):
        a = Rng(30).normal((1, 3, 4, 4))
        s = Rng(31).normal((1, 3, 4, 4))
        cfg = LossConfig(lam=0.5, use_gradient_loss=True)
        loss, da, ds = total_loss(a, s, a, s, full_mask(a.shape), cfg)
        assert loss == 0.0
        assert np.all(da == 0.0) and np.all(ds == 0.0)

    def test_gradient_term_touches_only_albedo(self):
        at, st, ap, sp, mask = self._random_case(33)
        _, da0, ds0 = total_loss(at, st, ap, sp, mask, LossConfig(0.5, False))
        _, da1, ds1 = total_loss(at, st, ap, sp, mask, LossConfig(0.5, True))
        assert np.array_equal(ds0, ds1)
        assert not np.array_equal(da0, da1)

    def test_peak_under_seven_maps(self):
        """float32 at 64x64 with the gradient term: the two returned
        gradients and at most about four more full-size maps, 6.35 maps in
        all.  A gradient loss that kept its residual and each difference
        until the end, and negated and masked out of place, peaked at 9.36."""
        shape = (1, 3, 64, 64)
        at, st, ap, sp = (Rng(50 + i).normal(shape).astype(np.float32) for i in range(4))
        mask = (Rng(54).uniform((1, 1, 64, 64)) > 0.2).astype(np.float32)
        tracemalloc.start()
        try:
            total_loss(at, st, ap, sp, mask, LossConfig(0.5, True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * at.nbytes, f"total_loss peaks at {peak / at.nbytes:.2f} maps"

    def test_in_place_gradient_is_the_out_of_place_bytes(self):
        """float32 maps with holes in the mask: the gradients are the bytes
        of the loss's out-of-place formulas."""
        shape = (1, 3, 9, 11)
        at, st, ap, sp = (Rng(60 + i).normal(shape).astype(np.float32) for i in range(4))
        mask = (Rng(64).uniform((1, 1, 9, 11)) > 0.3).astype(np.float32)
        _, da, ds = total_loss(at, st, ap, sp, mask, LossConfig(0.5, True))
        inv_n = (1.0 / (mask.sum(dtype=np.float64) * 3)).astype(np.float32)

        def sil2(t, p):
            y = (t - p) * mask
            return -2.0 * inv_n * (y - 0.5 * inv_n * y.sum() * mask) * mask
        y = (at - ap) * mask
        di = (y[:, :, 1:] - y[:, :, :-1]) * (mask[:, :, 1:] * mask[:, :, :-1])
        dj = (y[..., 1:] - y[..., :-1]) * (mask[..., 1:] * mask[..., :-1])
        di *= 2.0 * inv_n
        dj *= 2.0 * inv_n
        dy = np.zeros_like(y)
        dy[:, :, 1:] += di
        dy[:, :, :-1] -= di
        dy[..., 1:] += dj
        dy[..., :-1] -= dj
        assert da.tobytes() == (sil2(at, ap) + -dy * mask).tobytes()
        assert ds.tobytes() == sil2(st, sp).tobytes()

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(lam=1.5)


class TestOneImage:
    """Every loss scores one image; the batch mean is train_loop's."""

    @pytest.mark.parametrize("loss_fn", [
        lambda t, m: sil2_loss(t, t, m, 0.5),
        lambda t, m: gradient_loss(t, t, m),
        lambda t, m: total_loss(t, t, t, t, m, LossConfig(0.5, True)),
    ], ids=["sil2", "gradient", "total"])
    def test_batch_of_two_rejected(self, loss_fn):
        t = Rng(40).normal((2, 3, 4, 4))
        with pytest.raises(ValueError, match=r"\(2, 3, 4, 4\)"):
            loss_fn(t, full_mask(t.shape))


class TestLogGuarded:
    def test_guarded_log(self):
        out = log_guarded(np.array([0.0, 1.0]))
        assert np.array_equal(out, [np.log(1e-4), 0.0])
