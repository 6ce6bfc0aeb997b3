import numpy as np
import pytest

from intrinsics.metrics import (PredictionRecord, dssim, evaluate_report,
                                lmse, lmse_window_sums, mit_total_lmse,
                                si_mse, ssim_map)
from intrinsics.rng import Rng
from intrinsics.verify import alpha_grid_oracle, lmse_oracle, ssim_oracle


def full_mask(shape):
    return np.ones((shape[0], 1, shape[2], shape[3]))


# -- si-MSE -------------------------------------------------------------------

class TestSiMse:
    def test_scale_invariance(self):
        target = Rng(1).uniform((1, 3, 8, 8)) + 0.1
        for k in (0.5, 1.0, 3.7):
            assert si_mse(target, k * target, full_mask(target.shape)) < 1e-14

    def test_prediction_rescaling_invariance(self):
        rng = Rng(2)
        target = rng.uniform((1, 3, 8, 8))
        pred = rng.uniform((1, 3, 8, 8))
        base = si_mse(target, pred, full_mask(target.shape))
        for k in (0.2, 5.0):
            assert abs(si_mse(target, k * pred, full_mask(target.shape)) - base) < 1e-12

    def test_zero_prediction_fallback(self):
        target = Rng(3).uniform((1, 3, 4, 4))
        got = si_mse(target, np.zeros_like(target), full_mask(target.shape))
        assert abs(got - float((target ** 2).mean())) < 1e-15

    def test_against_grid_oracle(self):
        for seed in range(20):
            rng = Rng(100 + seed)
            pred = rng.uniform((1, 3, 6, 6)) + 0.05
            target = (0.3 + 3.0 * rng.uniform()) * pred + 0.1 * rng.normal(pred.shape)
            mask = full_mask(target.shape)
            got = si_mse(target, pred, mask)
            want = alpha_grid_oracle(target, pred, mask)[1] / (mask.sum() * 3)
            assert got <= want + 1e-12          # closed form beats the grid
            assert abs(got - want) < 1e-6       # and by at most grid resolution

    def test_empty_mask_rejected(self):
        t = np.ones((1, 3, 2, 2))
        with pytest.raises(ValueError, match="no valid"):
            si_mse(t, t, np.zeros((1, 1, 2, 2)))


# -- LMSE ----------------------------------------------------------------------

class TestLmse:
    def test_perfect_prediction(self):
        t = Rng(4).uniform((1, 3, 40, 40))
        assert lmse(t, t, full_mask(t.shape)) == 0.0

    def test_global_scale_absorbed(self):
        t = Rng(5).uniform((1, 3, 40, 40)) + 0.1
        assert lmse(t, 2.5 * t, full_mask(t.shape)) < 1e-14

    @pytest.mark.parametrize("hw", [(30, 30), (40, 40), (47, 33), (80, 64)])
    def test_against_window_enumeration_oracle(self, hw):
        rng = Rng(6)
        target = rng.uniform((1, 3, *hw))
        pred = rng.uniform((1, 3, *hw))
        mask = (rng.uniform((1, 1, *hw)) > 0.1).astype(float)
        got = lmse(target, pred, mask)
        want = lmse_oracle(target, pred, mask)
        assert abs(got - want) < 1e-10

    def test_window_too_large_rejected(self):
        # window sized off the larger dimension exceeds the smaller one
        t = np.ones((1, 3, 5, 100))
        with pytest.raises(ValueError, match="window 10 exceeds image extents 5x100"):
            lmse(t, t, full_mask(t.shape))


class TestMitTotal:
    def test_perfect_is_zero(self):
        t = Rng(7).uniform((1, 3, 40, 40))
        m = full_mask(t.shape)
        sums = lmse_window_sums(t, t, m)
        assert mit_total_lmse(sums, sums) == 0.0

    def test_zero_prediction_is_one(self):
        t = Rng(8).uniform((1, 3, 40, 40)) + 0.1
        m = full_mask(t.shape)
        sums = lmse_window_sums(t, np.zeros_like(t), m)
        assert abs(mit_total_lmse(sums, sums) - 1.0) < 1e-12

    def test_monotone_in_albedo_error(self):
        rng = Rng(9)
        t = rng.uniform((1, 3, 40, 40)) + 0.1
        m = full_mask(t.shape)
        noise = rng.normal(t.shape)
        sums_s = lmse_window_sums(t, t + 0.05 * noise, m)
        prev = -1.0
        for scale in (0.02, 0.05, 0.1, 0.2):
            sums_a = lmse_window_sums(t, t + scale * noise, m)
            total = mit_total_lmse(sums_a, sums_s)
            assert total > prev
            prev = total

    def test_zero_normalizer_rejected(self):
        z = np.zeros((1, 3, 40, 40))
        sums = lmse_window_sums(z, z, full_mask(z.shape))
        with pytest.raises(ValueError, match="normalizer"):
            mit_total_lmse(sums, sums)


# -- DSSIM ----------------------------------------------------------------------

class TestDssim:
    def test_identical_images_zero(self):
        x = Rng(10).uniform((1, 3, 16, 16))
        assert dssim(x, x) == 0.0

    def test_bounded(self):
        rng = Rng(11)
        for _ in range(100):
            a = rng.uniform((1, 1, 12, 12))
            b = rng.uniform((1, 1, 12, 12))
            v = dssim(a, b)
            assert 0.0 <= v <= 1.0

    def test_against_direct_sum_oracle(self):
        rng = Rng(13)
        target = rng.uniform((1, 3, 16, 16))
        pred = rng.uniform((1, 3, 16, 16))
        got = ssim_map(target, pred)
        want = ssim_oracle(target, pred)
        assert got.shape == want.shape == (1, 3, 6, 6)
        assert np.max(np.abs(got - want)) < 1e-8
        scale = float((target * pred).sum()) / float((pred * pred).sum())
        aligned = ssim_oracle(target, np.clip(scale * pred, 0.0, 1.0))
        assert abs(dssim(target, pred) - float((1 - aligned.mean()) / 2)) < 1e-8

    def test_too_small_rejected(self):
        t = np.ones((1, 3, 8, 8))
        with pytest.raises(ValueError, match="window"):
            dssim(t, t)


# -- report ----------------------------------------------------------------------

class TestEvaluateReport:
    def _record(self, seed, perfect=False, hw=(24, 24)):
        rng = Rng(seed)
        at = rng.uniform((1, 3, *hw)) * 0.8 + 0.1
        st = rng.uniform((1, 3, *hw)) * 0.8 + 0.1
        if perfect:
            ap, sp = at.copy(), st.copy()
        else:
            ap = np.clip(at + 0.05 * rng.normal(at.shape), 0, 1)
            sp = np.clip(st + 0.05 * rng.normal(st.shape), 0, 1)
        return PredictionRecord(f"r{seed}", at, st, ap, sp, full_mask(at.shape))

    def test_perfect_sample_all_zero(self):
        report = evaluate_report([self._record(1, perfect=True)])
        row = report["per_sample"][0]
        for key in ("mse_a", "mse_s", "lmse_a", "lmse_s", "dssim_a", "dssim_s"):
            assert row[key] == 0.0
        assert report["avg"]["mse"] == 0.0
        assert report["errors"] == []

    def test_means_are_arithmetic_averages(self):
        r1, r2 = self._record(2), self._record(3)
        report = evaluate_report([r1, r2])
        rows = report["per_sample"]
        for key in ("mse_a", "lmse_s", "dssim_a"):
            want = (rows[0][key] + rows[1][key]) / 2.0
            assert abs(report["mean"][key] - want) < 1e-14

    def test_avg_columns(self):
        report = evaluate_report([self._record(4), self._record(5)])
        m = report["mean"]
        assert report["avg"]["mse"] == (m["mse_a"] + m["mse_s"]) / 2.0
        assert report["avg"]["lmse"] == (m["lmse_a"] + m["lmse_s"]) / 2.0
        assert report["avg"]["dssim"] == (m["dssim_a"] + m["dssim_s"]) / 2.0

    def test_failing_sample_reported_not_dropped(self):
        good = self._record(6)
        bad = self._record(7)
        bad.mask = np.zeros_like(bad.mask)  # si_mse will reject
        report = evaluate_report([good, bad])
        assert len(report["per_sample"]) == 1
        assert len(report["errors"]) == 1
        assert report["errors"][0]["id"] == "r7"

    def test_mit_total_included_on_request(self):
        report = evaluate_report([self._record(8)], include_mit_total=True)
        assert "mit_total_lmse" in report
        assert "approximation" in report["mit_total_lmse_note"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            evaluate_report([])
