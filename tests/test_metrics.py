import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from intrinsics.metrics import (dssim, evaluate_report, lmse, lmse_window_sums,
                                mit_total_lmse, si_mse)
from intrinsics.rng import Rng

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
        assert dssim(x, x, full_mask(x.shape)) == 0.0

    def test_bounded(self):
        rng = Rng(11)
        for _ in range(100):
            a = rng.uniform((1, 1, 12, 12))
            b = rng.uniform((1, 1, 12, 12))
            v = dssim(a, b, full_mask(a.shape))
            assert 0.0 <= v <= 1.0

    def test_too_small_rejected(self):
        t = np.ones((1, 3, 8, 8))
        with pytest.raises(ValueError, match="window"):
            dssim(t, t, full_mask(t.shape))

    def test_masked_pixels_ignored(self):
        # perfect on the valid half, random on the masked half
        rng = Rng(12)
        target = rng.uniform((1, 3, 40, 40))
        mask = full_mask(target.shape)
        mask[..., 20:] = 0.0
        pred = np.where(mask > 0, target, rng.uniform(target.shape))
        assert dssim(target, pred, mask) == 0.0

    def test_no_valid_window_centre_rejected(self):
        # valid pixels only within half a window of the border
        t = Rng(13).uniform((1, 3, 24, 24))
        mask = full_mask(t.shape)
        mask[..., 5:-5, 5:-5] = 0.0
        with pytest.raises(ValueError, match="valid centre"):
            dssim(t, t, mask)
        report = evaluate_report(["r13"], lambda sid: (t, t, t, t, mask))
        assert report["per_sample"] == []
        assert "valid centre" in report["errors"][0]["error"]

    def test_same_value_at_one_and_two_blas_threads(self):
        # eval's blurs are BLAS GEMMs: several row and column tiles, each
        # with a remainder, scored at each thread count in its own process
        code = ("from intrinsics.metrics import dssim; from intrinsics.rng import Rng; "
                "import numpy as np; r = Rng(14); t = r.uniform((1, 3, 150, 300)); "
                "m = np.ones((1, 1, 150, 300)); m[..., :40, :70] = 0; "
                "print(repr(dssim(t, r.uniform(t.shape), m)))")
        out = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                   "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]


# -- report ----------------------------------------------------------------------

def report_of(samples, **kwargs):
    """evaluate_report over a dict of id -> (albedo_true, shading_true,
    albedo_pred, shading_pred, mask), loaded in the dict's order."""
    return evaluate_report(samples, samples.__getitem__, **kwargs)


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
        return f"r{seed}", (at, st, ap, sp, full_mask(at.shape))

    def test_perfect_sample_all_zero(self):
        report = report_of(dict([self._record(1, perfect=True)]))
        row = report["per_sample"][0]
        for key in ("mse_a", "mse_s", "lmse_a", "lmse_s", "dssim_a", "dssim_s"):
            assert row[key] == 0.0
        assert report["avg"]["mse"] == 0.0
        assert report["errors"] == []

    def test_means_are_arithmetic_averages(self):
        report = report_of(dict([self._record(2), self._record(3)]))
        rows = report["per_sample"]
        for key in ("mse_a", "lmse_s", "dssim_a"):
            want = (rows[0][key] + rows[1][key]) / 2.0
            assert abs(report["mean"][key] - want) < 1e-14

    def test_avg_columns(self):
        report = report_of(dict([self._record(4), self._record(5)]))
        m = report["mean"]
        assert report["avg"]["mse"] == (m["mse_a"] + m["mse_s"]) / 2.0
        assert report["avg"]["lmse"] == (m["lmse_a"] + m["lmse_s"]) / 2.0
        assert report["avg"]["dssim"] == (m["dssim_a"] + m["dssim_s"]) / 2.0

    def test_failing_sample_reported_not_dropped(self):
        good = self._record(6)
        sid, (at, st, ap, sp, mask) = self._record(7)
        bad = sid, (at, st, ap, sp, np.zeros_like(mask))  # si_mse will reject
        report = report_of(dict([good, bad]))
        assert len(report["per_sample"]) == 1
        assert len(report["errors"]) == 1
        assert report["errors"][0]["id"] == "r7"

    def test_load_error_listed_in_id_order(self):
        """A load that raises OSError between two good ids is one error row in
        its place, and both good ids are scored."""
        samples = dict([self._record(9), self._record(10)])

        def load(sid):
            if sid == "gone":
                raise OSError("cannot read gone.png")
            return samples[sid]

        report = evaluate_report(["r9", "gone", "r10"], load)
        assert [r["id"] for r in report["per_sample"]] == ["r9", "r10"]
        assert report["errors"] == [{"id": "gone", "error": "cannot read gone.png"}]

    def test_mit_total_included_on_request(self):
        report = report_of(dict([self._record(8)]), include_mit_total=True)
        assert "mit_total_lmse" in report
        assert "approximation" in report["mit_total_lmse_note"]

    def test_mit_total_is_the_mean_over_scored_samples(self):
        """The failing sample has a total of its own (only DSSIM rejects its
        mask, valid within half a window of the border), which the mean
        leaves out."""
        good = [self._record(11), self._record(12)]
        sid, (at, st, ap, sp, mask) = self._record(13)
        mask[..., 5:-5, 5:-5] = 0.0
        mit_total_lmse(lmse_window_sums(at, ap, mask), lmse_window_sums(st, sp, mask))
        bad = sid, (at, st, ap, sp, mask)
        report = report_of(dict([good[0], bad, good[1]]), include_mit_total=True)
        [err] = report["errors"]
        assert err["id"] == "r13" and "valid centre" in err["error"]
        want = [mit_total_lmse(lmse_window_sums(at, ap, mask),
                               lmse_window_sums(st, sp, mask))
                for _, (at, st, ap, sp, mask) in good]
        assert report["mit_total_lmse"] == float(np.mean(want))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            evaluate_report([], None)
