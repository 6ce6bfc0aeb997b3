"""The evaluation measures: si-MSE, windowed LMSE, DSSIM, and the report.

All three align a single brightness scale to the prediction before
scoring, because ground-truth intensity is only defined up to scale, and
all three score valid pixels only.
LMSE repeats the alignment independently inside overlapping windows sized
10% of the larger image dimension.
"""

import json

import numpy as np

from intrinsics import (Rng, dssim, evaluate_report, lmse, make_synthetic_sample,
                        si_mse)

rng = Rng(0)
sample = make_synthetic_sample(0, h=40, w=40)
mask = sample.mask

print("== si-MSE ignores any global brightness scale ==")
for k in (1.0, 0.5, 2.0):
    v = si_mse(sample.albedo, k * sample.albedo, mask)
    print(f"  prediction = {k} x truth -> si-MSE {v:.2e}")

noisy = np.clip(sample.albedo + 0.05 * rng.normal(sample.albedo.shape), 0, 1)
print(f"  prediction = truth + noise -> si-MSE {si_mse(sample.albedo, noisy, mask):.5f}")

print("\n== LMSE re-fits the scale per window ==")
# a smoothly drifting gain: globally wrong scale, locally almost right
yy = np.linspace(0.8, 1.2, 40).reshape(1, 1, 40, 1)
drifted = sample.albedo * yy
print(f"  drifting gain: si-MSE {si_mse(sample.albedo, drifted, mask):.6f}  "
      f"LMSE {lmse(sample.albedo, drifted, mask):.6f}")
print("per-window alpha absorbs most of the drift, so LMSE comes out lower")

print("\n== DSSIM is a perceptual dissimilarity in [0, 1] ==")
print(f"  identical images: {dssim(sample.albedo, sample.albedo, mask):.4f}")
print(f"  noisy prediction: {dssim(sample.albedo, noisy, mask):.4f}")
print(f"  unrelated image:  "
      f"{dssim(sample.albedo, make_synthetic_sample(5, h=40, w=40).albedo, mask):.4f}")
# like si-MSE and LMSE, DSSIM scores only valid pixels: a prediction that is
# wrong only where the mask is 0 scores 0
left = mask.copy()
left[..., 20:] = 0.0
wrong_right = np.where(left > 0, sample.albedo, noisy)
print(f"  noise on masked pixels only: {dssim(sample.albedo, wrong_right, left):.4f}")

print("\n== the aggregate report ==")
# the report loads each sample by id as it scores it: ground truth,
# prediction and mask
samples = {}
for i in range(3):
    s = make_synthetic_sample(10 + i, h=40, w=40)
    ap = np.clip(s.albedo + 0.03 * rng.normal(s.albedo.shape), 0, 1)
    sp = np.clip(s.shading + 0.03 * rng.normal(s.shading.shape), 0, 1)
    samples[s.id] = (s.albedo, s.shading, ap, sp, s.mask)
report = evaluate_report(samples, samples.get, include_mit_total=True)
print(json.dumps({"mean": report["mean"], "avg": report["avg"],
                  "mit_total_lmse": report["mit_total_lmse"]}, indent=2))
