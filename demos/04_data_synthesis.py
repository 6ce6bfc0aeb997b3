"""Dataset machinery: shading generation, resynthesis, augmentation.

Two synthesis procedures feed training:
  * shading generation: given an image and its reflectance, derive the
    missing shading map from per-pixel channel means with a global
    least-squares brightness fit;
  * resynthesis: rebuild the image as the exact pointwise product A*S so
    the dataset satisfies the intrinsic model exactly.
"""

import os
import tempfile

import numpy as np

from intrinsics import (AugmentConfig, Rng, augment, generate_mit_shading,
                        make_synthetic_sample, read_png, resynthesize,
                        write_png)

rng = Rng(0)

print("== shading generation from an (image, reflectance) pair ==")
albedo = 0.2 + 0.7 * rng.uniform((1, 3, 16, 16))
true_shading = 0.2 + 0.7 * rng.uniform((1, 1, 16, 16))
image = albedo * true_shading
shading, alpha, valid = generate_mit_shading(image, albedo)
print(f"recovered shading error: {np.max(np.abs(shading - true_shading)):.2e}")
print(f"brightness fit alpha: {alpha:.8f} (1.0 on exact factorizations)")

print("\n== dark-reflectance pixels are guarded and masked ==")
albedo_holed = albedo.copy()
albedo_holed[0, :, 5, 5] = 0.0
_, _, valid = generate_mit_shading(image, albedo_holed)
print(f"valid fraction: {valid.mean():.4f} (pixel (5,5) excluded)")

print("\n== resynthesis makes I = A*S exact ==")
sample = make_synthetic_sample(0, h=32, w=32)
resynth = resynthesize(sample.albedo, sample.shading)
print(f"max |I - A*S| in memory: {np.max(np.abs(resynth - sample.albedo * sample.shading)):.2e}")
with tempfile.TemporaryDirectory() as d:
    for name, arr in (("i", resynth), ("a", sample.albedo), ("s", sample.shading)):
        write_png(os.path.join(d, f"{name}.png"), arr[0].transpose(1, 2, 0), 16)
    i2 = read_png(os.path.join(d, "i.png")).transpose(2, 0, 1)[None]
    a2 = read_png(os.path.join(d, "a.png")).transpose(2, 0, 1)[None]
    s2 = read_png(os.path.join(d, "s.png")).transpose(2, 0, 1)[None]
    print(f"after a 16-bit PNG round trip: {np.max(np.abs(i2 - a2 * s2)):.2e} "
          f"(quantization bound {2/65535:.2e})")

print("\n== one augmentation draw transforms all maps identically ==")
cfg = AugmentConfig(crop_h=24, crop_w=24, mirror_prob=0.5,
                    enable_rotate_zoom=True)
for seed in range(3):
    out = augment(sample, cfg, Rng(seed))
    gap = (np.abs(out.image - out.albedo * out.shading) * out.mask).max()
    print(f"  seed {seed}: valid fraction {out.mask.mean():.3f}, "
          f"I=A*S gap at valid pixels {gap:.2e}")
print("rotation marks out-of-source corners invalid; the identity survives "
      "bilinear resampling at valid pixels")
