"""Train a desk-scale network to overfit four synthetic samples.

This is the end-to-end sanity loop: synthesize data, minimize the joint
scale-invariant loss with SGD momentum, then measure si-MSE of the
decompositions against ground truth.  Takes roughly half a minute.
"""

import numpy as np

from intrinsics import (AugmentConfig, LossConfig, NetworkConfig, Rng,
                        TrainConfig, build_network, decompose_image,
                        derive_seed, make_synthetic_sample, si_mse,
                        train_loop)

samples = [make_synthetic_sample(i, h=64, w=64) for i in range(4)]
print(f"fixture: {len(samples)} synthetic 64x64 samples "
      "(piecewise-constant albedo x smooth shading)")

network_cfg = NetworkConfig(channel_scale=1 / 16, dropout_prob=0.0,
                            use_deconv_head=False)
net = build_network(network_cfg, Rng(derive_seed(0, "init")))
cfg = TrainConfig(
    base_lr=0.05, momentum=0.9, batch_size=4, max_iterations=400, seed=0,
    loss=LossConfig(lam=0.5),
    augment=AugmentConfig(crop_h=64, crop_w=64, mirror_prob=0.0,
                          enable_rotate_zoom=False))

print(f"network: channel_scale 1/16, bilinear head, "
      f"{sum(p.value.size for p in net.params.values()):,} parameters")
print(f"training: lr={cfg.base_lr}, momentum={cfg.momentum}, "
      f"batch={cfg.batch_size}, {cfg.max_iterations} iterations\n")

_, trace = train_loop(net, samples, cfg)
for it, loss in trace:
    if it % 50 == 0 or it == len(trace) - 1:
        print(f"  iter {it:4d}  loss {loss:.5f}")

losses = [v for _, v in trace]
print(f"\nloss fell to {losses[-1] / losses[0]:.1%} of its initial value")

print("\nsi-MSE of the trained decompositions (lower is better):")
for s in samples:
    albedo, shading = decompose_image(net, s.image)
    ma = si_mse(s.albedo, albedo.astype(np.float64), s.mask)
    ms = si_mse(s.shading, shading.astype(np.float64), s.mask)
    print(f"  {s.id}: albedo {ma:.5f}  shading {ms:.5f}")
