"""Build the two-scale network and push an image through it.

Shows the fully convolutional contract (any extents), the
two heads predicting log-albedo and log-shading simultaneously, the
topology registry, and the four architecture variants.
"""

import numpy as np

from intrinsics import NetworkConfig, Rng, build_network, make_synthetic_sample

print("== full-scale topology (channel_scale = 1) ==")
net = build_network(NetworkConfig(channel_scale=1.0, use_deconv_head=True), Rng(0))
total = 0
for name, p in net.params.items():
    total += p.value.size
    if name.endswith(".weight"):
        print(f"  {name:24s} {str(p.value.shape):20s}")
print(f"total parameters: {total:,}")

print("\n== a desk-scale instance runs in milliseconds ==")
tiny = build_network(NetworkConfig(channel_scale=1 / 16), Rng(1), dtype=np.float32)
sample = make_synthetic_sample(0, h=64, w=96)
log_albedo, log_shading = tiny.forward(sample.image)
print(f"input {sample.image.shape} -> albedo head {log_albedo.shape}, "
      f"shading head {log_shading.shape}")
print("outputs are log-domain; exponentiate for linear intensities")
albedo = np.exp(log_albedo)
print(f"linear albedo range: [{albedo.min():.3f}, {albedo.max():.3f}]")

print("\n== the contract holds for any extents (forward pads to 32s itself) ==")
for h, w in ((32, 32), (96, 160), (70, 65), (1, 33)):
    la, _ = tiny.forward(Rng(2).uniform((1, 3, h, w)))
    print(f"  {h:3d}x{w:<3d} -> {la.shape[2]}x{la.shape[3]}")

print("\n== four variants share the scale-2 trunk ==")
for hc in (False, True):
    for deconv in (False, True):
        cfg = NetworkConfig(channel_scale=1 / 16, use_hypercolumn=hc,
                            use_deconv_head=deconv)
        v = build_network(cfg, Rng(3))
        conv6_in = v.params["s1.conv6.weight"].value.shape[1]
        head = "deconv" if deconv else "bilinear"
        print(f"  hypercolumn={str(hc):5s} head={head:8s} "
          f"conv6 input width={conv6_in:3d} params={sum(p.value.size for p in v.params.values()):,}")

print("\n== a dropout rng makes training forwards stochastic, eval stays fixed ==")
a1, _ = tiny.forward(sample.image)
a2, _ = tiny.forward(sample.image)
print(f"eval twice, identical: {np.array_equal(a1, a2)}")
hc_net = build_network(NetworkConfig(channel_scale=1 / 16, dropout_prob=0.5),
                       Rng(4), dtype=np.float32)
# a training forward also returns its tape, the caller's to hand to one
# Network.backward; the network itself keeps no per-call state
t1, _, _ = hc_net.forward(sample.image, rng=Rng(10))
t2, _, _ = hc_net.forward(sample.image, rng=Rng(11))
print(f"train with different streams, identical: {np.array_equal(t1, t2)}")
