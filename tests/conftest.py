"""Shared helpers: miniature on-disk datasets and config files."""

from intrinsics.data import make_synthetic_sample
from intrinsics.png_io import write_png
from intrinsics.rng import Rng


def write_dataset(dirpath, n=3, h=32, w=32, scenes=None, seed0=0):
    """Write n synthetic samples as 16-bit PNG triples plus a manifest."""
    dirpath.mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(n):
        s = make_synthetic_sample(seed0 + i, h=h, w=w)
        sid = f"s{i}"
        write_png(dirpath / f"{sid}_i.png", s.image[0].transpose(1, 2, 0), 16)
        write_png(dirpath / f"{sid}_a.png", s.albedo[0].transpose(1, 2, 0), 16)
        write_png(dirpath / f"{sid}_s.png", s.shading[0].transpose(1, 2, 0), 16)
        scene = scenes[i] if scenes else f"scene{i}"
        lines.append("\t".join([sid, f"{sid}_i.png", f"{sid}_a.png",
                                f"{sid}_s.png", scene]))
    mpath = dirpath / "manifest.tsv"
    mpath.write_text("\n".join(lines) + "\n")
    return mpath


def write_png_dataset(d):
    """Four 40x44 samples as PNGs in ``d`` plus a manifest: 16-bit maps for
    even ids, 8-bit for odd; s1 and s2 have partly valid mask files at
    their maps' bit depth, and s3 a grayscale shading."""
    lines = []
    for i in range(4):
        s = make_synthetic_sample(30 + i, h=40, w=44)
        depth = 8 if i % 2 else 16
        names = []
        for k, t in (("i", s.image), ("a", s.albedo), ("s", s.shading)):
            names.append(f"s{i}_{k}.png")
            hwc = t[0].transpose(1, 2, 0)
            write_png(d / names[-1], hwc[:, :, 0] if k == "s" and i == 3 else hwc, depth)
        if i in (1, 2):
            names.append(f"s{i}_m.png")
            write_png(d / names[-1], (Rng(6 + i).uniform((40, 44)) > 0.3).astype(float),
                      depth)
        lines.append("\t".join([f"s{i}", *names, f"scene{i}"]))
    (d / "m.tsv").write_text("\n".join(lines) + "\n")
    return d / "m.tsv"


def write_config(path, manifest, out_dir, *, channel_scale=1 / 16, crop=32,
                 base_lr=0.005, max_iterations=3, seed=1, dropout=0.0,
                 batch_size=2, checkpoint_every=0, use_deconv_head=True,
                 extra=""):
    path.write_text(f"""
[network]
channel_scale = {channel_scale}
use_deconv_head = {str(use_deconv_head).lower()}
dropout_prob = {dropout}

[loss]
lambda = 0.5
use_gradient_loss = false

[augment]
crop_h = {crop}
crop_w = {crop}
mirror_prob = 0.0
enable_rotate_zoom = false

[train]
base_lr = {base_lr}
momentum = 0.9
batch_size = {batch_size}
max_iterations = {max_iterations}
seed = {seed}
checkpoint_every = {checkpoint_every}

[data]
train_manifest = {manifest}

[output]
out_dir = {out_dir}
{extra}
""")
    return path
