"""Input generator for the benchmark, keyed by the workload seed.

Everything the program later reads is written here, before the timed
process starts: synthetic samples and frames from ``make_synthetic_sample``
stored as 8-bit RGB PNGs, manifests, run configs and (for ``test-set``) a
full-topology checkpoint.

The PNG encoder is the benchmark's own.  Like libpng's default heuristic it
picks, per row, the filter whose output has the smallest sum of absolute
values (bytes read as signed), so files mix filter types 0-4 the way
external encoders write them.  Every file is round-tripped bit-exactly
through the program's ``read_png`` before it is used, and the exact number
of rows per filter type is recorded.

Input images carry seeded Gaussian noise of one 8-bit code value, as camera
images do, so their rows pick Average.  The albedo and shading ground truth
stay noise-free: albedo rows pick Up, and a shading map picks either Paeth
or Up on nearly every row, depending on the orientation of its shading
wave.  Left to the seed, that would move the decode cost of a run by a
second per map, so even-numbered samples are drawn until their shading is
Paeth-dominant and odd-numbered ones until it is not: every run decodes
the same mix, and every run exercises the Paeth path.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from intrinsics.data import make_synthetic_sample
from intrinsics.network import NetworkConfig, build_network
from intrinsics.png_io import read_png
from intrinsics.rng import Rng, derive_seed
from intrinsics.trainer import Checkpoint, save_checkpoint

N_FILTERS = 5

# train-full: the README default config with only batch size and iteration
# count changed.
TRAIN_FULL_SIDE = 448
TRAIN_FULL_SAMPLES = 2
TRAIN_FULL_ITERATIONS = 2
TRAIN_FULL_BATCH = 2
# train-tiny: the overfit-gate fixture of the acceptance suite.
TRAIN_TINY_SIDE = 64
TRAIN_TINY_SAMPLES = 4
TRAIN_TINY_ITERATIONS = 100
TRAIN_TINY_BATCH = 4
# test-set: Sintel-sized frames, plus a small warm-up frame and a small
# known-answer sample for the eval check.
FRAME_H, FRAME_W = 436, 1024
TEST_FRAMES = 2
WARMUP_H, WARMUP_W = 96, 128
KNOWN_SIDE = 64
IMAGE_NOISE = 1.0 / 255.0
MAX_DRAWS = 32


def _filter_rows(raw: np.ndarray, bpp: int) -> np.ndarray:
    """All five PNG filters of every row: (5, H, stride) uint8."""
    x = raw.astype(np.int16)
    left = np.zeros_like(x)
    left[:, bpp:] = x[:, :-bpp]
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    upleft = np.zeros_like(x)
    upleft[1:, bpp:] = x[:-1, :-bpp]
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    out = np.stack([x, x - left, x - up, x - (left + up) // 2, x - paeth])
    return (out & 0xFF).astype(np.uint8)


def encode_png(pixels: np.ndarray) -> tuple[bytes, list[int]]:
    """8-bit RGB (H, W, 3) uint8 -> (PNG bytes, rows per filter type)."""
    h, w, c = pixels.shape
    raw = np.ascontiguousarray(pixels, dtype=np.uint8).reshape(h, w * c)
    filtered = _filter_rows(raw, bpp=c)
    cost = np.abs(filtered.view(np.int8).astype(np.int64)).sum(axis=2)  # (5, H)
    choice = cost.argmin(axis=0)  # ties go to the lower filter type
    rows = filtered[choice, np.arange(h)]
    scanlines = np.concatenate([choice.astype(np.uint8)[:, None], rows], axis=1)

    def chunk(kind: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + kind + data
                + struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    blob = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 6))
            + chunk(b"IEND", b""))
    return blob, np.bincount(choice, minlength=N_FILTERS).tolist()


def _quantize(image_nchw: np.ndarray) -> np.ndarray:
    """(1,3,H,W) map in [0,1] -> (H,W,3) 8-bit pixels."""
    pixels = np.rint(np.clip(image_nchw[0].transpose(1, 2, 0), 0.0, 1.0) * 255)
    return pixels.astype(np.uint8)


def write_checked_png(path: str, image_nchw: np.ndarray, filter_rows: dict) -> None:
    """Quantize a (1,3,H,W) [0,1] map to 8 bits, encode, write, and check
    that the program's reader returns exactly the quantized pixels."""
    pixels = _quantize(image_nchw)
    blob, counts = encode_png(pixels)
    with open(path, "wb") as f:
        f.write(blob)
    back = read_png(path)
    if back.shape != pixels.shape or not np.array_equal(
            np.rint(back * 255).astype(np.uint8), pixels) or not np.array_equal(
            back, pixels / 255.0):
        raise RuntimeError(f"generator: {path} does not round-trip through read_png")
    filter_rows[os.path.basename(path)] = counts


def _noisy(image: np.ndarray, seed: int) -> np.ndarray:
    return image + IMAGE_NOISE * Rng(seed).normal(image.shape)


def _write_samples(dirpath: str, seed: int, n: int, h: int, w: int,
                   prefix: str, filter_rows: dict) -> str:
    """n synthetic samples as PNG triples plus a manifest; returns its path."""
    os.makedirs(dirpath, exist_ok=True)
    lines = []
    for i in range(n):
        sid = f"{prefix}{i}"
        for draw in range(MAX_DRAWS):
            s = make_synthetic_sample(derive_seed(seed, prefix, i, draw), h=h, w=w, sid=sid)
            paeth = encode_png(_quantize(s.shading))[1][4] * 2 > h
            if paeth == (i % 2 == 0):
                break
        names = [f"{sid}_image.png", f"{sid}_albedo.png", f"{sid}_shading.png"]
        image = _noisy(s.image, derive_seed(seed, prefix, i, "noise"))
        for name, t in zip(names, (image, s.albedo, s.shading)):
            write_checked_png(os.path.join(dirpath, name), t, filter_rows)
        lines.append("\t".join([sid, *names, f"scene-{sid}"]))
    path = os.path.join(dirpath, "manifest.tsv")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def _train_config(path: str, manifest: str, out_dir: str, seed: int, *,
                  channel_scale, use_deconv_head, dropout, use_gradient_loss,
                  crop, mirror, base_lr, batch_size, iterations,
                  lr_multipliers: str) -> None:
    with open(path, "w") as f:
        f.write(f"""[network]
channel_scale = {channel_scale}
use_hypercolumn = false
use_deconv_head = {str(use_deconv_head).lower()}
dropout_prob = {dropout}
input_multiple = 32

[loss]
lambda = 0.5
use_gradient_loss = {str(use_gradient_loss).lower()}
log_epsilon = 1e-4

[augment]
crop_h = {crop}
crop_w = {crop}
mirror_prob = {mirror}
enable_rotate_zoom = false

[train]
base_lr = {base_lr}
momentum = 0.9
batch_size = {batch_size}
max_iterations = {iterations}
seed = {seed}
checkpoint_every = 0
{lr_multipliers}
[data]
train_manifest = {manifest}

[output]
out_dir = {out_dir}
""")


def generate(workload: str, seed: int, work: str) -> dict:
    """Write the inputs of one workload under ``work``; returns the plan the
    timed process and the output checks read."""
    filter_rows: dict[str, list[int]] = {}
    data = os.path.join(work, "data")
    plan = {"workload": workload, "seed": seed, "work": work}
    if workload in ("train-full", "train-tiny"):
        full = workload == "train-full"
        side = TRAIN_FULL_SIDE if full else TRAIN_TINY_SIDE
        manifest = _write_samples(
            data, seed, TRAIN_FULL_SAMPLES if full else TRAIN_TINY_SAMPLES,
            side, side, "t", filter_rows)
        config = os.path.join(work, "train.cfg")
        train_seed = derive_seed(seed, "train") & 0x7FFFFFFF
        if full:
            _train_config(config, manifest, os.path.join(work, "out"), train_seed,
                          channel_scale=1.0, use_deconv_head=True, dropout=0.5,
                          use_gradient_loss=True, crop=416, mirror=0.5,
                          base_lr=0.01, batch_size=TRAIN_FULL_BATCH,
                          iterations=TRAIN_FULL_ITERATIONS,
                          lr_multipliers="\n[lr_multipliers]\ns1.conv1 = 0.1\n")
        else:
            # the gate's lr 0.05 diverges within 100 iterations on about four
            # seeds in ten of these inputs, 0.01 on about one in twenty
            _train_config(config, manifest, os.path.join(work, "out"), train_seed,
                          channel_scale=0.0625, use_deconv_head=False, dropout=0.0,
                          use_gradient_loss=False, crop=side, mirror=0.0,
                          base_lr=0.002, batch_size=TRAIN_TINY_BATCH,
                          iterations=TRAIN_TINY_ITERATIONS, lr_multipliers="")
        plan.update(config=config,
                    batch=TRAIN_FULL_BATCH if full else TRAIN_TINY_BATCH,
                    iterations=TRAIN_FULL_ITERATIONS if full else TRAIN_TINY_ITERATIONS)
    elif workload == "test-set":
        manifest = _write_samples(data, seed, TEST_FRAMES, FRAME_H, FRAME_W,
                                  "f", filter_rows)
        warm = make_synthetic_sample(derive_seed(seed, "warmup"), h=WARMUP_H,
                                     w=WARMUP_W)
        warm_path = os.path.join(data, "warmup.png")
        write_checked_png(warm_path, _noisy(warm.image, derive_seed(seed, "warmup-noise")),
                          filter_rows)
        known = _write_samples(os.path.join(work, "known"), seed, 1, KNOWN_SIDE,
                               KNOWN_SIDE, "k", filter_rows)
        net = build_network(NetworkConfig(), Rng(derive_seed(seed, "checkpoint")))
        checkpoint = os.path.join(work, "full.ckpt")
        save_checkpoint(Checkpoint.from_network(net, 0, (seed, 0, 0, 0), bytes(32)),
                        checkpoint)
        plan.update(manifest=manifest, checkpoint=checkpoint, warmup=warm_path,
                    known_manifest=known,
                    frames=[{"id": f"f{i}", "input": os.path.join(data, f"f{i}_image.png")}
                            for i in range(TEST_FRAMES)],
                    frame_extents=[FRAME_H, FRAME_W], warmup_extents=[WARMUP_H, WARMUP_W])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan["filter_rows"] = filter_rows
    return plan
