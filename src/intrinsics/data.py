"""Dataset handling: manifests, sample loading, shading generation from
image/reflectance pairs, image resynthesis, and paired augmentation.

A Sample carries image, albedo, and shading as (1,3,H,W) maps plus a
(1,1,H,W) validity mask (nonzero = contributes to losses and metrics).
Each map's linear intensity is ``png_io.as_float`` of it, which reads the
scale off the dtype.  A loaded sample keeps the uint8 or uint16 integers
its PNG decodes to, and a bool mask: a 16-bit RGB 436x1024 frame holds
8.5 MB, where float64 maps take 35.7 MB.  A grayscale map is held once,
as a read-only view of three equal channels.  ``augment`` divides only the
pixels it returns.  Manifests are tab-separated text, one record per line:

    id <TAB> image.png <TAB> albedo.png <TAB> shading.png [<TAB> mask.png] <TAB> scene

with ``#`` comment lines allowed.  Paths are resolved relative to the
manifest file's directory.

Constants: the split rules ``SPLIT_MODES``; ``MIT_SHADING_EPS``, the albedo
floor of ``generate_mit_shading``; and the ranges ``augment`` draws from
with rotate/zoom on, ``ZOOM_RANGE`` (0.8-1.2) and ``ROTATE_RANGE_DEG`` (±15).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .metrics import fit_alpha
from .png_io import as_float, read_png
from .rng import Rng, derive_seed

SPLIT_MODES = ("image-split", "scene-split", "object-split")
MIT_SHADING_EPS = 1e-4
ZOOM_RANGE = (0.8, 1.2)
ROTATE_RANGE_DEG = (-15.0, 15.0)


@dataclass
class Sample:
    id: str
    image: np.ndarray
    albedo: np.ndarray
    shading: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        for name in ("image", "albedo", "shading"):
            t = getattr(self, name)
            if t.ndim != 4 or t.shape[0] != 1 or t.shape[1] != 3:
                raise ValueError(f"sample {self.id}: {name} must be (1,3,H,W), "
                                 f"got {t.shape}")
            if t.shape[2:] != self.image.shape[2:]:
                raise ValueError(f"sample {self.id}: {name} extents {t.shape[2:]} "
                                 f"differ from image {self.image.shape[2:]}")
            # unsigned integers are finite and nonnegative without a scan
            if t.dtype.kind != "u" and (not np.all(np.isfinite(t)) or t.min() < 0):
                raise ValueError(f"sample {self.id}: {name} has non-finite or "
                                 "negative values")
        if self.mask.shape != (1, 1, *self.image.shape[2:]):
            raise ValueError(f"sample {self.id}: mask shape {self.mask.shape} "
                             f"incompatible with image {self.image.shape}")


@dataclass
class ManifestEntry:
    id: str
    image_path: str
    albedo_path: str
    shading_path: str
    mask_path: str | None
    scene: str


@dataclass
class Manifest:
    entries: list[ManifestEntry]
    base_dir: str = "."

    def scenes(self) -> set[str]:
        return {e.scene for e in self.entries}


def parse_manifest(path) -> Manifest:
    entries = []
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as f:
        try:
            lines = list(f)
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) == 5:
                sid, img, alb, shd, scene = fields
                mask = None
            elif len(fields) == 6:
                sid, img, alb, shd, mask, scene = fields
            else:
                raise ValueError(f"{path}:{lineno}: expected 5 or 6 tab-separated "
                                 f"fields, got {len(fields)}")
            if first_line.setdefault(sid, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: duplicate id {sid!r} "
                                 f"(first on line {first_line[sid]})")
            entries.append(ManifestEntry(sid, img, alb, shd, mask, scene))
    return Manifest(entries, base_dir=os.path.dirname(os.path.abspath(path)))


def ensure_disjoint_split(train: Manifest, test: Manifest, mode: str) -> None:
    """Reject manifests that share an image id, scene or object under ``mode``."""
    if mode == "image-split":
        shared = {e.id for e in train.entries} & {e.id for e in test.entries}
        kind = "image id"
    else:
        shared = train.scenes() & test.scenes()
        kind = "scene" if mode == "scene-split" else "object"
    if shared:
        raise ValueError(f"{mode}: {kind} {sorted(shared)[0]!r} appears "
                         "in both train and test splits")


def to_nchw(arr: np.ndarray) -> np.ndarray:
    """(H,W) or (H,W,3) image -> (1,3,H,W), keeping its dtype.  A grayscale
    map stays one channel: a read-only view that repeats it three times."""
    if arr.ndim == 2:
        return np.broadcast_to(arr, (1, 3, *arr.shape))
    return np.ascontiguousarray(arr.transpose(2, 0, 1)[None])


def read_entry_png(entry: ManifestEntry, base_dir: str, path: str) -> np.ndarray:
    """One of ``entry``'s PNGs as its decoded integers, (H,W) or (H,W,3); a
    file that cannot be opened names the sample."""
    full = os.path.join(base_dir, path)
    try:
        return read_png(full, integers=True)
    except OSError as e:
        raise ValueError(f"sample {entry.id}: cannot read {full}: {e}") from e


def read_entry_map(entry: ManifestEntry, base_dir: str, path: str) -> np.ndarray:
    """One of ``entry``'s maps as (1,3,H,W) integers."""
    return to_nchw(read_entry_png(entry, base_dir, path))


def load_mask(entry: ManifestEntry, base_dir: str, extents: tuple) -> np.ndarray:
    """(1,1,H,W) bool validity mask of one entry whose maps are ``extents``:
    the pixels nonzero in any channel of its mask file, or all True without
    one."""
    if entry.mask_path is None:
        return np.ones((1, 1, *extents), dtype=bool)
    m = np.atleast_3d(read_entry_png(entry, base_dir, entry.mask_path)).max(axis=2)
    if m.shape != extents:
        raise ValueError(f"sample {entry.id}: mask extents {m.shape} "
                         f"differ from albedo {extents}")
    return (m > 0)[None, None]


def load_targets(entry: ManifestEntry, base_dir: str):
    """(albedo, shading, mask) of one entry, without decoding its image; each
    map as (1,3,H,W) integers."""
    albedo = read_entry_map(entry, base_dir, entry.albedo_path)
    shading = read_entry_map(entry, base_dir, entry.shading_path)
    extents = albedo.shape[2:]
    if shading.shape[2:] != extents:
        raise ValueError(f"sample {entry.id}: shading extents {shading.shape[2:]} "
                         f"differ from albedo {extents}")
    return albedo, shading, load_mask(entry, base_dir, extents)


def load_sample(entry: ManifestEntry, base_dir: str) -> Sample:
    """One entry as its decoded integers and a bool mask."""
    image = read_entry_map(entry, base_dir, entry.image_path)
    return Sample(entry.id, image, *load_targets(entry, base_dir))


def load_dataset(manifest: Manifest) -> list[Sample]:
    return [load_sample(e, manifest.base_dir) for e in manifest.entries]


# -- synthesis -------------------------------------------------------------

def generate_mit_shading(image: np.ndarray, albedo: np.ndarray):
    """Derive a shading map from an image and its reflectance.

    With I' and A' the per-pixel channel means, S0 = I'/max(A', eps) and the
    returned shading is S0/alpha where alpha minimizes sum((I - alpha*A*S0)^2).
    Returns (shading (1,1,H,W), alpha, valid) where valid flags pixels whose
    divisor did not need the eps (MIT_SHADING_EPS) guard.
    """
    if image.shape != albedo.shape:
        raise ValueError(f"generate_mit_shading: extents differ "
                         f"{image.shape} vs {albedo.shape}")
    i_mean = image.mean(axis=1, keepdims=True)
    a_mean = albedo.mean(axis=1, keepdims=True)
    s0 = i_mean / np.maximum(a_mean, MIT_SHADING_EPS)
    alpha = fit_alpha(image, albedo * s0)
    if alpha == 0.0:
        raise ValueError("generate_mit_shading: brightness scale is zero")
    shading = s0 / alpha
    valid = (a_mean >= MIT_SHADING_EPS).astype(np.float64)
    return shading, alpha, valid


def resynthesize(albedo: np.ndarray, shading: np.ndarray) -> np.ndarray:
    """Pointwise product I = A*S, so the triple satisfies the intrinsic model
    exactly.  A single-channel shading broadcasts across the three channels."""
    if shading.shape[2:] != albedo.shape[2:]:
        raise ValueError(f"resynthesize: extents differ "
                         f"{albedo.shape[2:]} vs {shading.shape[2:]}")
    return albedo * shading


def make_synthetic_sample(seed: int, h: int = 64, w: int = 64,
                          sid: str | None = None) -> Sample:
    """Synthetic training/evaluation fixture: random piecewise-constant
    albedo times a slowly varying grayscale shading, with the image
    resynthesized as their exact pointwise product.

    Albedo values stay in [0.3, 0.7] and the shading gradient is a few
    thousandths per pixel, so bilinear resampling of the triple preserves
    I = A*S to well under 1e-3.
    """
    rng = Rng(derive_seed(seed, "synthetic-sample"))
    albedo = np.ones((1, 3, h, w)) * (0.3 + 0.4 * rng.uniform((1, 3, 1, 1)))
    for _ in range(6):
        r0 = rng.integers(0, max(0, h - 8))
        c0 = rng.integers(0, max(0, w - 8))
        r1 = min(h, r0 + 4 + rng.integers(0, max(1, h // 2)))
        c1 = min(w, c0 + 4 + rng.integers(0, max(1, w // 2)))
        albedo[0, :, r0:r1, c0:c1] = (0.3 + 0.4 * rng.uniform((3,)))[:, None, None]
    yy, xx = np.meshgrid(np.arange(h) / max(h, w), np.arange(w) / max(h, w),
                         indexing="ij")
    fy = 0.1 + 0.1 * rng.uniform()
    fx = 0.1 + 0.1 * rng.uniform()
    phase = 2.0 * np.pi * rng.uniform()
    s = 0.5 + 0.25 * np.cos(2.0 * np.pi * (fy * yy + fx * xx) + phase)
    shading = np.broadcast_to(s, (1, 3, h, w)).copy()
    image = resynthesize(albedo, shading)
    return Sample(sid or f"synthetic-{seed}", image, albedo, shading,
                  np.ones((1, 1, h, w)))


# -- augmentation ----------------------------------------------------------

@dataclass
class AugmentConfig:
    crop_h: int = 416
    crop_w: int = 416
    mirror_prob: float = 0.5
    enable_rotate_zoom: bool = False

    def __post_init__(self):
        if self.crop_h < 1 or self.crop_w < 1:
            raise ValueError("AugmentConfig: crop extents must be >= 1")
        if not 0.0 <= self.mirror_prob <= 1.0:
            raise ValueError("AugmentConfig: mirror_prob outside [0, 1]")

    def fit_crop(self, sample_id: str, extents: tuple, zoom: float) -> tuple[int, int]:
        """The extents (h, w) of an image resized by ``zoom``, as ``augment``
        rounds them; rejects extents that the crop does not fit."""
        h, w = (max(1, int(round(zoom * n))) for n in extents)
        if h < self.crop_h or w < self.crop_w:
            raise ValueError(f"sample {sample_id}: crop {self.crop_h}x{self.crop_w} "
                             f"impossible from post-zoom extents {h}x{w}")
        return h, w

    def check_fits(self, sample: Sample) -> None:
        """Reject a sample that the crop does not fit even at the largest zoom
        ``augment`` can draw (1 without rotate/zoom)."""
        self.fit_crop(sample.id, sample.image.shape[2:],
                      ZOOM_RANGE[1] if self.enable_rotate_zoom else 1.0)


def _bilinear_gather(img: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """Sample ``as_float`` of (1,C,H,W) at real coordinates, dividing each
    tap before it is weighted; callers handle out-of-bounds."""
    h, w = img.shape[2:]
    syc = np.clip(sy, 0.0, h - 1.0)
    sxc = np.clip(sx, 0.0, w - 1.0)
    i0 = np.floor(syc).astype(np.intp)
    j0 = np.floor(sxc).astype(np.intp)
    i1 = np.minimum(i0 + 1, h - 1)
    j1 = np.minimum(j0 + 1, w - 1)
    ty = syc - i0
    tx = sxc - j0
    p = img[0]  # (C,H,W)

    def tap(i, j):
        return as_float(p[:, i, j])
    top = tap(i0, j0) * (1 - tx) + tap(i0, j1) * tx
    bot = tap(i1, j0) * (1 - tx) + tap(i1, j1) * tx
    return (top * (1 - ty) + bot * ty)[None]


def augment(sample: Sample, cfg: AugmentConfig, rng: Rng) -> Sample:
    """One random geometric transform applied identically to all maps.

    Pipeline order: zoom -> rotate -> crop -> mirror.  Draw order: zoom
    factor and angle (only when rotate/zoom is enabled), crop row offset,
    crop column offset, mirror flip (only when mirror_prob > 0).  The three
    images sample bilinearly, the mask by nearest neighbor; output pixels
    whose source coordinate falls outside the image are marked invalid.
    Without rotate/zoom every source coordinate is an integer, where the
    bilinear weights are exactly 0 and 1, so the crop is a slice.  Each map
    goes through ``as_float`` as it is read: the crop's slice, or each tap
    of the gather; the mask is cast, not scaled.  Every returned map is a
    fresh float64 array.
    """
    h, w = sample.image.shape[2:]
    if cfg.enable_rotate_zoom:
        (z0, z1), (r0, r1) = ZOOM_RANGE, ROTATE_RANGE_DEG
        zoom = z0 + rng.uniform() * (z1 - z0)
        angle = math.radians(r0 + rng.uniform() * (r1 - r0))
    else:
        zoom, angle = 1.0, 0.0
    zh, zw = cfg.fit_crop(sample.id, (h, w), zoom)
    off_r = rng.integers(0, zh - cfg.crop_h)
    off_c = rng.integers(0, zw - cfg.crop_w)
    flip = cfg.mirror_prob > 0 and rng.uniform() < cfg.mirror_prob
    if not cfg.enable_rotate_zoom:
        def crop(t):
            t = t[:, :, off_r:off_r + cfg.crop_h, off_c:off_c + cfg.crop_w]
            return t[..., ::-1] if flip else t
        return Sample(sample.id, *(as_float(crop(t)) for t in
                                   (sample.image, sample.albedo, sample.shading)),
                      crop(sample.mask).astype(np.float64, order="C"))

    rr, cc = np.meshgrid(np.arange(cfg.crop_h, dtype=np.float64),
                         np.arange(cfg.crop_w, dtype=np.float64), indexing="ij")
    if flip:
        cc = (cfg.crop_w - 1) - cc
    rr = rr + off_r
    cc = cc + off_c
    # invert the rotation about the zoomed canvas center
    cy, cx = (zh - 1) / 2.0, (zw - 1) / 2.0
    dy, dx = rr - cy, cc - cx
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    zy = cy + dy * cos_t + dx * sin_t
    zx = cx - dy * sin_t + dx * cos_t
    # invert the zoom resize (pixel-center convention)
    sy = (zy + 0.5) * (h / zh) - 0.5
    sx = (zx + 0.5) * (w / zw) - 0.5

    inside = (sy >= 0.0) & (sy <= h - 1.0) & (sx >= 0.0) & (sx <= w - 1.0)
    image, albedo, shading = (_bilinear_gather(t, sy, sx) for t in
                              (sample.image, sample.albedo, sample.shading))
    iy = np.clip(np.rint(sy).astype(np.intp), 0, h - 1)
    jx = np.clip(np.rint(sx).astype(np.intp), 0, w - 1)
    mask = sample.mask[0, 0, iy, jx] * inside
    zero = ~inside
    for t in (image, albedo, shading):
        t[0, :, zero] = 0.0
    return Sample(sample.id, image, albedo, shading, mask[None, None].astype(np.float64))
