"""Minimal PNG reader/writer for 8- and 16-bit grayscale and RGB images.

Pixel values map linearly to floats in [0, 1] by dividing by the bit-depth
maximum; no gamma handling.  The writer always emits non-interlaced,
filter-0 scanlines in one IDAT chunk deflated at zlib level 1: on
Sintel-sized 16-bit maps level 6 takes three to five times as long and
saves at most about 5% of the bytes, and the decoded pixels are the same
at any level.  Each file is written from one uint8 scanline buffer: the
image is quantized straight into it through a big-endian ``>u1``/``>u2``
view, and zlib reads the buffer itself.  The reader understands all five
standard filters so it can ingest files produced elsewhere.  Files whose
rows use only None, Sub and Up (everything ``write_png`` writes) are
unfiltered row by row in uint8, whose wraparound is the filters' mod-256
arithmetic: Sub is one prefix sum per row, Up one add.  Average and Paeth
need each byte's left neighbour first, so a file with any such row is
unfiltered as one anti-diagonal wavefront over the whole image:
h + w - 1 numpy steps, rows of every filter type in the same loop.  The
reader checks every chunk's CRC and rejects a malformed IHDR, zero
extents, nonzero compression, filter or interlace methods, and image
data that is not one zlib stream of the size the header gives; it
inflates at most one byte more, so a small file that would inflate to
gigabytes holds none of them.  Palette and alpha images are out of scope
and rejected with a clear message.

``write_atomic`` is the one way the package writes an output file: PNGs,
checkpoints, eval reports, loss traces and synth manifests all go through
it, so no crash leaves a truncated file at an output path.  ``ByteReader``
is the one way the package parses a file, PNG or checkpoint.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_ZLIB_LEVEL = 1  # 436x1024 RGB16: 0.07 s, 1.83/1.68 MB; level 6: 0.34-0.41 s, 1.83/1.66 MB


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over
    ``path``: a crash or a failed write leaves the previous file intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)


class ByteReader:
    """Cursor over a file's bytes: ``take`` returns a view of the next n, and
    a read past the end raises ``ValueError(truncated)``, naming the file."""

    def __init__(self, blob: bytes, truncated: str):
        self.view, self.pos, self.truncated = memoryview(blob), 0, truncated

    def take(self, n: int) -> memoryview:
        if n > len(self.view) - self.pos:
            raise ValueError(self.truncated)
        self.pos += n
        return self.view[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _chunk(kind: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + kind + data
            + struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF))


def write_png(path, image: np.ndarray, bit_depth: int = 16) -> None:
    """Write a float image in [0, 1] as PNG.

    ``image`` is (H, W) for grayscale or (H, W, 3) for RGB; values are
    clipped to [0, 1] and quantized to the requested depth.  NaN has no
    level to clip to, so an image holding one is rejected.
    """
    if bit_depth not in (8, 16):
        raise ValueError(f"write_png: unsupported bit depth {bit_depth}")
    arr = np.asarray(image)
    if arr.ndim < 2 or arr.shape[2:] not in ((), (3,)):
        raise ValueError(f"write_png: expected (H,W) or (H,W,3), got {arr.shape}")
    if np.isnan(arr.min()):  # min propagates NaN and needs no full-size mask
        raise ValueError(f"write_png: {path}: image holds NaN")
    h, w = arr.shape[:2]
    # each row is its filter byte (0, None) and the big-endian samples
    scanlines = np.zeros((h, 1 + arr[0].size * bit_depth // 8), dtype=np.uint8)
    samples = scanlines[:, 1:].view(f">u{bit_depth // 8}").reshape(arr.shape)
    quant = np.clip(arr, 0.0, 1.0, dtype=np.float64)
    quant *= (1 << bit_depth) - 1
    np.rint(quant, out=samples, casting="unsafe")

    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, 2 if arr.ndim == 3 else 0, 0, 0, 0)
    payload = (_SIGNATURE + _chunk(b"IHDR", ihdr)
               + _chunk(b"IDAT", zlib.compress(scanlines, _ZLIB_LEVEL))
               + _chunk(b"IEND", b""))
    write_atomic(path, payload)


def _unfilter(data: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Undo per-scanline PNG filtering; data is h rows of (1 + stride) bytes."""
    rows = data.reshape(h, 1 + stride)
    ftypes = rows[:, 0]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        r = int(bad[0])
        raise ValueError(f"read_png: unknown filter type {ftypes[r]} on row {r}")
    if np.any(ftypes >= 3):
        return _unfilter_wavefront(rows[:, 1:], ftypes, bpp)
    # uint8 wraps around, which is the filters' own mod-256 arithmetic
    out = rows[:, 1:].copy()
    for r, ftype in enumerate(ftypes.tolist()):
        if ftype == 1:  # Sub: a prefix sum per byte lane
            lanes = out[r].reshape(-1, bpp)
            np.cumsum(lanes, axis=0, dtype=np.uint8, out=lanes)
        elif ftype == 2 and r:  # Up; the row above row 0 is zero
            np.add(out[r], out[r - 1], out=out[r])
    return out


def _unfilter_wavefront(lines: np.ndarray, ftypes: np.ndarray, bpp: int) -> np.ndarray:
    """Undo filters of all five types at once, one anti-diagonal per step.

    Pixel (r, j) depends only on its left (r, j-1), up (r-1, j) and up-left
    (r-1, j-1) neighbours, so all pixels with r + j = t are decoded together
    once diagonals t-1 and t-2 are done: h + w - 1 steps in all.  ``skew``
    holds pixel (r, t - r) at [t + 2, r + 1]; its zero rows 0-1 and column 0
    are the virtual row above and column to the left, and a pixel left of
    column 0 is never written, so left, up and up-left are slices of rows
    t + 1 and t.  Every step computes all five predictors and keeps, per
    row, the one its filter type selects (``pick`` is one-hot).
    """
    h, stride = lines.shape
    w = stride // bpp
    x = lines.reshape(h * w, bpp)
    pick = (ftypes == np.arange(5)[:, None]).astype(np.int16)[:, :, None]
    skew = np.zeros((h + w + 1, h + 1, bpp), dtype=np.int16)
    step = max(w - 1, 1)  # pixel (r, t - r) is x[r * (w - 1) + t]
    for t in range(h + w - 1):
        r0, r1 = max(0, t - w + 1), min(h, t + 1)
        a = skew[t + 1, r0 + 1:r1 + 1]
        b = skew[t + 1, r0:r1]
        c = skew[t, r0:r1]
        ab = a + b
        pa, pb, pc = np.abs(b - c), np.abs(a - c), np.abs(ab - c - c)
        paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        k = pick[:, r0:r1]
        pred = k[1] * a + k[2] * b + k[3] * (ab >> 1) + k[4] * paeth
        diag = x[r0 * (w - 1) + t:(r1 - 1) * (w - 1) + t + 1:step]
        skew[t + 2, r0 + 1:r1 + 1] = (diag + pred) & 0xFF
    r, j = np.ogrid[:h, :w]
    return skew[r + j + 2, r + 1].astype(np.uint8).reshape(h, stride)


def read_png(path) -> np.ndarray:
    """Read a PNG into float64 in [0, 1]; (H, W) for grayscale, (H, W, 3) for RGB."""
    with open(path, "rb") as f:
        r = ByteReader(f.read(), f"read_png: {path} is truncated")
    if r.view[:8] != _SIGNATURE:
        raise ValueError(f"read_png: {path} is not a PNG file")
    r.pos = 8
    ihdr, idat = None, []
    while r.pos < len(r.view):
        length, kind = r.unpack(">I4s")
        data = r.take(length)
        (crc,) = r.unpack(">I")
        if crc != zlib.crc32(data, zlib.crc32(kind)):
            raise ValueError(f"read_png: {path}: CRC mismatch in "
                             f"{kind.decode('latin-1')} chunk")
        if kind == b"IHDR":
            if length != 13:
                raise ValueError(f"read_png: {path}: IHDR chunk is {length} bytes, "
                                 "not 13")
            ihdr = struct.unpack(">IIBBBBB", data)
        elif kind == b"IDAT":
            idat.append(data)
        elif kind == b"IEND":
            break
    if ihdr is None or not idat:
        raise ValueError(f"read_png: {path} has no image data")
    w, h, depth, color_type, compression, filter_method, interlace = ihdr
    if w == 0 or h == 0:
        raise ValueError(f"read_png: {path}: zero image extent {w}x{h}")
    for method, value in (("compression", compression), ("filter", filter_method),
                          ("interlace", interlace)):
        if value:
            raise ValueError(f"read_png: {path}: {method} method {value} not supported")
    if color_type not in (0, 2):
        raise ValueError(f"read_png: {path}: color type {color_type} not supported "
                         "(grayscale and RGB only)")
    if depth not in (8, 16):
        raise ValueError(f"read_png: {path}: bit depth {depth} not supported")
    channels = 1 if color_type == 0 else 3
    stride = w * channels * (depth // 8)
    bpp = channels * (depth // 8)
    size = h * (stride + 1)
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(b"".join(idat), size + 1)
    except zlib.error as e:
        raise ValueError(f"read_png: {path}: corrupt image data ({e})") from e
    if len(raw) != size or not inflate.eof:
        raise ValueError(f"read_png: {path}: corrupt image data (not one zlib "
                         f"stream of {size} bytes)")
    pixels = _unfilter(np.frombuffer(raw, dtype=np.uint8), h, stride, bpp)
    samples = pixels.view(f">u{depth // 8}").reshape(h, w, channels)
    arr = np.divide(samples, (1 << depth) - 1, dtype=np.float64)
    return arr[:, :, 0] if channels == 1 else arr
