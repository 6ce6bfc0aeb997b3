"""Minimal PNG reader/writer for 8- and 16-bit grayscale and RGB images.

Pixel values map linearly to floats in [0, 1] by dividing by the bit-depth
maximum; no gamma handling.  The writer always emits non-interlaced,
filter-0 scanlines; the reader understands all five standard filters so it
can ingest files produced elsewhere.  Palette, alpha, and interlaced
images are out of scope and rejected with a clear message.

``write_atomic`` is the one way the package writes an output file: PNGs,
checkpoints, eval reports, loss traces and synth manifests all go through
it, so no crash leaves a truncated file at an output path.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


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


def _chunk(kind: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + kind + data
            + struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF))


def write_png(path, image: np.ndarray, bit_depth: int = 16) -> None:
    """Write a float image in [0, 1] as PNG.

    ``image`` is (H, W) for grayscale or (H, W, 3) for RGB; values are
    clipped to [0, 1] and quantized to the requested depth.
    """
    if bit_depth not in (8, 16):
        raise ValueError(f"write_png: unsupported bit depth {bit_depth}")
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 2:
        color_type, channels = 0, 1
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise ValueError(f"write_png: expected (H,W) or (H,W,3), got {arr.shape}")
    h, w = arr.shape[:2]
    maxval = (1 << bit_depth) - 1
    quant = np.rint(np.clip(arr, 0.0, 1.0) * maxval)
    if bit_depth == 8:
        raw = np.ascontiguousarray(quant.astype(">u1")).reshape(h, w * channels)
    else:
        raw = np.ascontiguousarray(quant.astype(">u2")).view(np.uint8)
        raw = raw.reshape(h, 2 * w * channels)
    scanlines = np.concatenate(
        [np.zeros((h, 1), dtype=np.uint8), raw.view(np.uint8)], axis=1)

    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    payload = (_SIGNATURE + _chunk(b"IHDR", ihdr)
               + _chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 6))
               + _chunk(b"IEND", b""))
    write_atomic(path, payload)


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(data: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Undo per-scanline PNG filtering; data is h rows of (1 + stride) bytes."""
    rows = data.reshape(h, 1 + stride)
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for r in range(h):
        ftype = int(rows[r, 0])
        line = rows[r, 1:].astype(np.int32)
        if ftype == 0:
            recon = line
        elif ftype == 1:  # Sub: prefix sums per byte lane
            recon = line.copy()
            for lane in range(bpp):
                recon[lane::bpp] = np.cumsum(recon[lane::bpp]) & 0xFF
        elif ftype == 2:  # Up
            recon = (line + prev) & 0xFF
        elif ftype == 3:  # Average
            recon = np.zeros(stride, dtype=np.int32)
            for i in range(stride):
                left = recon[i - bpp] if i >= bpp else 0
                recon[i] = (line[i] + (left + int(prev[i])) // 2) & 0xFF
        elif ftype == 4:  # Paeth
            recon = np.zeros(stride, dtype=np.int32)
            for i in range(stride):
                left = recon[i - bpp] if i >= bpp else 0
                upleft = int(prev[i - bpp]) if i >= bpp else 0
                recon[i] = (line[i] + _paeth(int(left), int(prev[i]), upleft)) & 0xFF
        else:
            raise ValueError(f"read_png: unknown filter type {ftype} on row {r}")
        out[r] = recon.astype(np.uint8)
        prev = out[r]
    return out


def read_png(path) -> np.ndarray:
    """Read a PNG into float64 in [0, 1]; (H, W) for grayscale, (H, W, 3) for RGB."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != _SIGNATURE:
        raise ValueError(f"read_png: {path} is not a PNG file")
    pos = 8
    ihdr = None
    idat = []
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise ValueError(f"read_png: {path} is truncated")
        (length,) = struct.unpack(">I", blob[pos:pos + 4])
        kind = blob[pos + 4:pos + 8]
        data = blob[pos + 8:pos + 8 + length]
        if len(data) != length:
            raise ValueError(f"read_png: {path} is truncated")
        pos += 12 + length
        if kind == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif kind == b"IDAT":
            idat.append(data)
        elif kind == b"IEND":
            break
    if ihdr is None or not idat:
        raise ValueError(f"read_png: {path} has no image data")
    w, h, depth, color_type, _comp, _filt, interlace = ihdr
    if interlace:
        raise ValueError(f"read_png: {path}: interlaced PNG not supported")
    if color_type not in (0, 2):
        raise ValueError(f"read_png: {path}: color type {color_type} not supported "
                         "(grayscale and RGB only)")
    if depth not in (8, 16):
        raise ValueError(f"read_png: {path}: bit depth {depth} not supported")
    channels = 1 if color_type == 0 else 3
    stride = w * channels * (depth // 8)
    bpp = channels * (depth // 8)
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if raw.size != h * (stride + 1):
        raise ValueError(f"read_png: {path}: decompressed size mismatch")
    pixels = _unfilter(raw, h, stride, bpp)
    if depth == 8:
        arr = pixels.reshape(h, w, channels).astype(np.float64) / 255.0
    else:
        arr = (pixels.reshape(h, w * channels, 2).astype(np.uint16))
        arr = (arr[:, :, 0].astype(np.float64) * 256 + arr[:, :, 1]) / 65535.0
        arr = arr.reshape(h, w, channels)
    return arr[:, :, 0] if channels == 1 else arr
