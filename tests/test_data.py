import functools
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from intrinsics.data import (AugmentConfig, Manifest, ManifestEntry, Sample,
                             as_float, augment, ensure_disjoint_split,
                             generate_mit_shading, load_dataset,
                             parse_manifest, read_entry_map, resynthesize)
from intrinsics.metrics import fit_alpha
from intrinsics.png_io import _SIGNATURE, _chunk, read_png, write_png
from intrinsics.rng import Rng


def make_sample(seed=0, h=24, w=32, sid="s0"):
    rng = Rng(seed)
    albedo = 0.1 + 0.8 * rng.uniform((1, 3, h, w))
    shading = 0.1 + 0.8 * rng.uniform((1, 1, h, w)) * np.ones((1, 3, 1, 1))
    image = albedo * shading
    mask = np.ones((1, 1, h, w))
    return Sample(sid, image, albedo, shading, mask)


class TestPng:
    @pytest.mark.parametrize("depth", [8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_roundtrip_quantization(self, tmp_path, depth, channels):
        rng = Rng(1)
        shape = (9, 13) if channels == 1 else (9, 13, 3)
        img = rng.uniform(shape)
        path = tmp_path / "t.png"
        write_png(path, img, bit_depth=depth)
        back = read_png(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / ((1 << depth) - 1) + 1e-12

    @pytest.mark.parametrize("depth", [8, 16])
    @pytest.mark.parametrize("shape", [(37, 53), (37, 53, 3), (1, 1), (2, 7, 3)])
    def test_roundtrip_is_exact(self, tmp_path, depth, shape):
        maxval = (1 << depth) - 1
        img = Rng(4).uniform(shape) * 1.2 - 0.1  # some values clip
        path = tmp_path / "t.png"
        write_png(path, img, bit_depth=depth)
        expected = np.rint(np.clip(img, 0.0, 1.0) * maxval) / maxval
        assert np.array_equal(read_png(path), expected)

    @pytest.mark.parametrize("depth", [8, 16])
    @pytest.mark.parametrize("shape", [(37, 53), (37, 53, 3)])
    def test_integer_read_divides_to_the_float_read(self, tmp_path, depth, shape):
        path = tmp_path / "t.png"
        write_png(path, Rng(5).uniform(shape), bit_depth=depth)
        values = read_png(path, integers=True)
        assert values.dtype == np.dtype(f"=u{depth // 8}") and values.shape == shape
        assert np.iinfo(values.dtype).max == (1 << depth) - 1
        floats = read_png(path)
        assert as_float(values).tobytes() == floats.tobytes()

    @pytest.mark.parametrize("depth", [8, 16])
    def test_float32_transposed_view_writes_the_float64_bytes(self, tmp_path, depth):
        # decompose writes the (H, W, 3) float32 view of a (3, H, W) map
        chw = (Rng(6).uniform((3, 37, 53)) * 1.2 - 0.1).astype(np.float32)
        write_png(tmp_path / "view.png", chw.transpose(1, 2, 0), bit_depth=depth)
        write_png(tmp_path / "copy.png",
                  np.ascontiguousarray(chw.transpose(1, 2, 0), dtype=np.float64),
                  bit_depth=depth)
        assert (tmp_path / "view.png").read_bytes() == (tmp_path / "copy.png").read_bytes()

    def test_idat_uses_fastest_deflate(self, tmp_path):
        path = tmp_path / "t.png"
        write_png(path, Rng(5).uniform((37, 53, 3)))
        blob = path.read_bytes()
        start = blob.index(b"IDAT") + 4
        assert blob[start:start + 2] == b"\x78\x01"  # zlib header, FLEVEL 0

    def test_exact_levels_survive(self, tmp_path):
        img = np.array([[0.0, 1.0], [0.25, 0.5]])
        path = tmp_path / "t.png"
        write_png(path, img, bit_depth=16)
        back = read_png(path)
        assert back[0, 0] == 0.0 and back[0, 1] == 1.0

    def test_clipping_on_write(self, tmp_path):
        img = np.array([[-0.5, 2.0, -np.inf, np.inf]])
        path = tmp_path / "t.png"
        write_png(path, img, bit_depth=8)
        assert read_png(path).ravel().tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_nan_rejected_before_writing(self, tmp_path):
        # a forward pass that overflows yields NaN maps; a cast would write them black
        img = np.array([[0.5, np.inf], [np.nan, 0.25]])
        with pytest.raises(ValueError, match=r"t\.png: image holds NaN"):
            write_png(tmp_path / "t.png", img)
        assert list(tmp_path.iterdir()) == []

    def test_rejects_non_png(self, tmp_path):
        path = tmp_path / "t.png"
        path.write_bytes(b"hello world, not a png")
        with pytest.raises(ValueError, match="not a PNG"):
            read_png(path)

    @pytest.mark.parametrize("case", ["mix", "row-by-row", "average", "paeth", "1xN",
                                      "Nx1", "1x1"])
    @pytest.mark.parametrize("depth", [8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_reads_all_filter_types(self, tmp_path, case, depth, channels):
        # bpp 1, 2, 3 and 6; every extent decodes once per filter mix in the case
        h, w = {"mix": (9, 6), "row-by-row": (9, 6), "average": (6, 5), "paeth": (6, 5),
                "1xN": (1, 7), "Nx1": (7, 1), "1x1": (1, 1)}[case]
        rng = Rng(2)
        samples = np.rint(rng.uniform((h, w, channels)) * ((1 << depth) - 1))
        every = [np.full(h, f) for f in range(5)]
        mix = np.concatenate([[3, 0, 4, 1, 2], (rng.uniform((h,)) * 5).astype(int)])
        # row-by-row: None, Sub and Up only, which decode without the wavefront
        mixes = {"mix": [mix[:h]], "row-by-row": [mix[:h] % 3],
                 "average": [every[3]], "paeth": [every[4]],
                 "Nx1": [mix[:h]] + every}.get(case, every)
        color_type = 0 if channels == 1 else 2
        for ftypes in mixes:
            path = tmp_path / "filtered.png"
            path.write_bytes(png_bytes(filter_scanlines(samples, depth, ftypes),
                                       w, h, depth, color_type))
            back = read_png(path).reshape(h, w, channels)
            assert np.array_equal(back, samples / ((1 << depth) - 1)), ftypes

    def test_unknown_filter_type_rejected(self, tmp_path):
        samples = np.rint(Rng(3).uniform((6, 5, 3)) * 255)
        scanlines = filter_scanlines(samples, 8, np.array([0, 1, 2, 3, 4, 0]))
        scanlines[2, 0] = 5
        scanlines[4, 0] = 7
        path = tmp_path / "bad_filter.png"
        path.write_bytes(png_bytes(scanlines, 5, 6, 8, 2))
        with pytest.raises(ValueError, match="unknown filter type 5 on row 2"):
            read_png(path)

    def test_chunk_crc_mismatch_rejected(self, tmp_path):
        blob = bytearray(png_bytes(filter_scanlines(np.zeros((4, 3, 1)), 8,
                                                    np.zeros(4, int)), 3, 4, 8, 0))
        blob[8 + 8 + 3] ^= 0x01  # low byte of the width, in IHDR's data
        path = tmp_path / "bad_crc.png"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError) as err:
            read_png(path)
        assert str(path) in str(err.value) and "CRC mismatch in IHDR" in str(err.value)

    @pytest.mark.parametrize("method", ["compression", "filter", "interlace"])
    def test_nonzero_ihdr_method_rejected(self, tmp_path, method):
        scanlines = filter_scanlines(np.zeros((4, 3, 1)), 8, np.zeros(4, int))
        path = tmp_path / "bad_method.png"
        path.write_bytes(png_bytes(scanlines, 3, 4, 8, 0, **{f"{method}_method": 1}))
        with pytest.raises(ValueError) as err:
            read_png(path)
        assert str(path) in str(err.value) and f"{method} method 1" in str(err.value)

    @pytest.mark.parametrize("case", ["short_ihdr", "zero_width", "zero_height", "not_zlib",
                                      "cut_in_length_and_type", "cut_in_data",
                                      "cut_in_crc", "zlib_without_checksum", "bomb"])
    def test_malformed_file_rejected(self, tmp_path, case):
        """Each is rejected with one line naming the file, holding no more
        than a few MB: the bomb is a 1x1 file whose 261 KB of image data
        inflate to 256 MB."""
        good = png_bytes(np.zeros((2, 3), np.uint8), 2, 2, 8, 0)  # IHDR data at [16:29]
        idat_end = 33 + 12 + int.from_bytes(good[33:37], "big")  # IDAT at [33:idat_end]
        blob, cause = {
            "cut_in_length_and_type": (good[:33 + 6], "is truncated"),
            "cut_in_data": (good[:33 + 10], "is truncated"),
            "cut_in_crc": (good[:idat_end - 2], "is truncated"),
            "zlib_without_checksum": (good[:33] + _chunk(b"IDAT", zlib.compress(bytes(6))[:-4])
                                      + _chunk(b"IEND", b""), "corrupt image data"),
            "bomb": (png_bytes(np.zeros((1, 2), np.uint8), 1, 1, 8, 0)[:33]
                     + _chunk(b"IDAT", _zeros_deflated(256 << 20)) + _chunk(b"IEND", b""),
                     "corrupt image data (not one zlib stream of 2 bytes)"),
            "short_ihdr": (_SIGNATURE + _chunk(b"IHDR", good[16:28]) + good[33:],
                           "IHDR chunk is 12 bytes"),
            "zero_width": (png_bytes(np.zeros((2, 1), np.uint8), 0, 2, 8, 0),
                           "zero image extent 0x2"),
            "zero_height": (png_bytes(np.zeros((0, 3), np.uint8), 2, 0, 8, 0),
                            "zero image extent 2x0"),
            "not_zlib": (good[:33] + _chunk(b"IDAT", b"not zlib") + _chunk(b"IEND", b""),
                         "corrupt image data"),
        }[case]
        path = tmp_path / "malformed.png"
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                read_png(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        msg = str(err.value)
        assert str(path) in msg and cause in msg and "\n" not in msg
        assert peak < 8e6, peak


@functools.cache
def _zeros_deflated(n):
    """A zlib stream of n zero bytes, deflated without holding them."""
    deflate = zlib.compressobj(9)
    block = bytes(1 << 20)
    return b"".join([deflate.compress(block) for _ in range(n >> 20)] + [deflate.flush()])


def filter_scanlines(samples, depth, ftypes):
    """PNG scanlines of integer samples (H, W, C), row r filtered by type
    ftypes[r], each filter's predictor taken from the unfiltered image."""
    h = samples.shape[0]
    raw = samples.astype(">u2" if depth == 16 else np.uint8).view(np.uint8).reshape(h, -1)
    bpp = samples.shape[2] * depth // 8
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
    predictors = np.stack([np.zeros_like(x), left, up, (left + up) // 2, paeth])
    filtered = (x - predictors[ftypes, np.arange(h)]) & 0xFF
    return np.concatenate([np.asarray(ftypes)[:, None], filtered], axis=1).astype(np.uint8)


def png_bytes(scanlines, w, h, depth, color_type, compression_method=0, filter_method=0,
              interlace_method=0):
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color_type, compression_method,
                       filter_method, interlace_method)
    return (_SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(scanlines.tobytes()))
            + _chunk(b"IEND", b""))


class TestManifest:
    def test_parse_with_and_without_mask(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_text("# comment\n"
                      "a\timg/a.png\talb/a.png\tshd/a.png\tscene1\n"
                      "b\timg/b.png\talb/b.png\tshd/b.png\tmask/b.png\tscene2\n")
        m = parse_manifest(mf)
        assert len(m.entries) == 2
        assert m.entries[0].mask_path is None
        assert m.entries[1].mask_path == "mask/b.png"
        assert m.entries[1].scene == "scene2"

    def test_wrong_field_count(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_text("a\tb\tc\n")
        with pytest.raises(ValueError, match="5 or 6"):
            parse_manifest(mf)

    def test_non_utf8_manifest_names_itself(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_bytes(b"a\ti\ta\ts\tscene\xff\n")
        with pytest.raises(ValueError) as e:
            parse_manifest(mf)
        assert str(e.value) == f"{mf}: not UTF-8 text (invalid start byte)"

    def test_duplicate_id_rejected(self, tmp_path):
        # synth would write both samples to one set of PNGs, eval would
        # score both against one prediction
        mf = tmp_path / "m.tsv"
        mf.write_text("a\ti\ta\ts\tscene1\n"
                      "# comment\n"
                      "b\ti\ta\ts\tscene1\n"
                      "a\ti2\ta2\ts2\tscene2\n")
        with pytest.raises(ValueError, match=r"m\.tsv:4: duplicate id 'a' \(first on line 1\)"):
            parse_manifest(mf)

    def test_scene_split_overlap_rejected(self):
        e1 = ManifestEntry("a", "i", "a", "s", None, "sceneX")
        e2 = ManifestEntry("b", "i", "a", "s", None, "sceneX")
        with pytest.raises(ValueError, match="sceneX"):
            ensure_disjoint_split(Manifest([e1]), Manifest([e2]), "scene-split")

    def test_image_split_allows_scene_overlap(self):
        e1 = ManifestEntry("a", "i", "a", "s", None, "sceneX")
        e2 = ManifestEntry("b", "i", "a", "s", None, "sceneX")
        ensure_disjoint_split(Manifest([e1]), Manifest([e2]), "image-split")


class TestLoading:
    def _write_triple(self, tmp_path, sid="s0", h=8, w=8, with_mask=False,
                      shading_extents=None, mask_extents=None):
        rng = Rng(3)
        write_png(tmp_path / f"{sid}_i.png", rng.uniform((h, w, 3)))
        write_png(tmp_path / f"{sid}_a.png", rng.uniform((h, w, 3)))
        sh, sw = shading_extents or (h, w)
        write_png(tmp_path / f"{sid}_s.png", rng.uniform((sh, sw)))
        fields = [sid, f"{sid}_i.png", f"{sid}_a.png", f"{sid}_s.png"]
        if with_mask:
            mask = (rng.uniform(mask_extents or (h, w)) > 0.3).astype(float)
            write_png(tmp_path / f"{sid}_m.png", mask, bit_depth=8)
            fields.append(f"{sid}_m.png")
        fields.append("scene0")
        return "\t".join(fields)

    def test_load_defaults_to_all_valid_mask(self, tmp_path):
        line = self._write_triple(tmp_path)
        (tmp_path / "m.tsv").write_text(line + "\n")
        samples = load_dataset(parse_manifest(tmp_path / "m.tsv"))
        assert len(samples) == 1
        s = samples[0]
        assert s.image.shape == (1, 3, 8, 8)
        assert s.shading.shape == (1, 3, 8, 8)  # gray replicated
        assert np.all(s.mask == 1.0)

    def test_mask_file_nonzero_is_valid(self, tmp_path):
        line = self._write_triple(tmp_path, with_mask=True)
        (tmp_path / "m.tsv").write_text(line + "\n")
        s = load_dataset(parse_manifest(tmp_path / "m.tsv"))[0]
        assert set(np.unique(s.mask)) <= {0.0, 1.0}
        assert 0 < s.mask.sum() < s.mask.size

    def test_rgb_mask_valid_where_any_channel_is_nonzero(self, tmp_path):
        line = self._write_triple(tmp_path)
        rgb = np.zeros((8, 8, 3))
        rgb[2, 3, 1] = rgb[5, 0] = 1.0
        write_png(tmp_path / "s0_m.png", rgb, bit_depth=8)
        fields = line.split("\t")
        (tmp_path / "m.tsv").write_text("\t".join(fields[:4] + ["s0_m.png", fields[4]]) + "\n")
        s = load_dataset(parse_manifest(tmp_path / "m.tsv"))[0]
        expected = np.zeros((1, 1, 8, 8))
        expected[0, 0, 2, 3] = expected[0, 0, 5, 0] = 1.0
        assert np.array_equal(s.mask, expected)

    def test_loaded_frame_holds_its_decoded_integers(self, tmp_path):
        """A 436x1024 frame of 16-bit RGB maps and an 8-bit mask holds its
        decoded uint16 maps and a bool mask, 8.5 MB; as float64 it takes
        35.7 MB.  Each map's ``as_float`` is its float read."""
        h, w = 436, 1024
        ramp = np.linspace(0.0, 1.0, h * w).reshape(h, w, 1)
        names = []
        for k, gain in (("i", 0.9), ("a", 0.6), ("s", 1.0)):
            write_png(tmp_path / f"{k}.png", ramp * [gain, 0.5 * gain, 0.25], 16)
            names.append(f"{k}.png")
        write_png(tmp_path / "m.png", (ramp[:, :, 0] > 0.3).astype(float), 8)
        (tmp_path / "m.tsv").write_text("\t".join(["f0", *names, "m.png", "sc"]) + "\n")
        manifest = parse_manifest(tmp_path / "m.tsv")
        tracemalloc.start()
        try:
            (s,) = load_dataset(manifest)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 9e6, held
        assert s.mask.dtype == bool and 0 < s.mask.sum() < s.mask.size
        for name, t in zip(names, (s.image, s.albedo, s.shading)):
            assert t.dtype == np.uint16
            want = read_png(tmp_path / name).transpose(2, 0, 1)[None]
            assert np.array_equal(as_float(t), want)

    def test_grayscale_map_held_once(self, tmp_path):
        """A 16-bit grayscale 436x1024 map holds its H*W*2 bytes once
        loaded, as a read-only view of three equal channels; stacking them
        held three times that."""
        h, w = 436, 1024
        gray = np.linspace(0.0, 1.0, h * w).reshape(h, w)
        write_png(tmp_path / "s.png", gray, 16)
        entry = ManifestEntry("g", "s.png", "s.png", "s.png", None, "sc")
        tracemalloc.start()
        try:
            m = read_entry_map(entry, str(tmp_path), "s.png")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < h * w * 2 + 4096, held
        assert m.shape == (1, 3, h, w) and m.dtype == np.uint16
        assert not m.flags.writeable
        want = read_png(tmp_path / "s.png", integers=True)
        for c in range(3):
            assert np.array_equal(m[0, c], want)

    def test_extent_mismatch_names_sample(self, tmp_path):
        line = self._write_triple(tmp_path, sid="bad", shading_extents=(4, 8))
        (tmp_path / "m.tsv").write_text(line + "\n")
        with pytest.raises(ValueError, match="bad"):
            load_dataset(parse_manifest(tmp_path / "m.tsv"))

    def test_mask_extent_mismatch_names_sample(self, tmp_path):
        line = self._write_triple(tmp_path, sid="badmask", with_mask=True,
                                  mask_extents=(8, 7))
        (tmp_path / "m.tsv").write_text(line + "\n")
        with pytest.raises(ValueError, match="sample badmask: mask"):
            load_dataset(parse_manifest(tmp_path / "m.tsv"))

    def test_missing_file_names_path(self, tmp_path):
        (tmp_path / "m.tsv").write_text("x\tnope.png\tnope.png\tnope.png\tsc\n")
        with pytest.raises(ValueError, match="nope.png"):
            load_dataset(parse_manifest(tmp_path / "m.tsv"))


class TestFitAlpha:
    def test_exact_fit(self):
        p = Rng(4).uniform((1, 3, 6, 6)) + 0.1
        assert abs(fit_alpha(p, p) - 1.0) < 1e-12

    def test_exact_scaling(self):
        p = Rng(5).uniform((1, 3, 6, 6)) + 0.1
        assert abs(fit_alpha(2.0 * p, p) - 2.0) < 1e-12

    def test_zero_prediction_rejected(self):
        # the metrics score a zero prediction at scale 0; shading generation,
        # which divides by the scale, rejects it
        assert fit_alpha(np.ones((1, 3, 2, 2)), np.zeros((1, 3, 2, 2))) == 0.0
        with pytest.raises(ValueError, match="scale is zero"):
            generate_mit_shading(np.zeros((1, 3, 2, 2)), np.full((1, 3, 2, 2), 0.5))


class TestMitShading:
    def test_constant_gray_case(self):
        albedo = np.full((1, 3, 4, 4), 0.5)
        image = np.full((1, 3, 4, 4), 0.25)
        shading, alpha, _ = generate_mit_shading(image, albedo)
        assert np.allclose(shading, 0.5)
        assert abs(alpha - 1.0) < 1e-12

    def test_zero_albedo_pixels_guarded_and_masked(self):
        rng = Rng(7)
        albedo = 0.2 + 0.7 * rng.uniform((1, 3, 6, 6))
        albedo[0, :, 2, 3] = 0.0
        image = albedo * 0.5
        shading, _, valid = generate_mit_shading(image, albedo)
        assert valid[0, 0, 2, 3] == 0.0
        assert valid.sum() == 35.0
        assert np.all(np.isfinite(shading))


class TestResynthesize:
    def test_identity_albedo(self):
        s = Rng(8).uniform((1, 3, 5, 5))
        assert np.array_equal(resynthesize(np.ones((1, 3, 5, 5)), s), s)

    def test_zero_albedo_absorbs(self):
        a = np.zeros((1, 3, 3, 3))
        s = Rng(9).uniform((1, 3, 3, 3))
        assert np.all(resynthesize(a, s) == 0.0)


class TestAugment:
    def identity_cfg(self, h, w):
        return AugmentConfig(crop_h=h, crop_w=w, mirror_prob=0.0,
                             enable_rotate_zoom=False)

    def test_identity_pipeline(self):
        s = make_sample(seed=12)
        out = augment(s, self.identity_cfg(24, 32), Rng(0))
        assert np.array_equal(out.image, s.image)
        assert np.array_equal(out.albedo, s.albedo)
        assert np.array_equal(out.shading, s.shading)
        assert np.array_equal(out.mask, s.mask)

    def test_fixed_seed_reproducible(self):
        s = make_sample(seed=13, h=40, w=40)
        cfg = AugmentConfig(crop_h=24, crop_w=24, mirror_prob=0.5,
                            enable_rotate_zoom=True)
        a = augment(s, cfg, Rng(77))
        b = augment(s, cfg, Rng(77))
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)

    def test_rotation_invalidates_corners(self):
        # Rng(40) draws zoom 1.008 and a 14.8-degree rotation
        u_zoom, u_angle = Rng(40).uniform((2,))
        assert 1.0 < 0.8 + 0.4 * u_zoom < 1.01 and -15 + 30 * u_angle > 14.5
        s = make_sample(seed=14, h=32, w=32)
        cfg = AugmentConfig(crop_h=32, crop_w=32, mirror_prob=0.0,
                            enable_rotate_zoom=True)
        out = augment(s, cfg, Rng(40))
        frac = out.mask.mean()
        assert frac < 1.0
        assert frac > 0.5

    def test_mirror_flips_columns(self):
        s = make_sample(seed=15)
        cfg = AugmentConfig(crop_h=24, crop_w=32, mirror_prob=1.0,
                            enable_rotate_zoom=False)
        out = augment(s, cfg, Rng(2))
        assert np.allclose(out.image, s.image[:, :, :, ::-1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mirror", [0.0, 1.0])
    def test_crop_returns_fresh_contiguous_float64(self, mirror, dtype):
        # a full-size crop: unflipped, a slice of it is the whole sample
        s = make_sample(seed=16)
        s = Sample(s.id, *(t.astype(dtype) for t in
                           (s.image, s.albedo, s.shading, s.mask)))
        before = [t.copy() for t in (s.image, s.albedo, s.shading, s.mask)]
        cfg = AugmentConfig(crop_h=24, crop_w=32, mirror_prob=mirror,
                            enable_rotate_zoom=False)
        out = augment(s, cfg, Rng(4))
        for t in (out.image, out.albedo, out.shading, out.mask):
            assert t.dtype == np.float64 and t.flags.c_contiguous
            t[...] = -1.0
        for t, b in zip((s.image, s.albedo, s.shading, s.mask), before):
            assert np.array_equal(t, b)

    @pytest.mark.parametrize("rotate_zoom", [False, True], ids=["crop", "rotzoom"])
    def test_integer_maps_augment_to_their_float64_bytes(self, rotate_zoom):
        """augment divides each map as it reads it (the crop's slice, or each
        tap of the gather), so integer maps give the bytes of their float64
        division; dividing after interpolating would not."""
        rng = Rng(18)
        maxima = (65535, 255, 65535)
        ints = [np.rint(rng.uniform((1, 3, 40, 44)) * d).astype(t)
                for d, t in zip(maxima, (np.uint16, np.uint8, np.uint16))]
        mask = rng.uniform((1, 1, 40, 44)) > 0.3
        held = Sample("s", *ints, mask)
        floats = Sample("s", *map(as_float, ints), mask.astype(np.float64))
        cfg = AugmentConfig(crop_h=32, crop_w=32, mirror_prob=0.5,
                            enable_rotate_zoom=rotate_zoom)
        for seed in range(6):
            a, b = augment(held, cfg, Rng(seed)), augment(floats, cfg, Rng(seed))
            for name in ("image", "albedo", "shading", "mask"):
                got, want = getattr(a, name), getattr(b, name)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), name

    def test_impossible_crop_rejected(self):
        s = make_sample(seed=17, h=16, w=16)
        cfg = AugmentConfig(crop_h=32, crop_w=32, enable_rotate_zoom=False)
        with pytest.raises(ValueError, match="impossible"):
            augment(s, cfg, Rng(3))

