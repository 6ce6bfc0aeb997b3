import tracemalloc

import numpy as np
import pytest

from intrinsics.layers import (ConvSpec, bilinear_upsample_forward,
                               concat_backward, concat_channels, conv_backward,
                               conv_forward, deconv_backward, deconv_forward,
                               dropout_forward, max_pool_backward,
                               max_pool_forward, prelu_forward)
from intrinsics.rng import Rng
from intrinsics.verify import (LAYER_H, bilinear_probe, check_all,
                               concat_probe, conv_oracle, conv_probes,
                               dropout_probe, max_pool_oracle, pool_probe,
                               prelu_probes)


class TestConv:
    def test_1x1_identity(self):
        spec = ConvSpec(1, 1, 1, 1)
        x = Rng(0).normal((1, 1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        b = np.zeros(1)
        assert np.allclose(conv_forward(x, w, b, spec), x)

    def test_3x3_ones_on_ones(self):
        spec = ConvSpec(1, 1, 3, 3, pad_h=1, pad_w=1)
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = conv_forward(x, w, None, spec)[0, 0]
        assert y[1, 1] == 9
        assert y[0, 0] == y[0, 2] == y[2, 0] == y[2, 2] == 4
        assert y[0, 1] == y[1, 0] == y[1, 2] == y[2, 1] == 6

    def test_channel_mismatch_named(self):
        spec = ConvSpec(3, 2, 3, 3)
        x = np.zeros((1, 2, 5, 5))
        w = np.zeros((2, 3, 3, 3))
        with pytest.raises(ValueError, match="channels"):
            conv_forward(x, w, None, spec)

    @pytest.mark.parametrize("seed,shape,spec", [
        (1, (1, 2, 6, 6), ConvSpec(2, 3, 3, 3, stride_h=2, stride_w=2)),
        (2, (2, 3, 8, 7), ConvSpec(3, 2, 3, 3, pad_h=1, pad_w=1)),
        (3, (1, 1, 5, 9), ConvSpec(1, 4, 1, 3, stride_w=2, pad_w=1)),
        (4, (2, 4, 12, 12), ConvSpec(4, 2, 5, 5, stride_h=2, stride_w=2, pad_h=2, pad_w=2)),
        (5, (1, 2, 11, 12), ConvSpec(2, 2, 4, 2, stride_h=3, pad_h=1)),
    ])
    def test_matches_nested_loop_oracle(self, seed, shape, spec):
        rng = Rng(seed)
        x = rng.normal(shape)
        w = rng.normal((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
        b = rng.normal((spec.out_channels,))
        got = conv_forward(x, w, b, spec)
        want = conv_oracle(x, w, b, spec)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        spec = ConvSpec(2, 3, 3, 3, stride_h=1 + seed % 2, stride_w=1 + seed % 2,
                        pad_h=seed % 2, pad_w=1)
        check_all(conv_probes(Rng(100 + seed), "conv", 1 + seed % 2, spec, (6, 6)),
                  LAYER_H)


class TestDeconv:
    def test_1x1_identity(self):
        spec = ConvSpec(1, 1, 1, 1)
        x = Rng(6).normal((1, 1, 3, 3))
        w = np.ones((1, 1, 1, 1))
        assert np.allclose(deconv_forward(x, w, None, spec), x)

    def test_stride4_head_extent(self):
        spec = ConvSpec(3, 64, 8, 8, stride_h=4, stride_w=4, pad_h=2, pad_w=2)
        x = Rng(7).normal((1, 64, 16, 16))
        w = Rng(8).normal((64, 3, 8, 8)) * 0.01
        y = deconv_forward(x, w, None, spec)
        assert y.shape == (1, 3, 64, 64)

    @pytest.mark.parametrize("seed,spec,hw", [
        (1, ConvSpec(2, 3, 3, 3, stride_h=2, stride_w=2), (7, 7)),
        (2, ConvSpec(1, 2, 4, 4, stride_h=2, stride_w=2, pad_h=1, pad_w=1), (8, 6)),
        (3, ConvSpec(3, 2, 2, 2), (5, 5)),
        (4, ConvSpec(3, 4, 8, 8, stride_h=4, stride_w=4, pad_h=2, pad_w=2), (16, 16)),
        (5, ConvSpec(2, 2, 5, 3, pad_h=2, pad_w=1), (9, 7)),
    ])
    def test_adjoint_identity(self, seed, spec, hw):
        rng = Rng(200 + seed)
        x = rng.normal((2, spec.in_channels, *hw))
        w = rng.normal((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
        y = rng.normal(conv_forward(x, w, None, spec).shape)
        lhs = float((conv_forward(x, w, None, spec) * y).sum())
        rhs = float((x * deconv_forward(y, w, None, spec)).sum())
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        spec = ConvSpec(2, 3, 4, 4, stride_h=2, stride_w=2, pad_h=1, pad_w=1)
        check_all(conv_probes(Rng(300 + seed), "deconv", 1, spec, (4 + seed % 3, 5)),
                  LAYER_H)


@pytest.mark.parametrize("n,spec,hw", [
    (2, ConvSpec(3, 4, 3, 3, pad_h=1, pad_w=1), (8, 7)),
    (2, ConvSpec(3, 2, 8, 8, stride_h=4, stride_w=4, pad_h=2, pad_w=2), (16, 16)),
    (1, ConvSpec(4, 2, 1, 1), (5, 6)),
])
def test_float32_in_contiguous_float32_out(n, spec, hw):
    # an upcast or a strided view would double memory or force a copy downstream
    rng = Rng(9)

    def f32(shape):
        return rng.normal(shape).astype(np.float32)

    w = f32((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
    x = f32((n, spec.in_channels, *hw))
    y = conv_forward(x, w, f32((spec.out_channels,)), spec)
    outs = [y, *conv_backward(f32(y.shape), x, w, spec)]
    z = deconv_forward(y, w, f32((spec.in_channels,)), spec)
    outs += [z, *deconv_backward(f32(z.shape), y, w, spec)]
    for i, out in enumerate(outs):
        assert out.dtype == np.float32, f"output {i}: {out.dtype}"
        assert out.flags.c_contiguous, f"output {i} is a strided view"


@pytest.mark.parametrize("call", ["forward", "backward"])
def test_conv_working_set_is_capped(call):
    # s2.conv2 on a 436x1024 frame: one im2col matrix for the whole call
    # would be 4000 x 28672 float32, 458 MB
    spec = ConvSpec(160, 64, 5, 5, pad_h=2, pad_w=2)
    x = np.ones((1, 160, 112, 256), dtype=np.float32)
    w = np.ones((64, 160, 5, 5), dtype=np.float32)
    dy = np.ones((1, 64, 112, 256), dtype=np.float32)
    tracemalloc.start()
    try:
        if call == "forward":
            conv_forward(x, w, None, spec)
        else:
            conv_backward(dy, x, w, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, f"conv_{call} peaked at {peak / 1e6:.0f} MB"


class TestMaxPool:
    def test_constant_routes_to_first(self):
        x = np.ones((1, 1, 4, 4))
        out = max_pool_forward(x, 2, 2)
        assert np.all(out == 1.0)
        dy = np.ones_like(out)
        dx = max_pool_backward(dy, x, out, 2, 2)
        want = np.zeros((4, 4))
        want[0, 0] = want[0, 2] = want[2, 0] = want[2, 2] = 1.0
        assert np.array_equal(dx[0, 0], want)

    def test_tie_keeps_first_tap_value(self):
        x = np.array([[-0.0, 0.0, 0.0, -0.0]]).reshape(1, 1, 1, 4)
        out = max_pool_forward(x, 2, 2)
        assert np.array_equal(np.signbit(out.ravel()), [True, False])

    def test_window_example(self):
        x = np.array([[1.0, 3.0], [2.0, 0.0]]).reshape(1, 1, 2, 2)
        out = max_pool_forward(x, 2, 2)
        assert out.ravel()[0] == 3.0
        dx = max_pool_backward(np.ones_like(out), x, out, 2, 2)
        assert np.array_equal(dx[0, 0], np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_ceil_mode_extents(self):
        # clipped trailing window: 16 -> 8 for a 3x3 stride-2 pool
        x = Rng(9).normal((1, 1, 16, 16))
        out = max_pool_forward(x, 3, 2)
        assert out.shape == (1, 1, 8, 8)
        # window bigger than the input still works while it overlaps
        x = Rng(9).normal((1, 1, 2, 2))
        out = max_pool_forward(x, 3, 2)
        assert out.shape == (1, 1, 1, 1)
        assert out.ravel()[0] == x.max()
        # but a window that cannot overlap the input is rejected
        with pytest.raises(ValueError, match="does not overlap"):
            max_pool_forward(x, 5, 2)

    def test_oracle_small(self):
        x = Rng(10).normal((2, 2, 6, 7))
        out = max_pool_forward(x, 2, 2)
        for n in range(2):
            for c in range(2):
                for i in range(out.shape[2]):
                    for j in range(out.shape[3]):
                        win = x[n, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                        assert out[n, c, i, j] == win.max()

    def test_nan_window_routes_to_first_nan(self):
        # 2x2 windows over one row pair: [1, nan | nan, 5 | 2, 0] / [nan, 9 | 3, nan | 1, 4]
        x = np.array([[1.0, np.nan, np.nan, 5.0, 2.0, 0.0],
                      [np.nan, 9.0, 3.0, np.nan, 1.0, 4.0]]).reshape(1, 1, 2, 6)
        out = max_pool_forward(x, 2, 2)
        assert np.isnan(out[0, 0, 0, :2]).all() and out[0, 0, 0, 2] == 4.0
        dx = max_pool_backward(np.array([[[[1.0, 2.0, 3.0]]]]), x, out, 2, 2)
        want = np.zeros((2, 6))
        want[0, 1], want[0, 2], want[1, 5] = 1.0, 2.0, 3.0
        assert np.array_equal(dx[0, 0], want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_matches_oracle(self, dtype):
        x = np.floor(Rng(12).uniform((2, 3, 9, 8)) * 3).astype(dtype)
        x[Rng(13).uniform(x.shape) < 0.1] = np.nan
        out = max_pool_forward(x, 3, 2)
        dy = Rng(14).normal(out.shape).astype(dtype)
        want_y, want_dx = max_pool_oracle(x, dy, 3, 2)
        assert np.isnan(want_y).any()
        assert np.array_equal(out, want_y, equal_nan=True)
        assert np.array_equal(max_pool_backward(dy, x, out, 3, 2), want_dx)
        # a non-finite dy reaches only the cell its window routes to
        dy[0, 0, 0, 0], dy[1, 2, 1, 1] = np.inf, np.nan
        _, want_dx = max_pool_oracle(x, dy, 3, 2)
        assert np.array_equal(max_pool_backward(dy, x, out, 3, 2), want_dx,
                              equal_nan=True)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_away_from_ties(self, seed):
        check_all([pool_probe(Rng(400 + seed), (6 + seed % 3, 6))], LAYER_H)


class TestBilinearUpsample:
    def test_factor_one_identity(self):
        x = Rng(11).normal((1, 2, 4, 4))
        assert bilinear_upsample_forward(x, 1) is x

    def test_constant_stays_constant(self):
        for factor in (2, 3, 4, 8):
            x = np.full((1, 1, 3, 5), 0.7)
            y = bilinear_upsample_forward(x, factor)
            assert y.shape == (1, 1, 3 * factor, 5 * factor)
            assert np.allclose(y, 0.7)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        check_all([bilinear_probe(Rng(600 + seed), 2 + seed % 3, (3 + seed % 2, 4))],
                  LAYER_H)


class TestPrelu:
    def test_positive_passthrough(self):
        x = np.full((1, 2, 1, 1), 5.0)
        a = np.array([0.1, 0.9])
        assert np.array_equal(prelu_forward(x, a), x)

    def test_negative_scaled(self):
        x = np.full((1, 1, 1, 1), -2.0)
        a = np.array([0.25])
        assert prelu_forward(x, a).ravel()[0] == -0.5

    def test_slope_one_is_identity(self):
        x = Rng(12).normal((2, 3, 4, 4))
        assert np.array_equal(prelu_forward(x, np.ones(3)), x)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        check_all(prelu_probes(Rng(700 + seed), 2), LAYER_H)


class TestDropout:
    def test_p_zero_identity(self):
        x = Rng(13).normal((1, 2, 4, 4))
        y, mask = dropout_forward(x, 0.0, Rng(1), train_mode=True)
        assert np.array_equal(y, x)
        assert mask is None

    def test_eval_identity(self):
        x = Rng(14).normal((1, 2, 4, 4))
        y, mask = dropout_forward(x, 0.7, Rng(1), train_mode=False)
        assert np.array_equal(y, x)
        assert mask is None

    def test_keep_fraction_and_scaling(self):
        x = np.ones((1, 1, 100, 100))
        y, mask = dropout_forward(x, 0.5, Rng(15), train_mode=True)
        kept = float((mask > 0).mean())
        assert abs(kept - 0.5) < 0.02
        assert abs(float(y.mean()) - 1.0) < 0.03  # inverted scaling keeps E[out] = x

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            dropout_forward(np.zeros((1, 1, 1, 1)), 1.0, Rng(0), True)

    def test_backward_uses_frozen_mask(self):
        check_all([dropout_probe(Rng(16), (1, 1, 8, 8))], LAYER_H)


class TestConcat:
    def test_concat_with_empty(self):
        x = Rng(19).normal((1, 3, 2, 2))
        empty = np.zeros((1, 0, 2, 2))
        assert np.array_equal(concat_channels(x, empty), x)

    def test_values_in_order(self):
        a = np.array([2.0]).reshape(1, 1, 1, 1)
        b = np.array([3.0, 4.0]).reshape(1, 2, 1, 1)
        out = concat_channels(a, b)
        assert out.shape == (1, 3, 1, 1)
        assert np.array_equal(out.ravel(), [2.0, 3.0, 4.0])

    def test_roundtrip(self):
        a = Rng(20).normal((2, 3, 4, 4))
        b = Rng(21).normal((2, 2, 4, 4))
        da, db = concat_backward(concat_channels(a, b), a.shape[1])
        assert np.array_equal(da, a)
        assert np.array_equal(db, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        check_all([concat_probe(Rng(800 + seed), 1 + seed % 3)], LAYER_H)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            concat_channels(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 4)))
