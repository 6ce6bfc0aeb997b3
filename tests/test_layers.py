import math
import tracemalloc

import numpy as np
import pytest

from intrinsics import layers
from intrinsics.layers import (ConvSpec, bilinear_upsample_forward,
                               conv_backward, conv_forward, deconv_backward,
                               deconv_forward, dropout_backward,
                               dropout_forward, dropout_scale,
                               max_pool_backward, max_pool_forward,
                               prelu_backward, prelu_forward)
from intrinsics.network import NetworkConfig, build_network
from intrinsics.rng import Rng
from intrinsics.verify import _block_budget, max_pool_oracle


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

    @pytest.mark.parametrize("pad_h,pad_w", [(3, 0), (0, 2), (-1, 0)])
    def test_padding_outside_kernel_rejected(self, pad_h, pad_w):
        # padding below the kernel extent keeps the input gradient's
        # padding of dy non-negative
        with pytest.raises(ValueError, match="padding"):
            ConvSpec(2, 3, 3, 2, pad_h=pad_h, pad_w=pad_w)


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


# the ids keep the batch sizes the first two cases ran at before every
# convolution took one image
@pytest.mark.parametrize("spec,hw", [
    (ConvSpec(3, 4, 3, 3, pad_h=1, pad_w=1), (8, 7)),
    (ConvSpec(3, 2, 8, 8, stride_h=4, stride_w=4, pad_h=2, pad_w=2), (16, 16)),
    (ConvSpec(4, 2, 1, 1), (5, 6)),
], ids=["2-spec0-hw0", "2-spec1-hw1", "1-spec2-hw2"])
def test_float32_in_contiguous_float32_out(spec, hw):
    # an upcast or a strided view would double memory or force a copy downstream
    rng = Rng(9)

    def f32(shape):
        return rng.normal(shape).astype(np.float32)

    w = f32((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
    x = f32((1, spec.in_channels, *hw))
    y = conv_forward(x, w, f32((spec.out_channels,)), spec)
    outs = [y, *conv_backward(f32(y.shape), x, w, spec)]
    z = deconv_forward(y, w, f32((spec.in_channels,)), spec)
    outs += [z, *deconv_backward(f32(z.shape), y, w, spec)]
    # the pool's dx is what the conv weight gradient behind it reads
    pooled, arg = max_pool_forward(y, 3, 2, winners=True)
    outs.append(max_pool_backward(f32(pooled.shape), arg, y.shape, 3, 2))
    for i, out in enumerate(outs):
        assert out.dtype == np.float32, f"output {i}: {out.dtype}"
        assert out.flags.c_contiguous, f"output {i} is a strided view"


@pytest.mark.parametrize("call", ["conv_forward", "conv_backward", "deconv_forward",
                                  "deconv_backward", "network"])
def test_batch_of_two_rejected(call):
    """Every convolution and the network take one image; a batch of two
    would mix its images' gradients in one (O, N*Ho*Wo) matrix."""
    spec = ConvSpec(3, 4, 3, 3, pad_h=1, pad_w=1)
    w = np.zeros((4, 3, 3, 3))
    x, y = np.zeros((2, 3, 6, 6)), np.zeros((2, 4, 6, 6))
    net = build_network(NetworkConfig(channel_scale=1 / 16), Rng(0))
    calls = {
        "conv_forward": lambda: conv_forward(x, w, None, spec),
        "conv_backward": lambda: conv_backward(y, x, w, spec),
        "deconv_forward": lambda: deconv_forward(y, w, None, spec),
        "deconv_backward": lambda: deconv_backward(x, y, w, spec),
        "network": lambda: net.forward(np.zeros((2, 3, 32, 32))),
    }
    with pytest.raises(ValueError, match=r"one image .*, got \(2, "):
        calls[call]()


@pytest.mark.parametrize("call", ["forward", "backward", "deconv"])
def test_conv_working_set_is_capped(call):
    # s2.conv2 on a 436x1024 frame: one im2col matrix for the whole call
    # would be 4000 x 28672 float32, 458 MB.  The head deconvolution of the
    # same frame runs as one conv of its 16 phases to 1x3x448x1024.
    spec = ConvSpec(160, 64, 5, 5, pad_h=2, pad_w=2)
    x = np.ones((1, 160, 112, 256), dtype=np.float32)
    w = np.ones((64, 160, 5, 5), dtype=np.float32)
    dy = np.ones((1, 64, 112, 256), dtype=np.float32)
    head = ConvSpec(3, 64, 8, 8, stride_h=4, stride_w=4, pad_h=2, pad_w=2)
    w_head = np.ones((64, 3, 8, 8), dtype=np.float32)
    tracemalloc.start()
    try:
        if call == "forward":
            conv_forward(x, w, None, spec)
        elif call == "backward":
            conv_backward(dy, x, w, spec)
        else:
            deconv_forward(dy, w_head, None, head)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, f"conv_{call} peaked at {peak / 1e6:.0f} MB"


@pytest.mark.parametrize("budget,rows", [(200_000, 2), (1, 1)])
def test_weight_grad_below_one_channel_takes_kernel_rows(monkeypatch, budget, rows):
    """At a budget below one channel's columns (5x5 taps of 64x64 outputs,
    410 KB), the weight gradient takes blocks of kernel rows of one channel
    (82 KB each): no column buffer over the budget, beside the padded input
    and dw itself.  Each entry is still one dot over the 4096 outputs, and
    the result is the bytes of one unblocked GEMM (at 64 output channels on
    OpenBLAS; at a few, its kernels can round a split GEMM otherwise)."""
    spec = ConvSpec(2, 64, 5, 5, pad_h=2, pad_w=2)
    x = Rng(1).normal((1, 2, 64, 64)).astype(np.float32)
    dy = Rng(2).normal((1, 64, 64, 64)).astype(np.float32)
    w_shape = (64, 2, 5, 5)
    cols = np.ascontiguousarray(layers._windows(x, spec)).reshape(-1, 4096)
    want = (cols @ dy.reshape(64, -1).T).T.reshape(w_shape)
    del cols
    monkeypatch.setattr(layers, "_BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        got = layers._weight_grad(dy, x, spec, w_shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    col_bytes = peak - 2 * 68 * 68 * 4 - 2 * got.nbytes  # the padded x, dw.T and dw
    assert col_bytes <= rows * 5 * 4096 * 4 + 4096, f"columns took {col_bytes} bytes"


class TestMaxPool:
    def test_constant_routes_to_first(self):
        x = np.ones((1, 1, 4, 4))
        out, arg = max_pool_forward(x, 2, 2, winners=True)
        assert np.all(out == 1.0)
        dy = np.ones_like(out)
        dx = max_pool_backward(dy, arg, x.shape, 2, 2)
        want = np.zeros((4, 4))
        want[0, 0] = want[0, 2] = want[2, 0] = want[2, 2] = 1.0
        assert np.array_equal(dx[0, 0], want)

    def test_tie_keeps_first_tap_value(self):
        x = np.array([[-0.0, 0.0, 0.0, -0.0]]).reshape(1, 1, 1, 4)
        out = max_pool_forward(x, 2, 2)
        assert np.array_equal(np.signbit(out.ravel()), [True, False])

    def test_window_example(self):
        x = np.array([[1.0, 3.0], [2.0, 0.0]]).reshape(1, 1, 2, 2)
        out, arg = max_pool_forward(x, 2, 2, winners=True)
        assert out.ravel()[0] == 3.0
        dx = max_pool_backward(np.ones_like(out), arg, x.shape, 2, 2)
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

    def test_nan_window_routes_to_first_nan(self):
        # 2x2 windows over one row pair: [1, nan | nan, 5 | 2, 0] / [nan, 9 | 3, nan | 1, 4]
        x = np.array([[1.0, np.nan, np.nan, 5.0, 2.0, 0.0],
                      [np.nan, 9.0, 3.0, np.nan, 1.0, 4.0]]).reshape(1, 1, 2, 6)
        out, arg = max_pool_forward(x, 2, 2, winners=True)
        assert np.isnan(out[0, 0, 0, :2]).all() and out[0, 0, 0, 2] == 4.0
        dx = max_pool_backward(np.array([[[[1.0, 2.0, 3.0]]]]), arg, x.shape, 2, 2)
        want = np.zeros((2, 6))
        want[0, 1], want[0, 2], want[1, 5] = 1.0, 2.0, 3.0
        assert np.array_equal(dx[0, 0], want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_matches_oracle(self, dtype):
        x = np.floor(Rng(12).uniform((2, 3, 9, 8)) * 3).astype(dtype)
        x[Rng(13).uniform(x.shape) < 0.1] = np.nan
        x[:, 1] = np.floor(Rng(15).uniform((2, 9, 8)) * 3)  # a channel without NaN
        out, arg = max_pool_forward(x, 3, 2, winners=True)
        dy = Rng(14).normal(out.shape).astype(dtype)
        want_y, want_dx = max_pool_oracle(x, dy, 3, 2)
        assert np.isnan(want_y).any()
        assert np.array_equal(out, want_y, equal_nan=True)
        assert np.array_equal(max_pool_forward(x, 3, 2), want_y, equal_nan=True)
        # a non-finite dy reaches only the cell its window routes to
        bad_dy = dy.copy()
        bad_dy[0, 0, 0, 0], bad_dy[1, 2, 1, 1] = np.inf, np.nan
        _, want_bad_dx = max_pool_oracle(x, bad_dy, 3, 2)
        # at 1 byte each channel is its own block, with or without NaN windows
        for budget in (layers._POOL_BLOCK_BYTES, 1):
            with _block_budget(budget):
                assert np.array_equal(max_pool_backward(dy, arg, x.shape, 3, 2), want_dx)
                assert np.array_equal(max_pool_backward(bad_dy, arg, x.shape, 3, 2),
                                      want_bad_dx, equal_nan=True)

    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_winners_route_like_the_oracle(self, kernel, dtype):
        # values in {-1, -0, 0, 1}: most windows hold repeated maxima, many
        # of them a tie between -0 and +0; a few windows hold NaN
        x = (np.floor(Rng(20).uniform((2, 3, 11, 10)) * 3) - 1).astype(dtype)
        x[(x == 0) & (Rng(21).uniform(x.shape) < 0.5)] = -0.0
        x[Rng(22).uniform(x.shape) < 0.04] = np.nan
        dy = Rng(23).normal(max_pool_forward(x, kernel, 2).shape).astype(dtype)
        dy[0, 0, 0, 0], dy[1, 2, 1, 1], dy[0, 1, 2, 2] = np.inf, np.nan, -np.inf
        want_y, want_dx = max_pool_oracle(x, dy, kernel, 2)
        assert np.isnan(want_y).any() and (np.signbit(want_y) & (want_y == 0)).any()
        for budget in (layers._POOL_BLOCK_BYTES, 1):
            with _block_budget(budget):
                y, arg = max_pool_forward(x, kernel, 2, winners=True)
                assert arg.dtype == np.uint8 and y.tobytes() == want_y.tobytes()
                assert max_pool_forward(x, kernel, 2).tobytes() == want_y.tobytes()
                assert max_pool_backward(dy, arg, x.shape, kernel, 2).tobytes() \
                    == want_dx.tobytes()


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_backward_from_output(self, dtype, p):
        """From the output (times the dropout scale, with the dropout's
        dy), dx is the input path's bytes except where a negative
        subnormal x rounds to a * x = -0, and da is within 32 eps of the
        sum of |min(x, 0) * dy| per channel."""
        x = Rng(30).normal((2, 4, 32, 32)).astype(dtype)
        x[:, :, ::5] = 0.0
        x[:, :, 1::5] = -0.0
        x[1, :, 2, :4] = -np.finfo(dtype).smallest_subnormal
        a = np.array([0.3, 0.25, 1.7, 3.0], dtype=dtype)
        z, keep = dropout_forward(prelu_forward(x, a), p, Rng(31))
        dy = dropout_backward(Rng(32).normal(x.shape).astype(dtype), keep, p)
        scale = dropout_scale(dtype, p)
        dx_in, da_in = prelu_backward(dy, x, a)
        dx, da = prelu_backward(dy, z, a, out_scale=scale)
        lost = (x < 0) & (a.reshape(1, -1, 1, 1) * x == 0)
        assert lost.sum() == 8  # slopes 0.3 and 0.25 on the planted subnormals
        assert dx[~lost].tobytes() == dx_in[~lost].tobytes()
        assert dx[lost].tobytes() == dy[lost].tobytes()
        bound = 32 * np.finfo(dtype).eps * np.abs(np.minimum(x, 0) * dy).sum(axis=(0, 2, 3))
        assert np.all(da_in != 0) and np.all(np.abs(da - da_in) <= bound)

    def test_backward_from_output_needs_positive_slopes(self):
        x = Rng(33).normal((1, 2, 4, 4))
        for a in ([0.25, 0.0], [0.25, -0.5]):
            with pytest.raises(ValueError, match="positive slopes"):
                prelu_backward(x, x, np.array(a), out_scale=1.0)


class TestDropout:
    def test_p_zero_identity(self):
        x = Rng(13).normal((1, 2, 4, 4))
        y, mask = dropout_forward(x, 0.0, Rng(1))
        assert np.array_equal(y, x)
        assert mask is None

    def test_eval_identity(self):
        x = Rng(14).normal((1, 2, 4, 4))
        y, mask = dropout_forward(x, 0.7, None)
        assert np.array_equal(y, x)
        assert mask is None

    def test_keep_fraction_and_scaling(self):
        x = np.ones((1, 1, 100, 100))
        y, mask = dropout_forward(x, 0.5, Rng(15))
        kept = float((mask > 0).mean())
        assert abs(kept - 0.5) < 0.02
        assert abs(float(y.mean()) - 1.0) < 0.03  # inverted scaling keeps E[out] = x

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            dropout_forward(np.zeros((1, 1, 1, 1)), 1.0, Rng(0))

    # 0.9 * 2**53 and 0.5 * 2**53 are integers, 0.1 * 2**53 and 2**53 / 3 are not
    @pytest.mark.parametrize("p", [0.1, 0.25, 1 / 3, 0.5, 0.9, 1 - 2.0 ** -53, 2.0 ** -50])
    def test_mask_is_uniform_threshold(self, p):
        shape = (2, 3, 17, 19)
        _, keep = dropout_forward(np.ones(shape, np.float32), p, Rng(21))
        assert keep.dtype == bool
        assert np.array_equal(keep, Rng(21).uniform(shape) >= p)

    # 0.75 * 2**53 is an integer, so a draw there is uniform == p; 0.1 * 2**53
    # is not, so the threshold rounds up
    @pytest.mark.parametrize("p", [0.75, 0.1])
    def test_mask_threshold_at_the_draw_boundary(self, p):
        # raw draws on both sides of ceil(p * 2**53) << 11
        t = math.ceil(p * 2 ** 53)
        raw = np.array([(t - 1) << 11 | 2047, t << 11, t << 11 | 1, (t + 1) << 11],
                       dtype=np.uint64)

        class Fixed(Rng):
            def _raw(self, n):
                return raw[:n].copy()
        _, keep = dropout_forward(np.ones((1, 1, 1, 4)), p, Fixed(0))
        assert keep.ravel().tolist() == [False, True, True, True]
        assert (Fixed(0).uniform((4,)) >= p).tolist() == [False, True, True, True]

    @pytest.mark.parametrize("p", [0.1, 1 / 3, 0.5, 0.9])
    def test_float32_matches_float_mask_formulas(self, p):
        # the bool mask keeps y and dx of mask = keep / (1 - p) in float32,
        # down to the sign of a dropped zero and NaN from a dropped inf
        shape = (2, 4, 16, 16)
        x = Rng(22).normal(shape).astype(np.float32)
        dy = Rng(23).normal(shape).astype(np.float32)
        special = [np.inf, -np.inf, np.nan, -0.0, 0.0, -1e-45, 3e38, -3e38]
        x.ravel()[:len(special)] = dy.ravel()[-len(special):] = special
        mask = (Rng(24).uniform(shape) >= p).astype(np.float32)
        mask = mask / np.asarray(1.0 - p, dtype=np.float32)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, 3e38 / (1 - p)
            y, keep = dropout_forward(x, p, Rng(24))
            pairs = ((y, x * mask), (dropout_backward(dy, keep, p), dy * mask))
        for got, want in pairs:
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

