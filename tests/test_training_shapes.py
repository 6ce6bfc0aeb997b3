"""Float32 layer results at the shapes of one image's forward and backward
in a full-topology 416x416 training step (the `train-full` benchmark's,
which runs its batch of 2 one image at a time), byte for byte against
reference formulas:

- dropout: the float mask (Rng.uniform >= p) / (1 - p), applied as x * mask
  and dy * mask;
- PReLU: np.where(x < 0, a * dy, dy) and the sum of np.where(x < 0,
  x * dy, 0) per channel;
- max pool: the window-by-window oracle of the `max-pool-oracle` suite;
- conv and deconv weight gradients: one GEMM dy(O, Ho*Wo) @ columns.T
  over every column at once, the transpose of what `_weight_grad` computes
  block by block.  Each entry is one dot over Ho*Wo either way; that the
  two GEMM orientations and any split of the other axes round alike is a
  property of the BLAS, checked here on OpenBLAS.
"""

import numpy as np
import pytest

from intrinsics import layers
from intrinsics.layers import ConvSpec
from intrinsics.rng import Rng
from intrinsics.verify import max_pool_oracle

N = 1


def f32(seed, shape):
    """Uniform in [-1, 1): cheaper to draw than normals at these sizes."""
    return (Rng(seed).uniform(shape) * 2 - 1).astype(np.float32)


def weight_grad_dy_cols(dy, x, spec, w_shape):
    win = layers._windows(x, spec)
    cols = np.ascontiguousarray(win).reshape(-1, win.shape[3] * win.shape[4])
    return (dy.reshape(dy.shape[1], -1) @ cols.T).reshape(w_shape)


# the 14 weight gradients of the step come in these 10 (input, spec) shapes
CONVS = [
    ("s1.conv1", (3, 416, 416), ConvSpec(3, 96, 11, 11, 4, 4, 5, 5)),
    ("s1.conv2", (96, 52, 52), ConvSpec(96, 256, 5, 5, 1, 1, 2, 2)),
    ("s1.conv3", (256, 26, 26), ConvSpec(256, 384, 3, 3, 1, 1, 1, 1)),
    ("s1.conv4", (384, 26, 26), ConvSpec(384, 384, 3, 3, 1, 1, 1, 1)),
    ("s1.conv5", (384, 26, 26), ConvSpec(384, 256, 3, 3, 1, 1, 1, 1)),
    ("s1.conv6", (256, 13, 13), ConvSpec(256, 64, 1, 1)),
    ("s2.conv1", (3, 416, 416), ConvSpec(3, 96, 9, 9, 2, 2, 4, 4)),
    ("s2.conv2", (160, 104, 104), ConvSpec(160, 64, 5, 5, 1, 1, 2, 2)),
    ("s2.conv3, s2.conv4, heads' conv", (64, 104, 104), ConvSpec(64, 64, 5, 5, 1, 1, 2, 2)),
]
DECONV = ConvSpec(3, 64, 8, 8, 4, 4, 2, 2)  # both heads: 1x64x104x104 -> 3x416x416


@pytest.mark.parametrize("name,in_shape,spec", CONVS, ids=[c[0] for c in CONVS])
def test_conv_weight_gradient(name, in_shape, spec):
    x = f32(1, (N, *in_shape))
    dy = f32(2, (N, spec.out_channels, *spec.out_extent(*in_shape[1:])))
    w_shape = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
    got = layers.conv_backward(dy, x, np.zeros(w_shape, np.float32), spec,
                               input_grad=False)[1]
    assert got.tobytes() == weight_grad_dy_cols(dy, x, spec, w_shape).tobytes()


def test_deconv_weight_gradient():
    x = f32(3, (N, 64, 104, 104))
    dy = f32(4, (N, 3, 416, 416))
    w = np.zeros((64, 3, 8, 8), np.float32)
    got = layers.deconv_backward(dy, x, w, DECONV)[1]
    assert got.tobytes() == weight_grad_dy_cols(x, dy, DECONV, w.shape).tobytes()


# conv outputs that PReLU follows: s1.conv1-5, s2.conv1, and 64 x 104^2 for
# s1.conv6, s2.conv2-4 and the heads' conv
@pytest.mark.parametrize("shape", [(96, 104, 104), (256, 52, 52), (384, 26, 26),
                                   (256, 26, 26), (96, 208, 208), (64, 104, 104)])
def test_prelu_gradients(shape):
    x = f32(5, (N, *shape))
    x[:, :, ::7] = 0.0
    x[:, :, 1::7] = -0.0
    dy = f32(6, x.shape)
    a = (Rng(7).uniform((shape[0],)) * 0.5).astype(np.float32)
    dx, da = layers.prelu_backward(dy, x, a)
    neg = x < 0
    assert dx.tobytes() == np.where(neg, a.reshape(1, -1, 1, 1) * dy, dy).tobytes()
    assert da.tobytes() == np.where(neg, x * dy, 0.0).sum(axis=(0, 2, 3)).tobytes()


# pool inputs: s1.conv1, s1.conv2 and s1.conv5 (3x3/2), s2.conv1 (2x2/2)
@pytest.mark.parametrize("shape,kernel", [((96, 104, 104), 3), ((256, 52, 52), 3),
                                          ((256, 26, 26), 3), ((96, 208, 208), 2)])
def test_max_pool_input_gradient(shape, kernel):
    x = np.round(f32(8, (N, *shape)) * 4) / 4  # quarter steps: many windows tie
    y, arg = layers.max_pool_forward(x, kernel, 2, winners=True)
    dy = f32(9, y.shape)
    want_y, want_dx = max_pool_oracle(x, dy, kernel, 2)
    assert y.tobytes() == want_y.tobytes()
    assert layers.max_pool_backward(dy, arg, x.shape, kernel, 2).tobytes() == want_dx.tobytes()


# dropout inputs: s1.conv6, s2.conv2-4 and the heads' conv (64 channels), the
# scale-2 pool (96 channels); p is the README default
@pytest.mark.parametrize("channels", [64, 96])
def test_dropout(channels):
    shape, p = (N, channels, 104, 104), 0.5
    x, dy = f32(10, shape), f32(11, shape)
    y, keep = layers.dropout_forward(x, p, Rng(12))
    mask = (Rng(12).uniform(shape) >= p).astype(np.float32)
    mask = mask / np.asarray(1.0 - p, dtype=np.float32)
    assert keep.dtype == bool and np.array_equal(keep, mask > 0)
    assert y.tobytes() == (x * mask).tobytes()
    assert layers.dropout_backward(dy, keep, p).tobytes() == (dy * mask).tobytes()
