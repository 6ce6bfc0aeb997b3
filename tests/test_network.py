import re
import tracemalloc

import numpy as np
import pytest

from intrinsics import layers, network
from intrinsics.losses import LossConfig, total_loss
from intrinsics.network import Network, NetworkConfig, _Var, build_network
from intrinsics.rng import Rng
from intrinsics.verify import GRAD_TOL, NETWORK_H

EPS32 = np.finfo(np.float32).eps


def tiny_net(seed=0, dtype=np.float64, **kw):
    cfg = NetworkConfig(channel_scale=1 / 16, **kw)
    return build_network(cfg, Rng(seed), dtype=dtype)


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = tiny_net(seed=5)
        b = tiny_net(seed=5)
        assert list(a.params) == list(b.params)
        for name, p in a.params.items():
            assert np.array_equal(p.value, b.params[name].value)

    def test_different_seed_differs(self):
        a = tiny_net(seed=5)
        b = tiny_net(seed=6)
        assert not np.array_equal(a.params["s1.conv1.weight"].value,
                                  b.params["s1.conv1.weight"].value)

    def test_scale2_identical_across_variants(self):
        plain = tiny_net(seed=1, use_hypercolumn=False)
        hc = tiny_net(seed=1, use_hypercolumn=True)
        names_p = list(plain.params)
        assert names_p == list(hc.params)
        for name in names_p:
            a = plain.params[name].value
            b = hc.params[name].value
            if name.startswith("s1.conv6"):
                continue  # only conv6's input width may differ
            assert a.shape == b.shape, name
        assert (plain.params["s1.conv6.weight"].value.shape[1]
                != hc.params["s1.conv6.weight"].value.shape[1])

    def test_invalid_channel_scale(self):
        with pytest.raises(ValueError):
            NetworkConfig(channel_scale=0.0)

    @pytest.mark.parametrize("m", [16, 48, 0, -32])
    def test_input_multiple_not_of_the_total_stride_rejected(self, m):
        """conv1's stride 4 and three stride-2 pools: at 48x48, which 16
        divides, conv6's upsampled output is 8x8 where scale 2's is 12x12."""
        with pytest.raises(ValueError, match="input_multiple must be a positive multiple of 32"):
            NetworkConfig(input_multiple=m)


class TestForward:
    def test_nonsquare_input(self):
        net = tiny_net(seed=2, dtype=np.float32)
        la, ls = net.forward(Rng(4).uniform((1, 3, 96, 160)))
        assert la.shape == (1, 3, 96, 160)

    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_non_multiple_is_the_crop_of_the_edge_padded_forward(self, train):
        """At 70x65 forward pads to 96x96 itself: its float32 outputs are the
        bytes of the crop of a forward on the edge-padded input, with the
        same dropout masks in training mode."""
        net = tiny_net(seed=2, dtype=np.float32, dropout_prob=0.5)
        x = Rng(4).uniform((1, 3, 70, 65))
        padded = np.pad(x, ((0, 0), (0, 0), (0, 26), (0, 31)), mode="edge")
        got = net.forward(x, rng=Rng(5) if train else None)[:2]
        want = net.forward(padded, rng=Rng(5) if train else None)[:2]
        for g, w in zip(got, want):
            assert g.shape == (1, 3, 70, 65)
            assert g.tobytes() == w[:, :, :70, :65].tobytes()

    def test_pad_allocates_only_the_padded_input(self, monkeypatch):
        """Casting and edge-padding a 436x1024 float64 frame allocates one
        448x1024 float32 array (5.5 MB).  A cast copy padded by ``np.pad``
        peaked at twice that."""
        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        net = tiny_net(seed=2, dtype=np.float32)
        x = Rng(4).uniform((1, 3, 436, 1024))
        monkeypatch.setattr(network.Network, "_block", stop)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 3 * 448 * 1024 * 4, f"the pad peaked at {peak / 1e6:.1f} MB"

    def test_eval_deterministic(self):
        net = tiny_net(seed=3, dtype=np.float32)
        x = Rng(5).uniform((1, 3, 64, 64))
        a1, s1 = net.forward(x)
        a2, s2 = net.forward(x)
        assert np.array_equal(a1, a2)
        assert np.array_equal(s1, s2)

    def test_dropout_rng_varies_with_seed(self):
        net = tiny_net(seed=3, dtype=np.float32)
        x = Rng(5).uniform((1, 3, 64, 64))
        a1 = net.forward(x, rng=Rng(1))[0]
        a2 = net.forward(x, rng=Rng(2))[0]
        a3 = net.forward(x, rng=Rng(1))[0]
        assert not np.array_equal(a1, a2)
        assert np.array_equal(a1, a3)

    def test_outputs_finite(self):
        net = tiny_net(seed=7, dtype=np.float32)
        la, ls = net.forward(Rng(8).uniform((1, 3, 32, 32)))
        assert np.all(np.isfinite(la)) and np.all(np.isfinite(ls))

    @pytest.mark.parametrize("hc", [False, True], ids=["plain", "hypercolumn"])
    @pytest.mark.parametrize("deconv", [False, True], ids=["bilinear", "deconv"])
    def test_dropout_never_touches_a_prediction(self, hc, deconv, monkeypatch):
        """A training forward drops out conv6 and s2.conv1-conv4, plus each
        deconv head's hidden conv, and never a 3-channel prediction.  At 1/16
        width no hidden width is 3."""
        widths = []
        orig = network.dropout_forward

        def spy(x, p, rng):
            widths.append(x.shape[1])
            return orig(x, p, rng)

        monkeypatch.setattr(network, "dropout_forward", spy)
        net = tiny_net(seed=16, dtype=np.float32, use_hypercolumn=hc,
                       use_deconv_head=deconv, dropout_prob=0.5)
        net.forward(Rng(17).uniform((1, 3, 32, 32)), rng=Rng(18))
        assert 3 not in widths
        assert len(widths) == 5 + 2 * deconv


def grad_bytes(net):
    """Every parameter gradient, as bytes."""
    return [p.grad.tobytes() for p in net.params.values()]


class TestBackward:
    def test_backward_consumes_the_tape(self):
        net = tiny_net(seed=9)
        _, _, tape = net.forward(Rng(10).uniform((1, 3, 32, 32)), rng=Rng(11))
        zeros = np.zeros((1, 3, 32, 32))
        net.backward(zeros, zeros, tape)
        assert tape == []
        with pytest.raises(ValueError, match=re.escape("the tape is empty (a tape is replayed once")):
            net.backward(zeros, zeros, tape)

    def test_eval_forward_leaves_no_tape(self):
        """A forward without an rng returns the two maps and no tape, and
        one run between a training forward and its backward changes no
        byte of that backward."""
        net = tiny_net(seed=9, dtype=np.float32, use_hypercolumn=True, dropout_prob=0.5)
        x = Rng(10).uniform((1, 3, 32, 32))
        da = Rng(11).normal((1, 3, 32, 32))
        ds = Rng(12).normal((1, 3, 32, 32))
        runs = []
        for interleave in (False, True):
            net.zero_grads()
            _, _, tape = net.forward(x, rng=Rng(13))
            if interleave:
                outs = net.forward(Rng(14).uniform((1, 3, 40, 37)))
                assert [o.shape for o in outs] == [(1, 3, 40, 37)] * 2
            net.backward(da, ds, tape)
            runs.append(grad_bytes(net))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("hc", [False, True], ids=["plain", "hypercolumn"])
    @pytest.mark.parametrize("deconv", [False, True], ids=["bilinear", "deconv"])
    def test_two_tapes_in_flight(self, hc, deconv):
        """Two training forwards, at different extents, then their two
        backwards in reverse order: each gives the bytes of its forward
        and backward run alone, float32, dropout 0.5.  No attribute of the
        network is added or rebound on the way."""
        net = tiny_net(seed=9, dtype=np.float32, use_hypercolumn=hc,
                       use_deconv_head=deconv, dropout_prob=0.5)
        shapes = [(1, 3, 32, 32), (1, 3, 40, 37)]
        xs = [Rng(10 + i).uniform(shape) for i, shape in enumerate(shapes)]
        dys = [(Rng(20 + i).normal(shape), Rng(30 + i).normal(shape))
               for i, shape in enumerate(shapes)]
        state = {k: id(v) for k, v in vars(net).items()}
        alone = []
        for i, x in enumerate(xs):
            net.zero_grads()
            _, _, tape = net.forward(x, rng=Rng(40 + i))
            net.backward(*dys[i], tape)
            alone.append(grad_bytes(net))
        tapes = [net.forward(x, rng=Rng(40 + i))[2] for i, x in enumerate(xs)]
        for i in (1, 0):
            net.zero_grads()
            net.backward(*dys[i], tapes[i])
            assert grad_bytes(net) == alone[i], i
        assert {k: id(v) for k, v in vars(net).items()} == state

    # (input extents, a wrong output-gradient shape)
    BAD = [((32, 32), (1, 3, 1, 1)), ((32, 32), (1, 3, 16, 16)), ((40, 37), (1, 3, 64, 64)),
           ((40, 37), (1, 3, 37, 40)), ((40, 37), (2, 3, 40, 37)), ((40, 37), (1, 1, 40, 37))]

    @pytest.mark.parametrize("hw,bad", BAD, ids=["x".join(map(str, b)) for _, b in BAD])
    @pytest.mark.parametrize("deconv", [False, True], ids=["bilinear", "deconv"])
    def test_output_gradient_of_the_wrong_shape_rejected(self, deconv, hw, bad):
        """An output gradient of any shape but (1, 3, H, W) at the forward's
        input extents raises naming both shapes, and no parameter gradient
        moves.  The bilinear head's einsum would broadcast a (1, 3, 1, 1)
        gradient after a 32x32 forward; 40x37 pads to 64x64.  The tape is
        left whole: the right gradients then give the bytes of a backward
        run alone."""
        net = tiny_net(seed=9, dtype=np.float32, use_deconv_head=deconv, dropout_prob=0.5)
        x = Rng(10).uniform((1, 3, *hw))
        good = Rng(11).normal((1, 3, *hw))
        _, _, tape = net.forward(x, rng=Rng(12))
        net.backward(good, good, tape)
        want = grad_bytes(net)
        before = [p.grad.tobytes() for p in net.params.values()]
        _, _, tape = net.forward(x, rng=Rng(12))
        for da, ds in [(np.zeros(bad), good), (good, np.zeros(bad))]:
            message = (f"output gradients {[da.shape, ds.shape]} do not match the "
                       f"outputs' {(1, 3, *hw)}")
            with pytest.raises(ValueError, match=re.escape(message)):
                net.backward(da, ds, tape)
            assert [p.grad.tobytes() for p in net.params.values()] == before
        net.zero_grads()
        net.backward(good, good, tape)
        assert grad_bytes(net) == want

    def test_rng_only_draws_masks_at_zero_dropout(self):
        """At dropout_prob 0, training forwards given different rngs record
        tapes whose backward gives the same bytes."""
        net = tiny_net(seed=9, dtype=np.float32, use_hypercolumn=True, dropout_prob=0.0)
        x = Rng(10).uniform((1, 3, 32, 32))
        da = Rng(11).normal((1, 3, 32, 32))
        ds = Rng(12).normal((1, 3, 32, 32))
        grads = []
        for seed in (13, 14):
            net.zero_grads()
            _, _, tape = net.forward(x, rng=Rng(seed))
            net.backward(da, ds, tape)
            grads.append(grad_bytes(net))
        assert grads[0] == grads[1]

    def test_zero_upstream_zero_grads(self):
        net = tiny_net(seed=9)
        x = Rng(10).uniform((1, 3, 32, 32))
        _, _, tape = net.forward(x, rng=Rng(11))
        assert net.backward(np.zeros((1, 3, 32, 32)), np.zeros((1, 3, 32, 32)), tape) is None
        for p in net.params.values():
            assert np.all(p.grad == 0.0)

    def test_gradients_accumulate_linearly(self):
        net = tiny_net(seed=9, dropout_prob=0.0)
        x = Rng(10).uniform((1, 3, 32, 32))
        da = Rng(11).normal((1, 3, 32, 32))
        ds = Rng(12).normal((1, 3, 32, 32))

        net.backward(da, ds, net.forward(x, rng=Rng(13))[2])
        net.backward(da, ds, net.forward(x, rng=Rng(14))[2])
        twice = {n: p.grad.copy() for n, p in net.params.items()}

        net.zero_grads()
        net.backward(2 * da, 2 * ds, net.forward(x, rng=Rng(15))[2])
        for n, p in net.params.items():
            assert np.allclose(twice[n], p.grad, rtol=1e-10, atol=1e-12), n

    @pytest.mark.parametrize("hc", [False, True])
    @pytest.mark.parametrize("deconv", [False, True])
    def test_convs_on_the_image_compute_no_input_gradient(self, hc, deconv, monkeypatch):
        """One training forward and backward: the two convs that read the
        image, s1.conv1 and s2.conv1, run their backward with
        input_grad=False, and every other conv returns an input gradient."""
        net = tiny_net(seed=9, dtype=np.float32, use_hypercolumn=hc,
                       use_deconv_head=deconv, dropout_prob=0.5)
        calls = []  # (spec id, input_grad, an input gradient returned)
        orig = network.conv_backward

        def spy(*args, **kwargs):
            out = orig(*args, **kwargs)
            calls.append((id(args[3]), kwargs.get("input_grad", True), out[0] is not None))
            return out

        monkeypatch.setattr(network, "conv_backward", spy)
        x = Rng(10).uniform((1, 3, 32, 32))
        _, _, tape = net.forward(x, rng=Rng(13))
        net.backward(Rng(11).normal(x.shape), Rng(12).normal(x.shape), tape)
        image = sorted(id(net.specs[name]) for name in ("s1.conv1", "s2.conv1"))
        assert sorted(spec for spec, asked, _ in calls if not asked) == image
        assert all(asked == returned for _, asked, returned in calls)
        assert len(calls) == 12 + 2 * hc  # conv6 runs once per hypercolumn group

    @pytest.mark.parametrize("hc", [False, True], ids=["plain", "hypercolumn"])
    @pytest.mark.parametrize("deconv", [False, True], ids=["bilinear", "deconv"])
    def test_parameter_gradients_through_the_pad(self, hc, deconv):
        """At 40x37, which forward pads to 64x64, the weight gradients of
        s1.conv1, s2.conv1, s2.conv4 and each head's last layer match
        central differences of the total loss at their first, middle and
        last entry, float64.  Every forward draws the same dropout masks
        from one fixed-seed rng."""
        net = tiny_net(seed=21, use_hypercolumn=hc, use_deconv_head=deconv)
        rng = Rng(22)
        x = rng.uniform((1, 3, 40, 37))
        ta, ts = rng.normal((2, 1, 3, 40, 37)) * 0.1
        mask = np.ones((1, 1, 40, 37))
        cfg = LossConfig(lam=0.5, use_gradient_loss=True)

        def loss():
            return total_loss(ta, ts, *net.forward(x, rng=Rng(23))[:2], mask, cfg)[0]

        la, ls, tape = net.forward(x, rng=Rng(23))
        _, da, ds = total_loss(ta, ts, la, ls, mask, cfg)
        net.backward(da, ds, tape)
        last = "deconv" if deconv else "conv"
        for name in ("s1.conv1", "s2.conv1", "s2.conv4", f"albedo.{last}", f"shading.{last}"):
            p = net.params[f"{name}.weight"]
            v, grad = p.value.reshape(-1), p.grad.reshape(-1)
            for k in (0, v.size // 2, v.size - 1):
                saved = v[k]
                v[k] = saved + NETWORK_H
                fp = loss()
                v[k] = saved - NETWORK_H
                numeric = (fp - loss()) / (2 * NETWORK_H)
                v[k] = saved
                err = abs(grad[k] - numeric) / max(abs(numeric), 1e-8)
                assert err < GRAD_TOL, (name, k, grad[k], numeric)


class TestTape:
    def test_tape_holds_under_40_mb_per_sample(self):
        """What one full-topology 416x416 train-mode forward leaves on the
        tape: conv inputs, bit-packed dropout masks and uint8 pool winners,
        about 27.0 MB (31.5 MB with bool masks).  A tape that kept every
        PReLU and pool input and conv6's x8 upsampled input held about
        112 MB.  The test holds the returned tape while it measures;
        dropping it would read 0 MB."""
        net = build_network(NetworkConfig(dropout_prob=0.5), Rng(0))
        x = Rng(1).uniform((1, 3, 416, 416)).astype(np.float32)
        tracemalloc.start()
        try:
            *outs, tape = net.forward(x, rng=Rng(2))
            del outs
            held = tracemalloc.get_traced_memory()[0]
            assert len(tape) > 1
        finally:
            tracemalloc.stop()
        assert held < 40e6, f"the tape holds {held / 1e6:.1f} MB"

    def test_tape_holds_an_eighth_byte_per_dropout_cell(self):
        """A training forward at dropout 0.5 holds its masks as bits: at 1/4
        width and 128x128, 120 dropout channels of 32x32 cells (s1.conv6,
        s2.conv1-4 and the heads' conv) add at most about cells / 8 bytes of
        array data to the tape held at dropout 0.  Bool masks added one byte
        per cell.  Only numpy's buffers are counted: the Python objects a
        forward leaves behind (closures, numpy's einsum caches) vary by a
        few KB with what ran before, as much as the slack allowed here."""
        numpy_data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        held = []
        for p in (0.0, 0.5):
            net = build_network(NetworkConfig(channel_scale=0.25, dropout_prob=p), Rng(0))
            x = Rng(1).uniform((1, 3, 128, 128)).astype(np.float32)
            tracemalloc.start()
            try:
                *outs, tape = net.forward(x, rng=Rng(2))
                del outs
                traces = tracemalloc.take_snapshot().filter_traces(numpy_data).traces
                held.append(sum(t.size for t in traces))
            finally:
                tracemalloc.stop()
        w = net.widths
        cells = (w["c6"] + w["s2c1"] + 3 * w["mid"] + 2 * w["head"]) * 32 * 32
        assert cells == 120 * 32 * 32
        masks = held[1] - held[0]
        assert masks < cells / 8 + 2048, f"the masks take {masks} bytes for {cells} cells"

    def test_backward_peaks_under_36_mb_above_the_tape(self):
        """What a full-topology 416x416 train step's backward allocates on
        top of the tape and its own output gradients: about 29 MB, set in
        the shading head's conv backward.
        Unpooling the pool's output for a full-size PReLU backward made
        s2.conv1's backward the peak, at about 44 MB."""
        net = build_network(NetworkConfig(dropout_prob=0.5), Rng(0))
        x = Rng(1).uniform((1, 3, 416, 416)).astype(np.float32)
        tracemalloc.start()
        try:
            *outs, tape = net.forward(x, rng=Rng(2))
            dys = [Rng(3 + i).normal(o.shape).astype(np.float32) for i, o in enumerate(outs)]
            del outs
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            net.backward(*dys, tape)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 36e6, f"backward peaks {peak / 1e6:.1f} MB above the tape"

    def test_pooled_block_backward_copies_no_gradient(self):
        """Full-width s2.conv1 at 1x3x64x64, input gradient declined: its
        step's backward peaks at about 1.64 MB, which is the conv output
        gradient (0.39 MB), the column buffer of 81 taps of the 3 image
        channels (1.0 MB), the padded image (0.06 MB) and small
        temporaries.  A weight gradient that copied the pool's dx into its
        (C, H*W) matrix would add the 0.39 MB of that copy."""
        net = Network(NetworkConfig(dropout_prob=0.5), None)
        w = net.params["s2.conv1.weight"].value
        w[...] = Rng(1).normal(w.shape) * 0.05
        x = Rng(2).uniform((1, 3, 64, 64)).astype(np.float32)
        tape = [(None, ())]
        out = net._block("s2.conv1", [_Var(x, tape, 0)], pool=(2, 2), drop=Rng(3))
        dy = Rng(4).normal(out.value.shape).astype(np.float32)
        tracemalloc.start()
        try:
            tape[-1][0](dy, input_grad=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8e6, f"the pooled block's backward peaks at {peak / 1e6:.2f} MB"


def run_block(net, name, x, pool=None, drop=False, seed=40):
    """One recorded layer step and its backward on a fresh tape: (output,
    input gradient, {weight, bias, slope gradients})."""
    tape = [(None, ())]
    out = net._block(name, [_Var(x, tape, 0)], pool=pool,
                     drop=Rng(seed) if drop else None)
    dy = Rng(seed + 1).normal(out.value.shape).astype(x.dtype)
    net.zero_grads()
    (dx,) = tape[-1][0](dy)
    grads = {k: net.params[f"{name}.{k}"].grad.copy() for k in ("weight", "bias", "slope")
             if f"{name}.{k}" in net.params}
    return out.value, dx, grads, dy


def input_path(net, name, x, dy, pool=None, drop=False, seed=40):
    """The same layer composed from the layer functions, with the PReLU
    backward reading its input: (output, input gradient, gradients, and
    per channel the sum of |min(PReLU input, 0) * its dy|)."""
    w, b, a = (net.params[f"{name}.{k}"].value for k in ("weight", "bias", "slope"))
    spec, p = net.specs[name], net.cfg.dropout_prob
    pre = layers.conv_forward(x, w, b, spec)
    y = layers.prelu_forward(pre, a)
    if pool:
        y, arg = layers.max_pool_forward(y, *pool, winners=True)
    if drop:
        y, keep = layers.dropout_forward(y, p, Rng(seed))
        dy = layers.dropout_backward(dy, keep, p)
    if pool:
        dy = layers.max_pool_backward(dy, arg, pre.shape, *pool)
    d, da = layers.prelu_backward(dy, pre, a)
    dx, dw, db = layers.conv_backward(d, x, w, spec)
    mass = np.abs(np.minimum(pre, 0) * dy).sum(axis=(0, 2, 3))
    return y, dx, {"weight": dw, "bias": db, "slope": da}, mass


def pooled_grid_path(net, name, x, dy, pool, drop=False, seed=40):
    """The same layer with the PReLU backward on the pooled grid, before the
    pool's, reading the layer's output: ({input, weight, bias gradients},
    the same composed from absolute values, and for each cell with a
    negative PReLU input the windows it won and the kept ones among them)."""
    w, b, a = (net.params[f"{name}.{k}"].value for k in ("weight", "bias", "slope"))
    spec, p = net.specs[name], net.cfg.dropout_prob
    pre = layers.conv_forward(x, w, b, spec)
    y, arg = layers.max_pool_forward(layers.prelu_forward(pre, a), *pool, winners=True)
    keep, scale = np.ones(y.shape, bool), 1.0
    if drop:
        y, keep = layers.dropout_forward(y, p, Rng(seed))
        dy = layers.dropout_backward(dy, keep, p)
        scale = layers.dropout_scale(y.dtype, p)
    d, _ = layers.prelu_backward(dy, y, a, out_scale=scale)
    mag = np.abs(dy) * np.where(y < 0, a.reshape(1, -1, 1, 1), 1)
    keys = ("input", "weight", "bias")
    got = layers.conv_backward(layers.max_pool_backward(d, arg, pre.shape, *pool), x, w, spec)
    mags = layers.conv_backward(layers.max_pool_backward(mag, arg, pre.shape, *pool),
                                np.abs(x), np.abs(w), spec)
    won, kept = (layers.max_pool_backward(v.astype(x.dtype), arg, pre.shape, *pool)[pre < 0]
                 for v in (np.ones(y.shape, bool), keep))
    return dict(zip(keys, got)), dict(zip(keys, mags)), won, kept


def negative_winners(net, name):
    """Slopes in [0.30, 0.55), which are not powers of two, and a bias of
    -1.5, so that most PReLU inputs are negative and some of them win
    several windows of an overlapping pool."""
    a = net.params[f"{name}.slope"].value
    a[:] = 0.30 + 0.25 * Rng(30).uniform(a.shape)
    net.params[f"{name}.bias"].value[:] = -1.5


class TestBlock:
    # (layer, input channels, input extent, pool, dropout)
    CASES = [("s1.conv1", 3, 32, (3, 2), False), ("s2.conv1", 3, 32, (2, 2), True),
             ("s2.conv2", 10, 8, None, True), ("s1.conv3", 16, 4, None, False)]

    @pytest.mark.parametrize("nonpositive", [False, True])
    @pytest.mark.parametrize("name,cin,hw,pool,drop", CASES, ids=[c[0] for c in CASES])
    def test_prelu_from_output_matches_input_path(self, name, cin, hw, pool, drop,
                                                  nonpositive):
        """With positive slopes every gradient is the input path's bytes
        except the slope gradient, within 32 eps of its mass; a layer with a
        slope of 0 or below keeps its PReLU input and matches byte for byte."""
        net = tiny_net(seed=11, dtype=np.float32, dropout_prob=0.5)
        if nonpositive:
            net.params[f"{name}.slope"].value[:2] = (0.0, -0.5)
        x = Rng(12).normal((1, cin, hw, hw)).astype(np.float32)
        y, dx, grads, dy = run_block(net, name, x, pool, drop)
        want_y, want_dx, want, mass = input_path(net, name, x, dy, pool, drop)
        assert y.tobytes() == want_y.tobytes() and dx.tobytes() == want_dx.tobytes()
        assert grads["weight"].tobytes() == want["weight"].tobytes()
        assert grads["bias"].tobytes() == want["bias"].tobytes()
        if nonpositive:
            assert grads["slope"].tobytes() == want["slope"].tobytes()
        else:
            bound = 32 * np.finfo(np.float32).eps * mass
            assert np.all(np.abs(grads["slope"] - want["slope"]) <= bound)

    # CASES, plus s1.conv1's overlapping pool with dropout after it
    GRID_CASES = CASES + [("s1.conv1", 3, 32, (3, 2), True)]

    @pytest.mark.parametrize("name,cin,hw,pool,drop", GRID_CASES,
                             ids=[c[0] for c in CASES] + ["s1.conv1-dropout"])
    def test_pooled_grid_rounding(self, name, cin, hw, pool, drop):
        """With positive slopes the PReLU backward runs on the pooled grid, so
        a cell with a negative PReLU input that wins k windows gets
        sum(a * dy_i), where the input path forms a * sum(dy_i).  Both are
        within k rounding units of the exact value, scaled by
        sum(a * |dy_i|).  A 3x3 stride-2 pool gives a cell at most 4 windows,
        so the two differ by at most 4 eps of that scale.  The conv backward
        is linear and carries this to 4 eps of the same composition over
        absolute values; rounding the two inputs separately adds less than
        as much again at these sizes, hence 8 eps.  Without a pool, or
        with the 2x2 stride-2 pool, where no cell wins two windows, the
        bytes are the input path's.  With dropout after the 3x3 pool some
        negative cells win a kept and a dropped window."""
        net = tiny_net(seed=11, dtype=np.float32, dropout_prob=0.5)
        negative_winners(net, name)
        x = Rng(12).normal((1, cin, hw, hw)).astype(np.float32)
        y, dx, grads, dy = run_block(net, name, x, pool, drop)
        want_y, want_dx, want, mass = input_path(net, name, x, dy, pool, drop)
        assert y.tobytes() == want_y.tobytes()
        assert np.all(np.abs(grads["slope"] - want["slope"]) <= 32 * EPS32 * mass)
        got = {"input": dx, "weight": grads["weight"], "bias": grads["bias"]}
        want["input"] = want_dx
        if pool != (3, 2):
            for k, g in got.items():
                assert g.tobytes() == want[k].tobytes(), k
            return
        grid, mags, won, kept = pooled_grid_path(net, name, x, dy, pool, drop)
        assert (won >= 2).any()
        assert not drop or ((kept >= 1) & (kept < won)).any()
        for k, g in got.items():
            assert g.tobytes() == grid[k].tobytes(), k
            assert np.all(np.abs(g - want[k]) <= 8 * EPS32 * mags[k]), k

    @pytest.mark.parametrize("slope", [0.25, -0.5])
    def test_eval_prelu_runs_after_the_pool(self, slope, monkeypatch):
        """An eval step whose slopes are all positive pools the conv output
        and runs its PReLU on the pooled grid, with the bytes of PReLU ->
        pool.  A negative slope keeps PReLU -> pool, whose bytes pooling
        first would change."""
        net = tiny_net(seed=11, dtype=np.float32)
        name, pool = "s1.conv1", (3, 2)
        a = net.params[f"{name}.slope"].value
        a[0] = slope
        w, b = net.params[f"{name}.weight"].value, net.params[f"{name}.bias"].value
        x = Rng(12).normal((1, 3, 128, 96)).astype(np.float32)
        shapes = []

        def prelu(v, slopes, orig=network.prelu_forward):
            shapes.append(v.shape)
            return orig(v, slopes)

        monkeypatch.setattr(network, "prelu_forward", prelu)
        y = net._block(name, [_Var(x, None, -1)], pool=pool).value
        pre = layers.conv_forward(x, w, b, net.specs[name])
        want = layers.max_pool_forward(layers.prelu_forward(pre, a), *pool)
        assert y.tobytes() == want.tobytes()
        assert shapes == [want.shape if slope > 0 else pre.shape]
        if slope < 0:
            pooled_first = layers.prelu_forward(layers.max_pool_forward(pre, *pool), a)
            assert pooled_first.tobytes() != want.tobytes()

    def test_bilinear_head_upsamples_in_its_block(self):
        """The bilinear head's predictor is one step: its conv, then the
        fixed x4 upsample, with no PReLU.  Float32 output and input, weight
        and bias gradients are the bytes of the composed layer functions."""
        net = tiny_net(seed=11, dtype=np.float32, use_deconv_head=False)
        name = "albedo.conv"
        net.params[f"{name}.bias"].value[:] = Rng(14).normal((3,))
        x = Rng(12).normal((1, net.widths["mid"], 8, 6)).astype(np.float32)
        y, dx, grads, dy = run_block(net, name, x)
        w, b = net.params[f"{name}.weight"].value, net.params[f"{name}.bias"].value
        spec = net.specs[name]
        low = layers.conv_forward(x, w, b, spec)
        want_dx, want_dw, want_db = layers.conv_backward(
            layers.bilinear_upsample_backward(dy, 4, low.shape), x, w, spec)
        assert y.shape == (1, 3, 32, 24)
        for got, ref in [(y, layers.bilinear_upsample_forward(low, 4)), (dx, want_dx),
                         (grads["weight"], want_dw), (grads["bias"], want_db)]:
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("hc", [False, True])
    def test_conv6_commutes_with_the_upsample(self, hc):
        """conv6 per input group at its own resolution, upsampled and summed,
        against upsample-then-conv6 of the concatenation, float64, forward
        and backward, within 1e-12 of the largest entry."""
        net = tiny_net(seed=13, use_hypercolumn=hc)
        net.params["s1.conv6.slope"].value[:] = 1.0  # PReLU is the identity
        net.params["s1.conv6.bias"].value[:] = Rng(14).normal((net.widths["c6"],))
        w, b = net.params["s1.conv6.weight"].value, net.params["s1.conv6.bias"].value
        wd = net.widths
        groups = ([(wd["c1"], 2), (wd["c2"], 4)] if hc else []) + [(wd["c5"], 8)]
        xs = [Rng(15 + i).normal((1, c, 16 // f, 24 // f)) for i, (c, f) in enumerate(groups)]
        tape = [(None, ())]
        out = net._block("s1.conv6", [_Var(v, tape, 0) for v in xs])
        dy = Rng(20).normal(out.value.shape)
        net.zero_grads()
        dxs = tape[-1][0](dy)

        ups = [layers.bilinear_upsample_forward(v, f) for v, (_, f) in zip(xs, groups)]
        cat = np.concatenate(ups, axis=1)
        spec = net.specs["s1.conv6"]
        want = layers.conv_forward(cat, w, b, spec)
        dcat, dw, db = layers.conv_backward(dy, cat, w, spec)
        want_dxs = [layers.bilinear_upsample_backward(d, f, v.shape) for v, d, (_, f) in
                    zip(xs, np.split(dcat, np.cumsum([c for c, _ in groups])[:-1], axis=1),
                        groups)]
        pairs = [(out.value, want), (net.params["s1.conv6.weight"].grad, dw),
                 (net.params["s1.conv6.bias"].grad, db), *zip(dxs, want_dxs)]
        for got, ref in pairs:
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
