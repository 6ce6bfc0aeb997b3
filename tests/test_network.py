import numpy as np
import pytest

from intrinsics.network import NetworkConfig, build_network
from intrinsics.rng import Rng


def tiny_net(seed=0, dtype=np.float64, **kw):
    cfg = NetworkConfig(channel_scale=1 / 16, **kw)
    return build_network(cfg, Rng(seed), dtype=dtype)


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = tiny_net(seed=5)
        b = tiny_net(seed=5)
        for (na, va), (nb, vb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(va, vb)

    def test_different_seed_differs(self):
        a = tiny_net(seed=5)
        b = tiny_net(seed=6)
        assert not np.array_equal(a.params["s1.conv1.weight"].value,
                                  b.params["s1.conv1.weight"].value)

    def test_scale2_identical_across_variants(self):
        plain = tiny_net(seed=1, use_hypercolumn=False)
        hc = tiny_net(seed=1, use_hypercolumn=True)
        names_p = [n for n, _ in plain.named_parameters()]
        names_h = [n for n, _ in hc.named_parameters()]
        assert names_p == names_h
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


class TestForward:
    @pytest.mark.parametrize("hc", [False, True])
    @pytest.mark.parametrize("deconv", [False, True])
    def test_shape_contract(self, hc, deconv):
        net = tiny_net(seed=2, use_hypercolumn=hc, use_deconv_head=deconv,
                       dtype=np.float32)
        for h in (32, 64, 96):
            for w in (32, 64):
                x = Rng(3).uniform((1, 3, h, w))
                la, ls = net.forward(x)
                assert la.shape == (1, 3, h, w)
                assert ls.shape == (1, 3, h, w)

    def test_nonsquare_input(self):
        net = tiny_net(seed=2, dtype=np.float32)
        la, ls = net.forward(Rng(4).uniform((1, 3, 96, 160)))
        assert la.shape == (1, 3, 96, 160)

    def test_non_multiple_rejected_with_padding_amount(self):
        net = tiny_net(seed=2)
        with pytest.raises(ValueError, match=r"pad by \(26, 31\)"):
            net.forward(np.zeros((1, 3, 70, 65)))

    def test_eval_deterministic(self):
        net = tiny_net(seed=3, dtype=np.float32)
        x = Rng(5).uniform((1, 3, 64, 64))
        a1, s1 = net.forward(x)
        a2, s2 = net.forward(x)
        assert np.array_equal(a1, a2)
        assert np.array_equal(s1, s2)

    def test_train_mode_dropout_varies_with_seed(self):
        net = tiny_net(seed=3, dtype=np.float32)
        x = Rng(5).uniform((1, 3, 64, 64))
        a1, _ = net.forward(x, train_mode=True, rng=Rng(1))
        a2, _ = net.forward(x, train_mode=True, rng=Rng(2))
        a3, _ = net.forward(x, train_mode=True, rng=Rng(1))
        assert not np.array_equal(a1, a2)
        assert np.array_equal(a1, a3)

    def test_outputs_finite(self):
        net = tiny_net(seed=7, dtype=np.float32)
        la, ls = net.forward(Rng(8).uniform((2, 3, 32, 32)))
        assert np.all(np.isfinite(la)) and np.all(np.isfinite(ls))


class TestBackward:
    def test_requires_cached_forward(self):
        net = tiny_net(seed=9)
        with pytest.raises(ValueError, match="cached forward"):
            net.backward(np.zeros((1, 3, 32, 32)), np.zeros((1, 3, 32, 32)))

    def test_backward_consumes_the_tape(self):
        net = tiny_net(seed=9)
        net.forward(Rng(10).uniform((1, 3, 32, 32)), keep_cache=True)
        zeros = np.zeros((1, 3, 32, 32))
        net.backward(zeros, zeros)
        with pytest.raises(ValueError, match="no cached forward"):
            net.backward(zeros, zeros)

    def test_zero_upstream_zero_grads(self):
        net = tiny_net(seed=9)
        x = Rng(10).uniform((1, 3, 32, 32))
        net.forward(x, keep_cache=True)
        di = net.backward(np.zeros((1, 3, 32, 32)), np.zeros((1, 3, 32, 32)))
        assert np.all(di == 0.0)
        for p in net.params.values():
            assert np.all(p.grad == 0.0)

    def test_gradients_accumulate_linearly(self):
        net = tiny_net(seed=9)
        x = Rng(10).uniform((1, 3, 32, 32))
        da = Rng(11).normal((1, 3, 32, 32))
        ds = Rng(12).normal((1, 3, 32, 32))

        net.forward(x, keep_cache=True)
        net.backward(da, ds)
        net.forward(x, keep_cache=True)
        net.backward(da, ds)
        twice = {n: p.grad.copy() for n, p in net.params.items()}

        net.zero_grads()
        net.forward(x, keep_cache=True)
        net.backward(2 * da, 2 * ds)
        for n, p in net.params.items():
            assert np.allclose(twice[n], p.grad, rtol=1e-10, atol=1e-12), n

    @pytest.mark.parametrize("hc", [False, True])
    @pytest.mark.parametrize("deconv", [False, True])
    def test_declining_image_grad_changes_nothing_else(self, hc, deconv):
        net = tiny_net(seed=9, dtype=np.float32, use_hypercolumn=hc,
                       use_deconv_head=deconv, dropout_prob=0.5)
        x = Rng(10).uniform((2, 3, 32, 32))
        da = Rng(11).normal((2, 3, 32, 32))
        ds = Rng(12).normal((2, 3, 32, 32))
        grads = []
        for image_grad in (True, False):
            net.zero_grads()
            net.forward(x, train_mode=True, rng=Rng(13), keep_cache=True)
            di = net.backward(da, ds, image_grad=image_grad)
            assert (di is None) == (not image_grad)
            grads.append({n: p.grad.copy() for n, p in net.params.items()})
        for n, g in grads[0].items():
            assert g.tobytes() == grads[1][n].tobytes(), n
