import numpy as np
import pytest

from intrinsics import layers, network, verify
from intrinsics.network import NetworkConfig, build_network
from intrinsics.rng import Rng


def narrow_to(monkeypatch, suite):
    monkeypatch.setattr(verify, "SUITES", [s for s in verify.SUITES if s[0] == suite])


@pytest.mark.parametrize("kind", verify.CORRUPTIBLE)
def test_corrupted_backward_fails_naming_layer(kind, monkeypatch):
    narrow_to(monkeypatch, "layer-gradients")
    before = dict(vars(layers)), dict(vars(network))
    [(name, passed, detail)] = verify.run_all(corrupt=kind)
    assert (name, passed) == ("layer-gradients", False)
    assert f"{kind} backward" in detail
    assert (dict(vars(layers)), dict(vars(network))) == before  # the corruption is undone


def network_input_gradient():
    # hypercolumn + deconv head: the one variant that runs all seven layers
    net = build_network(NetworkConfig(channel_scale=1 / 16, use_hypercolumn=True,
                                      use_deconv_head=True), Rng(0), dtype=np.float64)
    la, ls = net.forward(Rng(1).uniform((1, 3, 32, 32)), keep_cache=True)
    return net.backward(Rng(2).normal(la.shape), Rng(3).normal(ls.shape))


@pytest.mark.parametrize("kind", verify.CORRUPTIBLE)
def test_corruption_reaches_the_network(kind):
    clean = network_input_gradient()
    restore = verify._install_corruption(kind)
    try:
        corrupted = network_input_gradient()
    finally:
        restore()
    assert not np.array_equal(corrupted, clean)
    assert np.array_equal(network_input_gradient(), clean)


def test_corrupted_conv_fails_whole_network_gradient(monkeypatch):
    narrow_to(monkeypatch, "whole-network-gradient")
    [(name, passed, detail)] = verify.run_all(corrupt="conv")
    assert (name, passed) == ("whole-network-gradient", False)


def test_unknown_corruption_target_rejected():
    with pytest.raises(ValueError, match="unknown corruption target"):
        verify.run_all(corrupt="softmax")
