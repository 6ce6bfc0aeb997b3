"""Meta-tests of the gate: a broken backward is caught and named, the
finite-difference checker itself tells right gradients from wrong ones, and
no command but ``intrinsics verify`` loads the gate.

``break_backward`` scales one layer's input gradient by 1.01.  ``network``
binds the layer functions at import, so the broken function replaces both
its ``layers`` and its ``network`` binding.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from intrinsics import layers, network, verify
from intrinsics.network import NetworkConfig, build_network
from intrinsics.rng import Rng

ROOT = pathlib.Path(__file__).resolve().parent.parent

# layer -> its backward function in ``layers``
BACKWARDS = {
    "conv": "conv_backward",
    "deconv": "deconv_backward",
    "max_pool": "max_pool_backward",
    "bilinear": "bilinear_upsample_backward",
    "prelu": "prelu_backward",
    "dropout": "dropout_backward",
}


def break_backward(monkeypatch, kind):
    name = BACKWARDS[kind]
    orig = getattr(layers, name)

    def bad(*args, **kwargs):
        out = orig(*args, **kwargs)
        if isinstance(out, tuple):  # the input gradient comes first
            return (None if out[0] is None else out[0] * 1.01, *out[1:])
        return out * 1.01

    for module in (layers, network):
        monkeypatch.setattr(module, name, bad)


@pytest.mark.parametrize("kind", BACKWARDS)
def test_corrupted_backward_fails_naming_layer(kind, monkeypatch):
    break_backward(monkeypatch, kind)
    name, passed, detail = verify.run_suite("layer-gradients")
    assert (name, passed) == ("layer-gradients", False)
    assert f"{kind} backward" in detail


def network_gradients():
    """Every parameter gradient of one backward, as bytes."""
    # hypercolumn + deconv head: the one variant that runs all six layers; a
    # training forward (an rng), since an eval forward runs no dropout
    net = build_network(NetworkConfig(channel_scale=1 / 16, use_hypercolumn=True,
                                      use_deconv_head=True), Rng(0), dtype=np.float64)
    la, ls, tape = net.forward(Rng(1).uniform((1, 3, 32, 32)), rng=Rng(4))
    net.backward(Rng(2).normal(la.shape), Rng(3).normal(ls.shape), tape)
    return [p.grad.tobytes() for p in net.params.values()]


@pytest.mark.parametrize("kind", BACKWARDS)
def test_corruption_reaches_the_network(kind, monkeypatch):
    clean = network_gradients()
    with monkeypatch.context() as m:
        break_backward(m, kind)
        corrupted = network_gradients()
    assert corrupted != clean
    assert network_gradients() == clean


@pytest.mark.slow
def test_corrupted_conv_fails_whole_network_gradient(monkeypatch):
    break_backward(monkeypatch, "conv")
    name, passed, _ = verify.run_suite("whole-network-gradient")
    assert (name, passed) == ("whole-network-gradient", False)


class TestCheckGradient:
    def test_quadratic(self):
        x = np.array([1.0, 2.0])

        def f(v):
            return float((v * v).sum()), 2 * v

        assert verify.check_gradient(f, x, h=1e-3) < 1e-8

    def test_linear(self):
        x = Rng(4).normal((5,))

        def f(v):
            return float(v.sum()), np.ones_like(v)

        assert verify.check_gradient(f, x, h=1e-3) < 1e-10

    def test_wrong_gradient_detected(self):
        x = np.array([1.0, 2.0])

        def f(v):
            return float((v * v).sum()), 3 * v

        assert verify.check_gradient(f, x, h=1e-3) > 0.1

    def test_nonfinite_reported(self):
        x = np.array([0.0])

        def f(v):
            val = 1.0 / v[0] if v[0] > 0 else np.inf
            return val, np.zeros_like(v)

        with pytest.raises(ValueError, match="non-finite"):
            verify.check_gradient(f, x, h=1e-3)


def test_the_command_line_loads_no_gate():
    """Every command imports ``intrinsics.cli``; only ``cmd_verify`` imports
    the gate, so a fresh process that imports the CLI holds no verify module."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, intrinsics.cli; print('intrinsics.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "False\n"
