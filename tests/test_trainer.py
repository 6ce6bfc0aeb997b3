import builtins
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import write_png_dataset
from intrinsics import trainer
from intrinsics.data import (AugmentConfig, Sample, as_float, load_dataset,
                             make_synthetic_sample, parse_manifest)
from intrinsics.losses import LossConfig, log_guarded, total_loss
from intrinsics.network import Network, NetworkConfig, Param, build_network
from intrinsics.rng import Rng, derive_seed
from intrinsics.trainer import (Checkpoint, TrainConfig,
                                decompose_image, load_checkpoint,
                                lr_multiplier, network_from_checkpoint,
                                save_checkpoint, sgd_momentum_step, train_loop)


def tiny_cfg(**kw):
    return NetworkConfig(channel_scale=1 / 16, dropout_prob=kw.pop("dropout", 0.0),
                         **kw)


def small_train_cfg(**kw):
    defaults = dict(
        base_lr=0.005, momentum=0.9, batch_size=2, max_iterations=4, seed=3,
        loss=LossConfig(lam=0.5),
        augment=AugmentConfig(crop_h=32, crop_w=32, mirror_prob=0.0,
                              enable_rotate_zoom=False))
    defaults.update(kw)
    return TrainConfig(**defaults)


def fixture_samples(n=3, h=32, w=32):
    return [make_synthetic_sample(i, h=h, w=w) for i in range(n)]


class TestSgdStep:
    def _single_param(self, value):
        p = Param("layer.weight", np.array([value], dtype=np.float64))
        return {"layer.weight": p}

    def test_zero_gradient_fixed_point(self):
        params = self._single_param(1.5)
        sgd_momentum_step(params, small_train_cfg(base_lr=0.1))
        assert params["layer.weight"].value[0] == 1.5

    def test_multiplier_zero_freezes(self):
        params = self._single_param(2.0)
        cfg = small_train_cfg(base_lr=0.1, lr_multipliers={"layer": 0.0})
        for _ in range(5):
            params["layer.weight"].grad[:] = 3.0
            sgd_momentum_step(params, cfg)
        assert params["layer.weight"].value[0] == 2.0

    def test_momentum_zero_is_vanilla_gd(self):
        rng = Rng(1)
        v0 = rng.normal((4,))
        g = rng.normal((4,))
        params = {"p": Param("p", v0.copy())}
        params["p"].grad[:] = g
        sgd_momentum_step(params, small_train_cfg(base_lr=0.05, momentum=0.0))
        assert np.max(np.abs(params["p"].value - (v0 - 0.05 * g))) < 1e-12

    def test_gradients_zeroed_after_step(self):
        params = self._single_param(0.0)
        params["layer.weight"].grad[:] = 1.0
        sgd_momentum_step(params, small_train_cfg())
        assert params["layer.weight"].grad[0] == 0.0

    def test_nonfinite_gradient_named(self):
        params = self._single_param(0.0)
        params["layer.weight"].grad[:] = np.nan
        with pytest.raises(ValueError, match="layer.weight.*iteration 7"):
            sgd_momentum_step(params, small_train_cfg(), iteration=7)

    def test_prefix_multiplier_matching(self):
        mult = {"s1.conv1": 0.5, "s1": 2.0}
        assert lr_multiplier("s1.conv1.weight", mult) == 0.5
        assert lr_multiplier("s1.conv2.weight", mult) == 2.0
        assert lr_multiplier("s2.conv1.weight", mult) == 1.0


class TestCheckpointIO:
    def _roundtrip(self, tmp_path, net):
        ck = Checkpoint.from_network(net, 12, (3, 4, 0, 0), b"\x07" * 32)
        path = tmp_path / "ck.bin"
        save_checkpoint(ck, path)
        return path, load_checkpoint(path)

    def test_roundtrip_exact(self, tmp_path):
        net = build_network(tiny_cfg(), Rng(1))
        path, back = self._roundtrip(tmp_path, net)
        assert back.iteration == 12
        assert back.rng_state == (3, 4, 0, 0)
        assert back.fingerprint == b"\x07" * 32
        for (n0, a0), (n1, a1) in zip(
                Checkpoint.from_network(net, 12, (3, 4, 0, 0), b"\x07" * 32).params,
                back.params):
            assert n0 == n1
            assert np.array_equal(a0, a1)

    def test_save_builds_no_copy_of_the_file(self, tmp_path):
        """At 1/4 width the tensors take 2.37 MB.  The save streams them from
        their own buffers, tracing about 1% of that; joining the file into
        one buffer first traced just over 100%."""
        ck = Checkpoint.from_network(build_network(NetworkConfig(channel_scale=0.25),
                                                   Rng(3)), 1, (0, 0, 0, 0), b"\x07" * 32)
        payload = sum(a.nbytes for _, a in ck.params + ck.momentum)
        tracemalloc.start()
        try:
            save_checkpoint(ck, tmp_path / "ck.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert os.path.getsize(tmp_path / "ck.bin") > payload
        assert peak < payload / 10, f"the save traced {peak} bytes for {payload}"

    def test_failed_overwrite_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path, _ = self._roundtrip(tmp_path, build_network(tiny_cfg(), Rng(4)))
        before = path.read_bytes()
        real_open = builtins.open

        class DiesHalfway:  # a write cut short, as by a crash or a full disk
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError("write interrupted")

        def open_dying(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return DiesHalfway(f) if "w" in mode else f

        ck = Checkpoint.from_network(build_network(tiny_cfg(), Rng(5)), 13,
                                     (3, 4, 0, 0), b"\x07" * 32)
        monkeypatch.setattr(builtins, "open", open_dying)
        with pytest.raises(OSError, match="write interrupted"):
            save_checkpoint(ck, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section,name,value", [
        ("params", "albedo.deconv.bias", np.nan),
        ("momentum", "s1.conv1.weight", -np.inf),
    ])
    def test_non_finite_tensor_rejected(self, tmp_path, section, name, value):
        net = build_network(tiny_cfg(), Rng(6))
        ck = Checkpoint.from_network(net, 1, (0, 0, 0, 0), b"\x07" * 32)
        dict(getattr(ck, section))[name].flat[0] = value
        path = tmp_path / "bad.ckpt"
        save_checkpoint(ck, path)
        with pytest.raises(ValueError, match=rf"bad\.ckpt.*{section}.*'{name}'"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        net = build_network(tiny_cfg(), Rng(3))
        path, _ = self._roundtrip(tmp_path, net)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_tensor_larger_than_the_file_is_truncated(self, tmp_path):
        """(65536,)*4 float32s are 2**66 bytes, a size an int64 product wraps."""
        path = tmp_path / "huge.ckpt"
        path.write_bytes(b"DINT" + struct.pack("<HIH", 1, 1, 1) + b"w"
                         + struct.pack("<B4I", 4, *[65536] * 4))
        with pytest.raises(ValueError, match=rf"^checkpoint {re.escape(str(path))}: "
                                             "truncated$"):
            load_checkpoint(path)

    def test_tensors_are_views_of_one_file_buffer(self, tmp_path):
        net = build_network(tiny_cfg(), Rng(3))
        saved = Checkpoint.from_network(net, 12, (3, 4, 0, 0), b"\x07" * 32)
        path, back = self._roundtrip(tmp_path, net)
        buffers = set()
        for _, arr in back.params + back.momentum:
            assert not arr.flags.writeable
            while isinstance(arr, np.ndarray):
                arr = arr.base
            buffers.add(id(arr.obj))  # the memoryview's bytes
        assert len(buffers) == 1
        other = build_network(tiny_cfg(), Rng(4))
        back.apply_params(other)
        for (name, want), (_, view) in zip(saved.params, back.params):
            p = other.params[name]
            assert p.value.flags.writeable and not np.shares_memory(p.value, view)
            assert np.array_equal(p.value, want), name

    def test_wrong_version_rejected(self, tmp_path):
        net = build_network(tiny_cfg(), Rng(3))
        path, _ = self._roundtrip(tmp_path, net)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, _ = self._roundtrip(tmp_path, build_network(tiny_cfg(), Rng(3)))
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(ValueError, match="2 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("words", [3, 5])
    def test_rng_state_of_other_than_four_words_rejected(self, tmp_path, words):
        ck = Checkpoint.from_network(build_network(tiny_cfg(), Rng(3)), 1,
                                     tuple(range(words)), b"\x07" * 32)
        with pytest.raises(ValueError, match="rng_state must be 4 words"):
            save_checkpoint(ck, tmp_path / "ck.bin")
        assert list(tmp_path.iterdir()) == []

    def test_tensor_the_network_lacks_named(self):
        net = build_network(tiny_cfg(), Rng(4))
        ck = Checkpoint.from_network(net, 0, (0, 0, 0, 0), b"\x00" * 32)
        ck.params.append(("s3.conv1.weight", np.zeros((1, 1, 1, 1), np.float32)))
        with pytest.raises(ValueError, match=r"'s3\.conv1\.weight' not in network"):
            ck.apply_params(net)

    def test_tensor_the_checkpoint_lacks_named(self):
        net = build_network(tiny_cfg(), Rng(4))
        ck = Checkpoint.from_network(net, 0, (0, 0, 0, 0), b"\x00" * 32)
        ck.momentum = [(n, a) for n, a in ck.momentum if n != "s2.conv3.bias"]
        with pytest.raises(ValueError, match=r"missing tensor 's2\.conv3\.bias'"):
            ck.apply_momentum(net)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        net = build_network(tiny_cfg(), Rng(4))
        path, back = self._roundtrip(tmp_path, net)
        other = build_network(NetworkConfig(channel_scale=1 / 8), Rng(4))
        with pytest.raises(ValueError, match="s1.conv1.weight"):
            back.apply_params(other)

    def test_network_from_checkpoint(self, tmp_path):
        for hc in (False, True):
            for deconv in (False, True):
                net = build_network(tiny_cfg(use_hypercolumn=hc,
                                             use_deconv_head=deconv), Rng(5))
                ck = Checkpoint.from_network(net, 0, (0, 0, 0, 0), b"\x00" * 32)
                rebuilt = network_from_checkpoint(ck)
                assert rebuilt.cfg.use_hypercolumn == hc
                assert rebuilt.cfg.use_deconv_head == deconv
                x = Rng(6).uniform((1, 3, 32, 32))
                a0, s0 = net.forward(x.astype(np.float32))
                a1, s1 = rebuilt.forward(x.astype(np.float32))
                assert np.array_equal(a0, a1)
                assert np.array_equal(s0, s1)

    def test_rank0_width_tensor_names_it(self, tmp_path):
        ck = Checkpoint.from_network(build_network(tiny_cfg(), Rng(5)), 0,
                                     (0, 0, 0, 0), b"\x00" * 32)
        ck.params[0] = ("s1.conv1.weight", np.zeros((), np.float32))
        save_checkpoint(ck, tmp_path / "rank0.ckpt")
        with pytest.raises(ValueError, match=r"'s1\.conv1\.weight' is missing or not 4-D"):
            network_from_checkpoint(load_checkpoint(tmp_path / "rank0.ckpt"))

    def test_conv6_width_of_neither_variant_names_it(self):
        ck = Checkpoint.from_network(build_network(tiny_cfg(), Rng(5)), 0,
                                     (0, 0, 0, 0), b"\x00" * 32)
        i = [name for name, _ in ck.params].index("s1.conv6.weight")
        c6, c5 = ck.params[i][1].shape[:2]
        ck.params[i] = ("s1.conv6.weight", np.zeros((c6, c5 + 1, 1, 1), np.float32))
        with pytest.raises(ValueError, match=r"'s1\.conv6\.weight' shape"):
            network_from_checkpoint(ck)


class TestTrainLoop:
    def test_zero_iterations_noop(self):
        net = build_network(tiny_cfg(), Rng(7))
        before = {n: p.value.copy() for n, p in net.params.items()}
        ck, trace = train_loop(net, fixture_samples(), small_train_cfg(max_iterations=0))
        assert trace == []
        for n, p in net.params.items():
            assert np.array_equal(before[n], p.value)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_the_checkpoint_cannot_store_rejected(self, seed):
        """The checkpoint stores the seed as a u64: a seed outside [0, 2**64)
        fails at construction, not at the final checkpoint write."""
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            small_train_cfg(seed=seed)
        assert small_train_cfg(seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_empty_dataset_rejected(self):
        net = build_network(tiny_cfg(), Rng(7))
        with pytest.raises(ValueError, match="empty"):
            train_loop(net, [], small_train_cfg())

    def _rejected_before_any_update(self, monkeypatch, rotate_zoom, extents):
        """A 24x32 sample among 32x32 ones, which a 32x32 crop cannot fit."""
        steps = []
        monkeypatch.setattr(trainer, "sgd_momentum_step",
                            lambda *a, orig=sgd_momentum_step: steps.append(1) or orig(*a))
        samples = fixture_samples(5) + [make_synthetic_sample(5, h=24, w=32)]
        net = build_network(tiny_cfg(), Rng(7))
        cfg = small_train_cfg(batch_size=1, max_iterations=6,
                              augment=AugmentConfig(crop_h=32, crop_w=32, mirror_prob=0.0,
                                                    enable_rotate_zoom=rotate_zoom))
        with pytest.raises(ValueError, match=r"sample synthetic-5: crop 32x32 "
                                             rf"impossible from post-zoom extents {extents}"):
            train_loop(net, samples, cfg)
        assert steps == []

    def test_sample_the_crop_cannot_fit_rejected_before_any_update(self, monkeypatch):
        """Without rotate/zoom every sample's extents are checked up front, with
        augment's message, instead of when the sample is first drawn."""
        self._rejected_before_any_update(monkeypatch, False, "24x32")

    def test_sample_no_zoom_can_fit_rejected_before_any_update(self, monkeypatch):
        """With rotate/zoom on, a sample the crop does not fit even at the
        largest zoom (1.2) is rejected up front too, at those extents."""
        self._rejected_before_any_update(monkeypatch, True, "29x38")

    def test_non_finite_loss_names_the_batch(self):
        net = build_network(tiny_cfg(), Rng(9))
        net.params["s1.conv1.bias"].value[0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite loss at iteration 0 "
                                             r"\(batch samples: synthetic-\d, synthetic-\d\)"):
            train_loop(net, fixture_samples(), small_train_cfg())

    def test_loss_finite_everywhere(self):
        net = build_network(tiny_cfg(), Rng(9))
        _, trace = train_loop(net, fixture_samples(), small_train_cfg(max_iterations=5))
        assert all(np.isfinite(v) for _, v in trace)

    def test_frozen_layers_stay_bit_identical(self):
        net = build_network(tiny_cfg(), Rng(10))
        frozen = {n: p.value.copy() for n, p in net.params.items()
                  if n.startswith("s1.conv1")}
        cfg = small_train_cfg(max_iterations=3, lr_multipliers={"s1.conv1": 0.0})
        train_loop(net, fixture_samples(), cfg)
        for n, v in frozen.items():
            assert np.array_equal(v, net.params[n].value)
        assert not np.array_equal(
            net.params["s2.conv1.weight"].value.astype(np.float64) * 0 + 1,
            np.zeros_like(net.params["s2.conv1.weight"].value))

    def test_resume_matches_uninterrupted(self, tmp_path):
        samples = fixture_samples()
        cfg_full = small_train_cfg(max_iterations=6)

        net_a = build_network(tiny_cfg(dropout=0.5), Rng(11))
        _, trace_full = train_loop(net_a, samples, cfg_full)

        cfg_half = small_train_cfg(max_iterations=3)
        net_b = build_network(tiny_cfg(dropout=0.5), Rng(11))
        ck_half, trace_half = train_loop(net_b, samples, cfg_half)
        path = tmp_path / "half.ck"
        save_checkpoint(ck_half, path)

        net_c = build_network(tiny_cfg(dropout=0.5), Rng(11))
        loaded = load_checkpoint(path)
        # resume uses the full-run config so fingerprints line up
        _, trace_resumed = train_loop(net_c, samples, cfg_full, resume=loaded)

        assert trace_half + trace_resumed == trace_full
        for n, p in net_a.params.items():
            assert np.array_equal(p.value, net_c.params[n].value), n

    def test_resume_past_the_end_rejected(self):
        samples = fixture_samples()
        net = build_network(tiny_cfg(), Rng(12))
        ck, _ = train_loop(net, samples, small_train_cfg(max_iterations=4))
        with pytest.raises(ValueError, match="iteration 4.*max_iterations 2"):
            train_loop(net, samples, small_train_cfg(max_iterations=2), resume=ck)
        _, trace = train_loop(net, samples, small_train_cfg(max_iterations=4), resume=ck)
        assert trace == []

    def test_resume_fingerprint_mismatch_rejected(self, tmp_path):
        samples = fixture_samples()
        net = build_network(tiny_cfg(), Rng(12))
        ck, _ = train_loop(net, samples, small_train_cfg(max_iterations=1))
        other_cfg = small_train_cfg(max_iterations=2, base_lr=0.123)
        with pytest.raises(ValueError, match="fingerprint"):
            train_loop(net, samples, other_cfg, resume=ck)

    def test_checkpoint_files_written(self, tmp_path):
        """At checkpoint_every = 2 a call stops at the next multiple of 2 and
        writes no file; resumed from its saved checkpoint, the next call
        finishes the run as one call at checkpoint_every = 0 does."""
        samples = fixture_samples()
        cfg = small_train_cfg(max_iterations=4, checkpoint_every=2)
        net = build_network(tiny_cfg(dropout=0.5), Rng(13))
        ck, first = train_loop(net, samples, cfg)
        assert ck.iteration == 2 and [it for it, _ in first] == [0, 1]
        save_checkpoint(ck, tmp_path / "2.ck")
        ck, second = train_loop(net, samples, cfg, resume=load_checkpoint(tmp_path / "2.ck"))
        assert ck.iteration == 4 and [it for it, _ in second] == [2, 3]
        save_checkpoint(ck, tmp_path / "4.ck")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["2.ck", "4.ck"]

        whole = build_network(tiny_cfg(dropout=0.5), Rng(13))
        ck, trace = train_loop(whole, samples, small_train_cfg(max_iterations=4))
        save_checkpoint(ck, tmp_path / "whole.ck")
        assert first + second == trace
        assert (tmp_path / "4.ck").read_bytes() == (tmp_path / "whole.ck").read_bytes()


def invalid_sample(seed, h=32, w=32):
    """A synthetic sample whose mask has no valid pixel."""
    s = make_synthetic_sample(seed, h=h, w=w)
    return Sample(s.id, s.image, s.albedo, s.shading, np.zeros_like(s.mask))


def iteration_0_by_hand(net, samples, cfg):
    """Iteration 0's parameter gradients as 1-image passes run by hand in
    batch order, each with its own dropout stream: the crop is the whole
    sample and nothing is mirrored, so each image is its sample.  Images
    without a valid pixel are left out, and the sum is scaled by 1/k."""
    f32 = np.float32
    order = trainer._epoch_permutation(cfg.seed, 0, len(samples))
    k = 0
    for j in range(cfg.batch_size):
        s = samples[order[j]]
        if not s.mask.any():
            continue
        k += 1
        la, ls, tape = net.forward(s.image.astype(f32),
                                   rng=Rng(derive_seed(cfg.seed, "dropout", 0, j)))
        _, da, ds = total_loss(log_guarded(s.albedo).astype(f32),
                               log_guarded(s.shading).astype(f32), la, ls,
                               s.mask.astype(f32), cfg.loss)
        net.backward(da, ds, tape, image_grad=False)
    return {n: p.grad * f32(1 / k) for n, p in net.params.items()}


class TestMicroSteps:
    """An iteration is one forward and backward per image, accumulated into
    the parameter gradients, and one update."""

    def _update_gradients(self, monkeypatch, samples, cfg, net_cfg):
        """The gradients each sgd_momentum_step of a run is given."""
        seen = []

        def record(params, *args, orig=sgd_momentum_step):
            seen.append({n: p.grad.copy() for n, p in params.items()})
            return orig(params, *args)
        monkeypatch.setattr(trainer, "sgd_momentum_step", record)
        train_loop(build_network(net_cfg, Rng(21)), samples, cfg)
        return seen

    def _assert_bytes_equal(self, got, want):
        assert got.keys() == want.keys()
        for n in want:
            assert got[n].dtype == want[n].dtype == np.float32, n
            assert got[n].tobytes() == want[n].tobytes(), n

    def test_gradients_are_one_image_passes_by_hand(self, monkeypatch):
        net_cfg = tiny_cfg(dropout=0.5)
        samples = fixture_samples(3)
        cfg = small_train_cfg(batch_size=3, max_iterations=1,
                              loss=LossConfig(lam=0.5, use_gradient_loss=True))
        [got] = self._update_gradients(monkeypatch, samples, cfg, net_cfg)
        want = iteration_0_by_hand(build_network(net_cfg, Rng(21)), samples, cfg)
        self._assert_bytes_equal(got, want)

    def test_image_without_valid_pixels_is_skipped(self, monkeypatch):
        forwards = []
        monkeypatch.setattr(Network, "forward", lambda *a, orig=Network.forward, **kw:
                            forwards.append(1) or orig(*a, **kw))
        net_cfg = tiny_cfg(dropout=0.5)
        samples = [make_synthetic_sample(0, h=32, w=32), invalid_sample(1),
                   make_synthetic_sample(2, h=32, w=32)]
        cfg = small_train_cfg(batch_size=3, max_iterations=1)
        [got] = self._update_gradients(monkeypatch, samples, cfg, net_cfg)
        assert len(forwards) == 2
        want = iteration_0_by_hand(build_network(net_cfg, Rng(21)), samples, cfg)
        self._assert_bytes_equal(got, want)

    def test_batch_without_valid_pixels_rejected_before_any_update(self, monkeypatch):
        steps = []
        monkeypatch.setattr(trainer, "sgd_momentum_step",
                            lambda *a, orig=sgd_momentum_step: steps.append(1) or orig(*a))
        net = build_network(tiny_cfg(), Rng(7))
        before = {n: p.value.copy() for n, p in net.params.items()}
        with pytest.raises(ValueError, match="mask has no valid pixels"):
            train_loop(net, [invalid_sample(i) for i in range(3)], small_train_cfg())
        assert steps == []
        for n, p in net.params.items():
            assert np.array_equal(before[n], p.value), n

    def test_one_update_and_one_forward_per_image(self, monkeypatch):
        """perfbench/workload.py counts an iteration at each return of the
        module-global ``trainer.sgd_momentum_step``."""
        calls = []
        monkeypatch.setattr(trainer, "sgd_momentum_step",
                            lambda *a, orig=sgd_momentum_step: calls.append("step") or orig(*a))
        monkeypatch.setattr(Network, "forward", lambda *a, orig=Network.forward, **kw:
                            calls.append("forward") or orig(*a, **kw))
        train_loop(build_network(tiny_cfg(), Rng(7)), fixture_samples(),
                   small_train_cfg(batch_size=3, max_iterations=2))
        assert calls == ["forward"] * 3 + ["step"] + ["forward"] * 3 + ["step"]

    def test_batch_8_step_peaks_near_batch_1(self):
        """The traced peak of a batch-8 step stays within 25% of a batch-1
        step's; a step on the stacked batch peaked at about 7.7x."""
        samples = fixture_samples(8, h=64, w=64)
        peaks = []
        for batch in (1, 8):
            net = build_network(tiny_cfg(dropout=0.5), Rng(22))
            cfg = small_train_cfg(batch_size=batch, max_iterations=1,
                                  augment=AugmentConfig(crop_h=64, crop_w=64))
            tracemalloc.start()
            try:
                train_loop(net, samples, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestIntegerSamples:
    """Loaded samples hold their PNGs' integers; training on them is, byte
    for byte, training on the same maps held as their float64 division."""

    @pytest.mark.parametrize("rotate_zoom", [False, True], ids=["crop", "rotzoom"])
    @pytest.mark.parametrize("deconv", [True, False], ids=["deconv", "bilinear"])
    @pytest.mark.parametrize("hypercolumn", [True, False], ids=["hc", "nohc"])
    def test_training_matches_float64_samples(self, tmp_path, hypercolumn, deconv,
                                              rotate_zoom):
        loaded = load_dataset(parse_manifest(write_png_dataset(tmp_path)))
        assert {s.image.dtype for s in loaded} == {np.dtype(np.uint8), np.dtype(np.uint16)}
        floats = [Sample(s.id, *map(as_float, (s.image, s.albedo, s.shading)),
                         s.mask.astype(np.float64)) for s in loaded]
        net_cfg = tiny_cfg(dropout=0.5, use_hypercolumn=hypercolumn,
                           use_deconv_head=deconv)
        cfg = small_train_cfg(batch_size=3, max_iterations=3, loss=LossConfig(lam=0.5),
                              augment=AugmentConfig(crop_h=32, crop_w=32, mirror_prob=0.5,
                                                    enable_rotate_zoom=rotate_zoom))
        runs = [train_loop(build_network(net_cfg, Rng(22)), samples, cfg)
                for samples in (loaded, floats)]
        (ck_int, trace_int), (ck_float, trace_float) = runs
        assert trace_int == trace_float
        for section in ("params", "momentum"):
            got, want = getattr(ck_int, section), getattr(ck_float, section)
            assert [(n, t.tobytes()) for n, t in got] == [(n, t.tobytes()) for n, t in want]


class TestDecompose:
    def test_shape_roundtrip_and_clipping(self):
        net = build_network(tiny_cfg(), Rng(14))
        img = Rng(15).uniform((1, 3, 70, 65))
        albedo, shading = decompose_image(net, img)
        assert albedo.shape == (1, 3, 70, 65)
        assert shading.shape == (1, 3, 70, 65)
        for t in (albedo, shading):
            assert np.all(np.isfinite(t))
            assert t.min() >= 0.0 and t.max() <= 1.0

    def test_deterministic(self):
        net = build_network(tiny_cfg(), Rng(16))
        img = Rng(17).uniform((1, 3, 64, 64))
        a0, s0 = decompose_image(net, img)
        a1, s1 = decompose_image(net, img)
        assert np.array_equal(a0, a1) and np.array_equal(s0, s1)
