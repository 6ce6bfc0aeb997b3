import configparser
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import write_config, write_dataset
from intrinsics import data, verify
from intrinsics.cli import _SCHEMA, load_run_config, main
from intrinsics.network import NetworkConfig, build_network
from intrinsics.png_io import read_png, write_png
from intrinsics.rng import Rng
from intrinsics.trainer import Checkpoint, save_checkpoint


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestConfig:
    def test_parses_sections_and_defaults(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        cfg = write_config(tmp_path / "run.cfg", manifest, tmp_path / "out",
                           extra="[lr_multipliers]\ns1.conv1 = 0.5\n")
        run = load_run_config(cfg)
        assert run.network.channel_scale == 1 / 16
        assert run.train.momentum == 0.9
        assert run.train.lr_multipliers == {"s1.conv1": 0.5}
        assert run.train.loss.lam == 0.5
        assert run.train.augment.crop_h == 32

    def test_typo_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[train]\nbase_lrr = 0.1\n")
        with pytest.raises(ValueError, match="base_lrr"):
            load_run_config(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[trainer]\nbase_lr = 0.1\n")
        with pytest.raises(ValueError, match=r"\[trainer\]"):
            load_run_config(cfg)

    def test_readme_example_parses_and_lists_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        [block] = re.findall(r"```ini\n(.*?)```", readme, re.S)
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(block)
        run = load_run_config(cfg)
        assert run.network.channel_scale == 1.0
        assert run.train.lr_multipliers == {"s1.conv1": 0.1}
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(block)
        listed = {s: set(parser[s]) for s in parser.sections()}
        assert listed.pop("lr_multipliers")
        assert listed == {s: set(keys) for s, keys in _SCHEMA.items()}

    @pytest.mark.parametrize("section,key,value,message", [
        ("network", "channel_scale", "wide", "could not convert string to float: 'wide'"),
        ("network", "use_hypercolumn", "maybe", "Not a boolean: maybe"),
        ("augment", "crop_h", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("lr_multipliers", "s1.conv1", "fast", "could not convert string to float: 'fast'"),
    ])
    def test_unparsable_value_names_section_and_key(self, tmp_path, section, key,
                                                     value, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError) as err:
            load_run_config(cfg)
        assert str(err.value) == f"config: [{section}] {key}: {message}"

    def test_unusable_lr_multipliers_rejected(self, tmp_path):
        cfg = tmp_path / "lr.cfg"
        for value in ("-2", "nan", "inf"):
            cfg.write_text(f"[lr_multipliers]\ns2 = 1\ns1.conv1 = {value}\n")
            with pytest.raises(ValueError, match=rf"'s1\.conv1'.*{float(value)}"):
                load_run_config(cfg)
        cfg.write_text("[lr_multipliers]\ns1.conv1 = 0\n")  # 0 freezes the layer
        assert load_run_config(cfg).train.lr_multipliers == {"s1.conv1": 0.0}

    def test_default_constants(self, tmp_path):
        cfg = tmp_path / "min.cfg"
        cfg.write_text("[output]\nout_dir = x\n")
        run = load_run_config(cfg)
        assert run.train.momentum == 0.9
        assert run.train.batch_size == 32
        assert run.network.dropout_prob == 0.5
        assert run.network.input_multiple == 32
        assert run.train.augment.crop_h == 416
        assert run.split_mode == "scene-split"
        assert data.ROTATE_RANGE_DEG == (-15.0, 15.0)
        assert data.ZOOM_RANGE == (0.8, 1.2)

    def test_negative_checkpoint_every_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[train]\ncheckpoint_every = -3\n")
        with pytest.raises(ValueError, match="checkpoint_every"):
            load_run_config(cfg)

    def test_unknown_split_mode_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[data]\nsplit_mode = bogus\n")
        with pytest.raises(ValueError, match="split_mode.*'bogus'"):
            load_run_config(cfg)


class TestTrainCommand:
    def test_writes_trace_and_checkpoint(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path / "data")
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", manifest, out, max_iterations=3)
        assert run_cli("train", "--config", cfg) == 0
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,loss"
        assert len(trace) == 4
        assert (out / "checkpoint_000003.ckpt").exists()

    def test_config_is_an_option_of_train_only(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path / "data", n=1)
        cfg = write_config(tmp_path / "run.cfg", manifest, tmp_path / "out",
                           max_iterations=1)
        with pytest.raises(SystemExit) as err:
            run_cli("--config", cfg, "train")
        assert err.value.code == 2
        assert run_cli("train") == 1
        assert "train: --config is required" in capsys.readouterr().err

    def test_typo_config_fails_before_compute(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[train]\nlearning_rate = 0.1\n")
        assert run_cli("train", "--config", cfg) == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_unmatched_lr_multiplier_prefix_rejected(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path / "data", n=1)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", manifest, out, max_iterations=1,
                           extra="[lr_multipliers]\ns1.convl = 0.1\n")
        assert run_cli("train", "--config", cfg) == 1
        assert "'s1.convl'" in capsys.readouterr().err
        assert not (out / "checkpoint_000001.ckpt").exists()

    def test_seed_flag_overrides(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        outs = []
        for seed_flag in ("7", "8"):
            out = tmp_path / f"s{seed_flag}"
            cfg = write_config(tmp_path / f"s{seed_flag}.cfg", manifest, out,
                               max_iterations=2)
            assert run_cli("--seed", seed_flag, "train", "--config", cfg) == 0
            outs.append((out / "loss_trace.csv").read_text())
        assert outs[0] != outs[1]

    def test_resume_reproduces_trace(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        out_full = tmp_path / "full"
        cfg_full = write_config(tmp_path / "full.cfg", manifest, out_full,
                                max_iterations=6, dropout=0.5)
        assert run_cli("train", "--config", cfg_full) == 0
        full = (out_full / "loss_trace.csv").read_text().splitlines()[1:]

        out_half = tmp_path / "half"
        cfg_half = write_config(tmp_path / "half.cfg", manifest, out_half,
                                max_iterations=3, dropout=0.5)
        assert run_cli("train", "--config", cfg_half) == 0

        out_resumed = tmp_path / "resumed"
        cfg_resumed = write_config(tmp_path / "resumed.cfg", manifest, out_resumed,
                                   max_iterations=6, dropout=0.5)
        assert run_cli("train", "--config", cfg_resumed, "--resume",
                       out_half / "checkpoint_000003.ckpt") == 0
        resumed = (out_resumed / "loss_trace.csv").read_text().splitlines()[1:]
        half = (out_half / "loss_trace.csv").read_text().splitlines()[1:]
        assert half + resumed == full


class TestDecomposeCommand:
    def test_bad_checkpoint_rejected(self, tmp_path, capsys):
        (tmp_path / "junk.ckpt").write_bytes(b"JUNKJUNKJUNK")
        write_png(tmp_path / "in.png", np.zeros((32, 32, 3)), bit_depth=8)
        assert run_cli("decompose", "--checkpoint", tmp_path / "junk.ckpt",
                       "--input", tmp_path / "in.png",
                       "--out-albedo", tmp_path / "a.png",
                       "--out-shading", tmp_path / "s.png") == 1
        assert "magic" in capsys.readouterr().err

    def test_non_finite_checkpoint_rejected(self, tmp_path, capsys):
        net = build_network(NetworkConfig(channel_scale=1 / 16), Rng(3))
        net.params["albedo.deconv.bias"].value[0] = np.nan
        save_checkpoint(Checkpoint.from_network(net, 1, (0, 0, 0, 0), b"\x00" * 32),
                        tmp_path / "nan.ckpt")
        write_png(tmp_path / "in.png", np.full((32, 32, 3), 0.5), bit_depth=8)
        assert run_cli("decompose", "--checkpoint", tmp_path / "nan.ckpt",
                       "--input", tmp_path / "in.png",
                       "--out-albedo", tmp_path / "a.png",
                       "--out-shading", tmp_path / "s.png") == 1
        assert "'albedo.deconv.bias'" in capsys.readouterr().err
        assert not (tmp_path / "a.png").exists()
        assert not (tmp_path / "s.png").exists()


class TestEvalCommand:
    def test_ground_truth_predictions_score_zero(self, tmp_path):
        manifest = write_dataset(tmp_path / "data", n=2, h=32, w=32)
        pred = tmp_path / "pred"
        pred.mkdir()
        for i in range(2):
            for kind in ("a", "s"):
                src = read_png(tmp_path / "data" / f"s{i}_{kind}.png")
                name = "albedo" if kind == "a" else "shading"
                write_png(pred / f"s{i}_{name}.png", src, bit_depth=16)
        out = tmp_path / "report.json"
        assert run_cli("eval", "--pred-dir", pred,
                       "--manifest", manifest, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["errors"] == []
        assert len(report["per_sample"]) == 2
        assert report["mean"]["mse_a"] == 0.0
        assert report["avg"]["dssim"] == 0.0
        # means are arithmetic averages of per-sample rows
        for key in ("mse_a", "lmse_s"):
            want = np.mean([r[key] for r in report["per_sample"]])
            assert abs(report["mean"][key] - want) < 1e-15

    def test_missing_prediction_reported_nonzero_exit(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path / "data", n=2, h=32, w=32)
        pred = tmp_path / "pred"
        pred.mkdir()
        src = read_png(tmp_path / "data" / "s0_a.png")
        write_png(pred / "s0_albedo.png", src, bit_depth=16)
        write_png(pred / "s0_shading.png",
                  read_png(tmp_path / "data" / "s0_s.png"), bit_depth=16)
        out = tmp_path / "report.json"
        assert run_cli("eval", "--pred-dir", pred,
                       "--manifest", manifest, "--out", out) == 1
        report = json.loads(out.read_text())
        assert len(report["per_sample"]) == 1
        assert report["errors"][0]["id"] == "s1"
        assert "missing" in report["errors"][0]["error"]


class TestSynthCommand:
    def test_resynth_identity_after_decode(self, tmp_path):
        manifest = write_dataset(tmp_path / "data", n=2, h=16, w=16)
        out = tmp_path / "resynth"
        assert run_cli("synth", "--mode", "resynth-sintel",
                       "--manifest", manifest, "--out-dir", out) == 0
        for i in range(2):
            img = read_png(out / f"s{i}_image.png")
            alb = read_png(out / f"s{i}_albedo.png")
            shd = read_png(out / f"s{i}_shading.png")
            assert np.max(np.abs(img - alb * shd)) < 2.0 / 65535.0
        lines = [l for l in (out / "manifest.tsv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) == 2

    def test_gen_mit_shading_recovers_fixture(self, tmp_path):
        manifest = write_dataset(tmp_path / "data", n=2, h=16, w=16)
        out = tmp_path / "gen"
        assert run_cli("synth", "--mode", "gen-mit-shading",
                       "--manifest", manifest, "--out-dir", out) == 0
        for i in range(2):
            want = read_png(tmp_path / "data" / f"s{i}_s.png")[:, :, 0]
            got = read_png(out / f"s{i}_shading.png")  # single channel
            # the fixture factorizes exactly, so recovery is quantization-limited
            assert np.max(np.abs(got - want)) < 4.0 / 65535.0

    def test_empty_manifest_noop_exit_zero(self, tmp_path, capsys):
        mpath = tmp_path / "empty.tsv"
        mpath.write_text("# nothing here\n")
        assert run_cli("synth", "--mode", "resynth-sintel",
                       "--manifest", mpath, "--out-dir", tmp_path / "out") == 0
        assert "empty" in capsys.readouterr().err


class TestVerifyCommand:
    def test_fresh_build_passes_quickly(self, capsys):
        import time
        t0 = time.perf_counter()
        assert run_cli("verify") == 0
        assert time.perf_counter() - t0 < 300
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "suites passed" in out

    def test_corrupted_backward_fails_naming_layer(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "SUITES", [s for s in verify.SUITES
                                               if s[0] == "layer-gradients"])
        assert run_cli("verify", "--corrupt", "conv") == 1
        out = capsys.readouterr().out
        assert "[FAIL] layer-gradients" in out
        assert "conv backward" in out
