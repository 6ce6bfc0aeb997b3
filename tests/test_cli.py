import configparser
import json
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import write_config, write_dataset, write_png_dataset
from intrinsics import cli, data, trainer, verify
from intrinsics.cli import _SCHEMA, load_run_config, main
from intrinsics.data import parse_manifest, to_nchw
from intrinsics.metrics import evaluate_report
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

    def test_non_utf8_config_names_itself(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"[train]\nbase_lr = 0.1 # \xff\n")
        with pytest.raises(ValueError) as e:
            load_run_config(cfg)
        assert str(e.value) == f"config: {cfg} is not UTF-8 text (invalid start byte)"

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

    @pytest.mark.parametrize("section, key", [("train", "base_lr"),
                                              ("network", "channel_scale"),
                                              ("loss", "log_epsilon")])
    def test_values_not_finite_and_positive_rejected(self, tmp_path, section, key):
        cfg = tmp_path / "bad.cfg"
        for value in ("0", "-2", "nan", "inf", "-inf"):
            cfg.write_text(f"[{section}]\n{key} = {value}\n")
            with pytest.raises(ValueError, match=rf"{key} must be finite and > 0, "
                                                 rf"got {float(value)}"):
                load_run_config(cfg)

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

    def test_seed_is_an_option_of_train_only(self, tmp_path):
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("")
        with pytest.raises(SystemExit) as err:
            run_cli("--seed", "5", "synth", "--mode", "resynth-sintel",
                    "--manifest", manifest, "--out-dir", tmp_path / "out")
        assert err.value.code == 2

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

    def test_test_manifest_sharing_a_scene_rejected_before_compute(self, tmp_path, capsys,
                                                                   monkeypatch):
        manifest = write_dataset(tmp_path / "data", n=2)
        test_manifest = write_dataset(tmp_path / "test", n=1, scenes=["scene1"])
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", manifest, out, max_iterations=1)
        cfg.write_text(cfg.read_text().replace(
            "[data]\n", f"[data]\ntest_manifest = {test_manifest}\n"))
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("loaded"))
        assert run_cli("train", "--config", cfg) == 1
        assert "scene-split: scene 'scene1' appears in both" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_overrides(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        outs = []
        for seed_flag in ("7", "8"):
            out = tmp_path / f"s{seed_flag}"
            cfg = write_config(tmp_path / f"s{seed_flag}.cfg", manifest, out,
                               max_iterations=2)
            assert run_cli("train", "--config", cfg, "--seed", seed_flag) == 0
            outs.append((out / "loss_trace.csv").read_text())
        assert outs[0] != outs[1]

    def test_unstorable_seed_flag_rejected_before_training(self, tmp_path, capsys,
                                                          monkeypatch):
        manifest = write_dataset(tmp_path / "data", n=1)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", manifest, out, max_iterations=2)
        monkeypatch.setattr(cli, "train_loop", lambda *a, **k: pytest.fail("trained"))
        assert run_cli("train", "--config", cfg, "--seed", "-1") == 1
        assert "seed must be in [0, 2**64), got -1" in capsys.readouterr().err
        assert not out.exists()

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

    def test_stopped_run_keeps_its_last_checkpoint_and_trace(self, tmp_path, monkeypatch,
                                                              capsys):
        """A run at checkpoint_every = 2 whose fourth update fails exits 1 and
        leaves the iteration-2 checkpoint and the trace rows up to it."""
        manifest = write_dataset(tmp_path / "data")
        cfg = write_config(tmp_path / "full.cfg", manifest, tmp_path / "full",
                           max_iterations=6, dropout=0.5, checkpoint_every=2)
        assert run_cli("train", "--config", cfg) == 0
        full = (tmp_path / "full" / "loss_trace.csv").read_bytes().splitlines(True)

        steps = []

        def step(*args, orig=trainer.sgd_momentum_step):
            steps.append(1)
            if len(steps) == 4:
                raise ValueError("update failed")
            return orig(*args)

        monkeypatch.setattr(trainer, "sgd_momentum_step", step)
        out = tmp_path / "stopped"
        cfg = write_config(tmp_path / "stopped.cfg", manifest, out,
                           max_iterations=6, dropout=0.5, checkpoint_every=2)
        assert run_cli("train", "--config", cfg) == 1
        assert "update failed" in capsys.readouterr().err
        assert sorted(p.name for p in out.glob("*.ckpt")) == ["checkpoint_000002.ckpt"]
        assert (out / "loss_trace.csv").read_bytes() == b"".join(full[:3])

    def test_off_cadence_resume_writes_the_uninterrupted_checkpoints(self, tmp_path):
        """Resumed at iteration 3 into a 6-iteration run at checkpoint_every
        = 2, train writes the checkpoints of iterations 4 and 6 and the trace
        rows 3-5 of the uninterrupted run."""
        manifest = write_dataset(tmp_path / "data")
        runs = {}
        for name, n, every in (("full", 6, 2), ("half", 3, 0), ("resumed", 6, 2)):
            cfg = write_config(tmp_path / f"{name}.cfg", manifest, tmp_path / name,
                               max_iterations=n, dropout=0.5, checkpoint_every=every)
            resume = ("--resume", tmp_path / "half" / "checkpoint_000003.ckpt") \
                if name == "resumed" else ()
            assert run_cli("train", "--config", cfg, *resume) == 0
            runs[name] = tmp_path / name
        written = sorted(p.name for p in runs["resumed"].glob("*.ckpt"))
        assert written == ["checkpoint_000004.ckpt", "checkpoint_000006.ckpt"]
        for name in written:
            assert (runs["resumed"] / name).read_bytes() == (runs["full"] / name).read_bytes()
        full = (runs["full"] / "loss_trace.csv").read_text().splitlines()
        resumed = (runs["resumed"] / "loss_trace.csv").read_text().splitlines()
        assert resumed == full[:1] + full[4:]

    def test_resume_in_place_keeps_the_earlier_trace_rows(self, tmp_path):
        """A 4-iteration run at checkpoint_every = 2, resumed into its own
        out_dir from iteration 2, leaves the uninterrupted run's trace byte
        for byte; resuming the finished run from iteration 4 leaves it as
        it was."""
        manifest = write_dataset(tmp_path / "data")
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", manifest, out, max_iterations=4,
                           dropout=0.5, checkpoint_every=2)
        assert run_cli("train", "--config", cfg) == 0
        full = (out / "loss_trace.csv").read_bytes()
        for it in (2, 4):
            assert run_cli("train", "--config", cfg, "--resume",
                           out / f"checkpoint_{it:06d}.ckpt") == 0
            assert (out / "loss_trace.csv").read_bytes() == full, it

    def test_resumed_checkpoint_released_before_training(self, tmp_path, monkeypatch):
        """Once installed, the resumed ``Checkpoint``'s parameter and momentum
        copies are not held through the iterations: a weakref taken through
        a wrapped ``cli.load_checkpoint`` is dead at every update."""
        manifest = write_dataset(tmp_path / "data")
        cfg = write_config(tmp_path / "a.cfg", manifest, tmp_path / "a", max_iterations=1)
        assert run_cli("train", "--config", cfg) == 0
        refs, alive = [], []

        def load(path, orig=cli.load_checkpoint):
            ck = orig(path)
            refs.append(weakref.ref(ck))
            return ck

        def step(*args, orig=trainer.sgd_momentum_step):
            alive.append(refs[0]() is not None)
            return orig(*args)

        monkeypatch.setattr(cli, "load_checkpoint", load)
        monkeypatch.setattr(trainer, "sgd_momentum_step", step)
        cfg = write_config(tmp_path / "b.cfg", manifest, tmp_path / "b", max_iterations=3)
        assert run_cli("train", "--config", cfg, "--resume",
                       tmp_path / "a" / "checkpoint_000001.ckpt") == 0
        assert alive == [False, False]


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

    def test_non_finite_output_rejected(self, tmp_path, capsys):
        # finite weights pass the checkpoint check but overflow the forward
        net = build_network(NetworkConfig(channel_scale=1 / 16), Rng(3))
        w = net.params["s2.conv2.weight"].value
        w[...] = np.where(Rng(4).uniform(w.shape) < 0.5, -3e38, 3e38)
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(Checkpoint.from_network(net, 1, (0, 0, 0, 0), b"\x00" * 32), ckpt)
        write_png(tmp_path / "in.png", np.full((32, 32, 3), 0.5), bit_depth=8)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli("decompose", "--checkpoint", ckpt,
                           "--input", tmp_path / "in.png",
                           "--out-albedo", tmp_path / "a.png",
                           "--out-shading", tmp_path / "s.png") == 1
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt}: network output is not finite" in err
        assert not (tmp_path / "a.png").exists()
        assert not (tmp_path / "s.png").exists()


    def test_checkpoint_released_before_the_forward(self, tmp_path, monkeypatch):
        """The checkpoint's parameter and momentum copies are not held
        through the forward: nothing refers to the loaded ``Checkpoint`` by
        the time ``decompose_image`` runs."""
        net = build_network(NetworkConfig(channel_scale=1 / 16), Rng(3))
        save_checkpoint(Checkpoint.from_network(net, 1, (0, 0, 0, 0), b"\x00" * 32),
                        tmp_path / "a.ckpt")
        write_png(tmp_path / "in.png", np.full((32, 32, 3), 0.5), bit_depth=8)
        refs, alive = [], []

        def load(path, orig=cli.load_checkpoint):
            ck = orig(path)
            refs.append(weakref.ref(ck))
            return ck

        def decompose(*args, orig=cli.decompose_image):
            alive.append(refs[0]() is not None)
            return orig(*args)

        monkeypatch.setattr(cli, "load_checkpoint", load)
        monkeypatch.setattr(cli, "decompose_image", decompose)
        assert run_cli("decompose", "--checkpoint", tmp_path / "a.ckpt",
                       "--input", tmp_path / "in.png",
                       "--out-albedo", tmp_path / "a.png",
                       "--out-shading", tmp_path / "s.png") == 0
        assert alive == [False]


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
        assert "mit_total_lmse" not in report
        # means are arithmetic averages of per-sample rows
        for key in ("mse_a", "lmse_s"):
            want = np.mean([r[key] for r in report["per_sample"]])
            assert abs(report["mean"][key] - want) < 1e-15
        assert run_cli("eval", "--pred-dir", pred, "--manifest", manifest,
                       "--out", out, "--mit-total") == 0
        report = json.loads(out.read_text())
        assert report["mit_total_lmse"] == 0.0
        assert "mit_total_lmse_note" in report

    @pytest.mark.parametrize("mit_total", [False, True], ids=["plain", "mit-total"])
    def test_mixed_bit_depths_score_their_float_reads(self, tmp_path, mit_total):
        """Ground truth at 8 and 16 bits, a grayscale shading and 8- and
        16-bit masks: the report is, byte for byte, ``evaluate_report`` over
        the maps as ``read_png`` reads them to floats."""
        manifest = write_png_dataset(tmp_path)
        entries = {e.id: e for e in parse_manifest(manifest).entries}
        depths = {read_png(tmp_path / p, integers=True).dtype for e in entries.values()
                  for p in (e.albedo_path, e.mask_path) if p}
        assert depths == {np.dtype(np.uint8), np.dtype(np.uint16)}
        pred = tmp_path / "pred"
        pred.mkdir()
        for sid, e in entries.items():
            for path, name in ((e.albedo_path, "albedo"), (e.shading_path, "shading")):
                truth = read_png(tmp_path / path)
                write_png(pred / f"{sid}_{name}.png",
                          truth * (0.7 + 0.5 * Rng(3).uniform(truth.shape)), bit_depth=16)

        def load(sid):
            e = entries[sid]
            maps = [to_nchw(read_png(p)) for p in (
                tmp_path / e.albedo_path, tmp_path / e.shading_path,
                pred / f"{sid}_albedo.png", pred / f"{sid}_shading.png")]
            mask = (np.ones((40, 44)) if e.mask_path is None else
                    np.atleast_3d(read_png(tmp_path / e.mask_path)).max(axis=2) > 0)
            return (*maps, mask[None, None].astype(np.float64))

        want = evaluate_report(entries, load, include_mit_total=mit_total)
        assert want["errors"] == [] and len(want["per_sample"]) == 4
        out = tmp_path / "report.json"
        assert run_cli("eval", "--pred-dir", pred, "--manifest", manifest, "--out", out,
                       *(["--mit-total"] if mit_total else [])) == 0
        assert out.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_manifest_without_samples_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("")
        out = tmp_path / "report.json"
        assert run_cli("eval", "--pred-dir", tmp_path, "--manifest", manifest,
                       "--out", out) == 1
        assert "eval: manifest has no samples" in capsys.readouterr().err
        assert not out.exists()

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

    def test_unreadable_file_reported_and_the_rest_scored(self, tmp_path, capsys):
        """A prediction that is not a PNG is listed under ``errors`` with
        the reader's message, the other sample is scored, and the report is
        written, as it is when every sample fails."""
        manifest = write_dataset(tmp_path / "data", n=2, h=32, w=32)
        pred = tmp_path / "pred"
        pred.mkdir()
        for i in range(2):
            for kind, name in (("a", "albedo"), ("s", "shading")):
                write_png(pred / f"s{i}_{name}.png",
                          read_png(tmp_path / "data" / f"s{i}_{kind}.png"), bit_depth=16)
        out = tmp_path / "report.json"
        (pred / "s1_albedo.png").write_bytes(b"not a png")
        assert run_cli("eval", "--pred-dir", pred,
                       "--manifest", manifest, "--out", out) == 1
        report = json.loads(out.read_text())
        assert [r["id"] for r in report["per_sample"]] == ["s0"]
        [err] = report["errors"]
        assert err["id"] == "s1" and "is not a PNG file" in err["error"]
        assert "eval error [s1]" in capsys.readouterr().err

        (pred / "s0_shading.png").write_bytes(b"not a png either")
        out.unlink()
        assert run_cli("eval", "--pred-dir", pred,
                       "--manifest", manifest, "--out", out) == 1
        report = json.loads(out.read_text())
        assert report["per_sample"] == []
        assert [e["id"] for e in report["errors"]] == ["s0", "s1"]

    def test_errors_listed_in_manifest_order(self, tmp_path):
        """A scoring failure (s0's mask has no valid pixel) and a read failure
        (s1's prediction is missing) are listed in the manifest's order."""
        manifest = write_dataset(tmp_path / "data", n=2, h=32, w=32)
        write_png(tmp_path / "data" / "s0_m.png", np.zeros((32, 32)), bit_depth=8)
        lines = manifest.read_text().splitlines()
        s0 = lines[0].split("\t")
        lines[0] = "\t".join(s0[:4] + ["s0_m.png"] + s0[4:])
        manifest.write_text("\n".join(lines) + "\n")
        pred = tmp_path / "pred"
        pred.mkdir()
        for kind, name in (("a", "albedo"), ("s", "shading")):
            write_png(pred / f"s0_{name}.png",
                      read_png(tmp_path / "data" / f"s0_{kind}.png"), bit_depth=16)
        out = tmp_path / "report.json"
        assert run_cli("eval", "--pred-dir", pred,
                       "--manifest", manifest, "--out", out) == 1
        report = json.loads(out.read_text())
        assert report["per_sample"] == []
        assert [e["id"] for e in report["errors"]] == ["s0", "s1"]
        assert "missing" in report["errors"][1]["error"]

    def test_reads_ground_truth_only_one_sample_at_a_time(self, tmp_path, monkeypatch):
        """eval decodes no input image, and scores each sample before it
        reads the next: its traced peak grows from 2 to 8 samples by less
        than one sample's maps, where holding every record adds six."""
        manifest = write_dataset(tmp_path / "data", n=8, h=64, w=64)
        pred = tmp_path / "pred"
        pred.mkdir()
        for i in range(8):
            for kind, name in (("a", "albedo"), ("s", "shading")):
                write_png(pred / f"s{i}_{name}.png",
                          read_png(tmp_path / "data" / f"s{i}_{kind}.png"), bit_depth=16)
        lines = manifest.read_text().splitlines()
        (tmp_path / "data" / "two.tsv").write_text("\n".join(lines[:2]) + "\n")
        reads = []
        monkeypatch.setattr(data, "read_png", lambda p, *a, orig=data.read_png, **k:
                            reads.append(Path(p).name) or orig(p, *a, **k))
        peaks = []
        for m in (tmp_path / "data" / "two.tsv", manifest):
            tracemalloc.start()
            try:
                assert run_cli("eval", "--pred-dir", pred, "--manifest", m,
                               "--out", tmp_path / "r.json") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert reads and not [r for r in reads if r.endswith("_i.png")]
        one_sample = (4 * 3 + 1) * 64 * 64 * 8  # two truths, two predictions, a mask
        assert peaks[1] - peaks[0] < one_sample, peaks


class TestGrayscaleMaps:
    @staticmethod
    def _tree(root, rgb):
        """``write_png_dataset`` (s3's shading grayscale, 8-bit) and gray
        shading predictions for every sample; with ``rgb`` each of those
        gray maps is written as RGB with the gray in all three channels."""
        root.mkdir()
        manifest = write_png_dataset(root)
        pred = root / "pred"
        pred.mkdir()
        for i in range(4):
            truth = read_png(root / f"s{i}_a.png")
            write_png(pred / f"s{i}_albedo.png", truth * 0.9, 16)
            write_png(pred / f"s{i}_shading.png", truth.mean(axis=2) * 0.8, 16)
        if rgb:
            for path in (root / "s3_s.png", *pred.glob("*_shading.png")):
                gray = read_png(path, integers=True)
                write_png(path, np.repeat(gray[:, :, None] / np.iinfo(gray.dtype).max, 3,
                                          axis=2), 8 * gray.itemsize)
                assert read_png(path, integers=True).shape == (40, 44, 3)
        return manifest, pred

    def test_outputs_match_an_rgb_copy_of_the_gray(self, tmp_path):
        """A grayscale map is held as one channel, yet ``train`` (crop and
        rotate/zoom), ``eval`` with ``--mit-total`` and ``synth
        resynth-sintel`` write the bytes of the same runs on RGB files that
        hold the gray in all three channels."""
        outputs = []
        for rgb in (False, True):
            root = tmp_path / ("rgb" if rgb else "gray")
            manifest, pred = self._tree(root, rgb)
            for rotate in ("false", "true"):
                cfg = write_config(root / f"{rotate}.cfg", manifest, root / f"train_{rotate}",
                                   dropout=0.5, max_iterations=2)
                cfg.write_text(cfg.read_text().replace("enable_rotate_zoom = false",
                                                       f"enable_rotate_zoom = {rotate}"))
                assert run_cli("train", "--config", cfg) == 0
            assert run_cli("eval", "--pred-dir", pred, "--manifest", manifest,
                           "--out", root / "report.json", "--mit-total") == 0
            assert run_cli("synth", "--mode", "resynth-sintel", "--manifest", manifest,
                           "--out-dir", root / "synth") == 0
            outputs.append({str(p.relative_to(root)): p.read_bytes() for p in sorted(
                [*root.glob("train_*/*"), root / "report.json", *root.glob("synth/*")])})
        assert len(outputs[0]) == 2 * 2 + 1 + 4 * 4 + 1
        assert outputs[0] == outputs[1]


class TestSynthCommand:
    def test_resynth_identity_after_decode(self, tmp_path, monkeypatch):
        manifest = write_dataset(tmp_path / "data", n=2, h=16, w=16)
        out = tmp_path / "resynth"
        reads = []
        monkeypatch.setattr(data, "read_png", lambda p, *a, orig=data.read_png, **k:
                            reads.append(Path(p).name) or orig(p, *a, **k))
        assert run_cli("synth", "--mode", "resynth-sintel",
                       "--manifest", manifest, "--out-dir", out) == 0
        assert reads == ["s0_a.png", "s0_s.png", "s1_a.png", "s1_s.png"]  # no input image
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

    def test_gen_mit_shading_reads_no_shading_file(self, tmp_path, monkeypatch):
        """The shading files are what gen-mit-shading regenerates: it writes
        the same bytes whether they exist or not, and never reads them."""
        manifest = write_dataset(tmp_path / "data", n=2, h=16, w=16)
        outputs = []
        for out in (tmp_path / "with", tmp_path / "without"):
            reads = []
            monkeypatch.setattr(data, "read_png", lambda p, *a, orig=data.read_png, **k:
                                reads.append(Path(p).name) or orig(p, *a, **k))
            assert run_cli("synth", "--mode", "gen-mit-shading",
                           "--manifest", manifest, "--out-dir", out) == 0
            monkeypatch.undo()
            assert reads == ["s0_i.png", "s0_a.png", "s1_i.png", "s1_a.png"]
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
            for i in range(2):
                (tmp_path / "data" / f"s{i}_s.png").unlink(missing_ok=True)
        assert len(outputs[0]) == 9 and outputs[0] == outputs[1]

    def test_empty_manifest_noop_exit_zero(self, tmp_path, capsys):
        mpath = tmp_path / "empty.tsv"
        mpath.write_text("# nothing here\n")
        assert run_cli("synth", "--mode", "resynth-sintel",
                       "--manifest", mpath, "--out-dir", tmp_path / "out") == 0
        assert "empty" in capsys.readouterr().err


def test_verbose_prints_progress(tmp_path, capsys):
    manifest = write_dataset(tmp_path / "data", n=1)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", manifest, out, max_iterations=2)
    pred = tmp_path / "pred"
    pred.mkdir()
    image = tmp_path / "data" / "s0_i.png"
    commands = [
        ("train", "--config", cfg),
        ("decompose", "--checkpoint", out / "checkpoint_000002.ckpt", "--input", image,
         "--out-albedo", pred / "s0_albedo.png", "--out-shading", pred / "s0_shading.png"),
        ("eval", "--pred-dir", pred, "--manifest", manifest, "--out", tmp_path / "r.json"),
        ("synth", "--mode", "gen-mit-shading", "--manifest", manifest,
         "--out-dir", tmp_path / "gen"),
    ]
    for argv in commands:
        assert run_cli("--verbose", *argv) == 0
    lines = capsys.readouterr().out.splitlines()
    want = [r"training 1 samples for 2 iterations",
            rf"final loss \S+ -> {re.escape(str(out / 'loss_trace.csv'))}",
            rf"decomposed {re.escape(str(image))} \(32x32\) -> \S+s0_albedo.png, "
            r"\S+s0_shading.png",
            r"mse_a=\S+ mse_s=\S+ lmse_a=\S+ lmse_s=\S+ dssim_a=\S+ dssim_s=\S+",
            r"s0: alpha=\S+ valid=\S+",
            rf"wrote 1 samples -> {re.escape(str(tmp_path / 'gen' / 'manifest.tsv'))}"]
    assert len(lines) == len(want)
    for line, pattern in zip(lines, want):
        assert re.fullmatch(pattern, line), line


def test_verbose_after_the_command_prints_the_same_lines(tmp_path, capsys):
    """--verbose is global: after the command name it prints what it prints
    before it, with the targets themselves as the predictions."""
    manifest = write_dataset(tmp_path / "data", n=2)
    pred = tmp_path / "pred"
    pred.mkdir()
    for sid in ("s0", "s1"):
        for kind, short in (("albedo", "a"), ("shading", "s")):
            (pred / f"{sid}_{kind}.png").write_bytes(
                (tmp_path / "data" / f"{sid}_{short}.png").read_bytes())
    argv = ("--pred-dir", pred, "--manifest", manifest, "--out", tmp_path / "r.json")
    outputs = []
    for args in (("--verbose", "eval", *argv), ("eval", *argv, "--verbose")):
        assert run_cli(*args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("mse_a=") and outputs[0] == outputs[1]


class TestVerifyCommand:
    @pytest.mark.slow
    def test_fresh_build_passes_quickly(self, capsys):
        import time
        t0 = time.perf_counter()
        assert run_cli("verify") == 0
        assert time.perf_counter() - t0 < 300
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "suites passed" in out

    def test_corrupted_backward_fails_naming_layer(self, capsys, monkeypatch):
        def broken():
            raise AssertionError("conv backward (x): rel error 1.00e-02")
        monkeypatch.setattr(verify, "SUITES", [("layer-gradients", broken)])
        assert run_cli("verify") == 1
        out = capsys.readouterr().out
        assert "[FAIL] layer-gradients (conv backward (x): rel error 1.00e-02)" in out
        assert "0/1 suites passed" in out
