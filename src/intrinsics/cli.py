"""Command-line surface: train, decompose, eval, synth, verify.

Configuration is flat ``key = value`` text under ``[section]`` headers
(stdlib configparser syntax).  Each section's keys are the scalar fields
of the owning module's config dataclass, which validates their values;
unknown sections or keys are rejected before any compute.  All commands
are deterministic given their inputs and seed, and exit nonzero with a
one-line cause on any error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

# load_sample is not called here, but the benchmark's tracer wraps cli.load_sample
from .data import (SPLIT_MODES, AugmentConfig, ensure_disjoint_split, generate_mit_shading,
                   load_dataset, load_mask, load_sample, load_targets, parse_manifest,
                   read_entry_png, resynthesize, to_nchw)
from .losses import LossConfig
from .metrics import PredictionRecord, evaluate_report
from .network import NetworkConfig, build_network
from .png_io import read_png, write_atomic, write_png
from .rng import Rng, derive_seed
from .trainer import (TrainConfig, decompose_image, load_checkpoint,
                      network_from_checkpoint, train_loop)
from . import verify as verify_mod


@dataclass
class RunConfig:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    train_manifest: str | None = None
    test_manifest: str | None = None
    split_mode: str = "scene-split"
    out_dir: str = "run"

    def __post_init__(self):
        if self.split_mode not in SPLIT_MODES:
            raise ValueError(f"config: [data] split_mode must be one of "
                             f"{', '.join(SPLIT_MODES)}, got {self.split_mode!r}")


def _keys(cls) -> dict:
    """Config key -> (field name, type) for each bool/int/float/str field of
    a config dataclass, which is thus the one home of its section's keys.
    The key for ``lam`` is ``lambda``, which is a Python keyword."""
    hints = get_type_hints(cls)
    return {("lambda" if f.name == "lam" else f.name): (f.name, hints[f.name])
            for f in fields(cls) if hints[f.name] in (bool, int, float, str)}


_SCHEMA = {
    "network": _keys(NetworkConfig),
    "loss": _keys(LossConfig),
    "augment": _keys(AugmentConfig),
    "train": _keys(TrainConfig),
    # [data] and [output] fill RunConfig's own fields
    "data": {name: (name, str)
             for name in ("train_manifest", "test_manifest", "split_mode")},
    "output": {"out_dir": ("out_dir", str)},
}


def load_run_config(path) -> RunConfig:
    """Parse and validate a config file; typos fail before any compute."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise ValueError(f"config: cannot read {path}")

    def parse(section, key, kind):
        try:
            return (parser.getboolean(section, key) if kind is bool
                    else kind(parser.get(section, key)))
        except ValueError as e:
            raise ValueError(f"config: [{section}] {key}: {e}") from None

    values: dict[str, dict] = {section: {} for section in _SCHEMA}
    lr_multipliers: dict[str, float] = {}
    for section in parser.sections():
        if section == "lr_multipliers":
            for key in parser.options(section):
                lr_multipliers[key] = parse(section, key, float)
            continue
        if section not in _SCHEMA:
            raise ValueError(f"config: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"config: unknown key {key!r} in [{section}]")
            name, kind = _SCHEMA[section][key]
            values[section][name] = parse(section, key, kind)
    return RunConfig(
        network=NetworkConfig(**values["network"]),
        train=TrainConfig(**values["train"], loss=LossConfig(**values["loss"]),
                          augment=AugmentConfig(**values["augment"]),
                          lr_multipliers=lr_multipliers),
        **values["data"], **values["output"])


def _nchw_to_image(t: np.ndarray) -> np.ndarray:
    return t[0].transpose(1, 2, 0)


def cmd_train(args) -> int:
    if args.config is None:
        raise ValueError("train: --config is required")
    run = load_run_config(args.config)
    if args.seed is not None:
        run.train = replace(run.train, seed=args.seed)
    if run.train_manifest is None:
        raise ValueError("config: [data] train_manifest is required to train")
    manifest = parse_manifest(run.train_manifest)
    if run.test_manifest:
        ensure_disjoint_split(manifest, parse_manifest(run.test_manifest),
                              run.split_mode)
    samples = load_dataset(manifest)
    os.makedirs(run.out_dir, exist_ok=True)
    net = build_network(run.network, Rng(derive_seed(run.train.seed, "init")))
    if args.verbose:
        print(f"training {len(samples)} samples for "
              f"{run.train.max_iterations} iterations")

    def ck_path(iteration):
        return os.path.join(run.out_dir, f"checkpoint_{iteration:06d}.ckpt")

    # no name holds a resumed Checkpoint: train_loop frees it once installed
    _, trace = train_loop(net, samples, run.train, checkpoint_path=ck_path,
                          resume=load_checkpoint(args.resume) if args.resume else None)
    trace_path = os.path.join(run.out_dir, "loss_trace.csv")
    write_atomic(trace_path, "".join(
        ["iteration,loss\n"] + [f"{it},{loss!r}\n" for it, loss in trace]).encode())
    if args.verbose and trace:
        print(f"final loss {trace[-1][1]:.6g} -> {trace_path}")
    return 0


def cmd_decompose(args) -> int:
    # no name holds the Checkpoint: its parameter and momentum copies are
    # freed before the forward
    net = network_from_checkpoint(load_checkpoint(args.checkpoint))
    image = to_nchw(read_png(args.input))
    try:
        albedo, shading = decompose_image(net, image)
    except FloatingPointError as e:
        raise ValueError(f"decompose: checkpoint {args.checkpoint}: {e}") from None
    write_png(args.out_albedo, _nchw_to_image(albedo), bit_depth=16)
    write_png(args.out_shading, _nchw_to_image(shading), bit_depth=16)
    if args.verbose:
        print(f"decomposed {args.input} "
              f"({image.shape[2]}x{image.shape[3]}) -> "
              f"{args.out_albedo}, {args.out_shading}")
    return 0


def cmd_eval(args) -> int:
    manifest = parse_manifest(args.manifest)
    if not manifest.entries:
        raise ValueError("eval: manifest has no samples")
    errors = []

    # one sample's maps at a time: each record is read as the report scores
    # it, and a sample whose files are missing or unreadable goes to errors
    def records():
        for entry in manifest.entries:
            pa = os.path.join(args.pred_dir, f"{entry.id}_albedo.png")
            ps = os.path.join(args.pred_dir, f"{entry.id}_shading.png")
            try:
                if not (os.path.exists(pa) and os.path.exists(ps)):
                    raise ValueError(f"missing prediction files {pa} / {ps}")
                albedo, shading, mask = load_targets(entry, manifest.base_dir)
                rec = PredictionRecord(entry.id, albedo, shading, to_nchw(read_png(pa)),
                                       to_nchw(read_png(ps)), mask)
            except (OSError, ValueError) as e:
                errors.append({"id": entry.id, "error": str(e)})
                continue
            yield rec

    try:
        report = evaluate_report(records(), include_mit_total=args.mit_total)
    except ValueError:
        if not errors:
            raise
        report = {"per_sample": [], "errors": []}  # no sample could be read
    order = {entry.id: i for i, entry in enumerate(manifest.entries)}
    report["errors"] = sorted(errors + report["errors"], key=lambda e: order[e["id"]])
    write_atomic(args.out, (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    if args.verbose and "mean" in report:
        m = report["mean"]
        print(f"mse_a={m['mse_a']:.6f} mse_s={m['mse_s']:.6f} "
              f"lmse_a={m['lmse_a']:.6f} lmse_s={m['lmse_s']:.6f} "
              f"dssim_a={m['dssim_a']:.6f} dssim_s={m['dssim_s']:.6f}")
    if report["errors"]:
        for err in report["errors"]:
            print(f"eval error [{err['id']}]: {err['error']}", file=sys.stderr)
        return 1
    return 0


def cmd_synth(args) -> int:
    manifest = parse_manifest(args.manifest)
    os.makedirs(args.out_dir, exist_ok=True)
    if not manifest.entries:
        print("synth: manifest is empty, nothing to do", file=sys.stderr)
        return 0
    lines = []
    for entry in manifest.entries:
        sid = entry.id
        if args.mode == "gen-mit-shading":  # never reads the shading it replaces
            image, albedo = (to_nchw(read_entry_png(entry, manifest.base_dir, p))
                             for p in (entry.image_path, entry.albedo_path))
            shading, alpha, valid = generate_mit_shading(image, albedo)
            mask = load_mask(entry, manifest.base_dir, albedo.shape[2:]) * valid
            if args.verbose:
                print(f"{sid}: alpha={alpha:.6f} "
                      f"valid={float(valid.mean()):.4f}")
        else:  # resynth-sintel, which never reads the input image
            albedo, shading, mask = load_targets(entry, manifest.base_dir)
            image = resynthesize(albedo, shading)
        names = []
        for kind, t, depth in (("image", image, 16), ("albedo", albedo, 16),
                               ("shading", shading, 16), ("mask", mask, 8)):
            names.append(f"{sid}_{kind}.png")
            write_png(os.path.join(args.out_dir, names[-1]),
                      t[0, 0] if t.shape[1] == 1 else _nchw_to_image(t),
                      bit_depth=depth)
        lines.append("\t".join([sid, *names, entry.scene]))
    out_manifest = os.path.join(args.out_dir, "manifest.tsv")
    write_atomic(out_manifest, (f"# generated by intrinsics synth --mode {args.mode}\n"
                                + "\n".join(lines) + "\n").encode())
    if args.verbose:
        print(f"wrote {len(lines)} samples -> {out_manifest}")
    return 0


def cmd_verify(args) -> int:
    passed = 0
    for name, _ in verify_mod.SUITES:
        _, ok, detail = verify_mod.run_suite(name)
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")
        passed += ok
    print(f"{passed}/{len(verify_mod.SUITES)} suites passed")
    return 0 if passed == len(verify_mod.SUITES) else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intrinsics",
        description="Albedo/shading decomposition by convolutional regression")
    parser.add_argument("--verbose", action="store_true", help="progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", default=None, help="run configuration file")
    p.add_argument("--resume", default=None,
                   help="checkpoint to resume from (same config)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured training seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decompose", help="split an image into albedo and shading")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out-albedo", required=True)
    p.add_argument("--out-shading", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mit-total", action="store_true",
                   help="include the approximate reweighted total LMSE")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="derive a dataset (shading generation or "
                                     "resynthesis)")
    p.add_argument("--mode", required=True,
                   choices=["gen-mit-shading", "resynth-sintel"])
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="run every module's verification suite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
