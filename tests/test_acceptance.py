"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every in-memory check is a ``verify`` suite; ``CRITERIA``
maps each criterion to the suites it runs, and criteria 6-8 add what only
the command line or a long training run can show.  Training-dependent
thresholds (criterion 7) were fixed from the committed fixture run:
base_lr 0.05, 800 iterations, bilinear head, no dropout.
"""

import time

import numpy as np
import pytest

from conftest import write_config, write_dataset
from intrinsics import verify
from intrinsics.cli import main as cli_main
from intrinsics.data import AugmentConfig, make_synthetic_sample
from intrinsics.losses import LossConfig
from intrinsics.metrics import si_mse
from intrinsics.network import NetworkConfig, build_network
from intrinsics.png_io import read_png, write_png
from intrinsics.rng import Rng, derive_seed
from intrinsics.trainer import TrainConfig, decompose_image, train_loop

# criterion -> (description, verify suites it runs)
CRITERIA = {
    1: ("layer and loss gradient checks", ("layer-gradients", "loss-gradients")),
    2: ("whole-network gradient check (all four variants through dropout, "
        "channel scale 1/16, 32x32)",
        ("whole-network-gradient",)),
    3: ("loss algebra (offset invariance, MSE reduction, composition, masking)",
        ("loss-algebra",)),
    4: ("implementation vs independent oracles "
        "(conv, deconv and bilinear adjoints, max pool, alpha grid, lmse windows, "
        "aligned and masked dssim)",
        ("conv-oracle", "deconv-adjoint", "bilinear-adjoint", "max-pool-oracle",
         "alpha-grid-oracle", "lmse-window-oracle", "dssim-oracle")),
    5: ("resynthesis identity (memory + 16-bit PNG), shading generation on "
        "exact factorizations, augmentation identity",
        ("data-synthesis", "augmentation")),
    6: ("output extents equal input extents for all variants, at multiples "
        "of 32 and not (1, 33, 70), and a 70x65 decompose", ("network-shapes",)),
    7: ("overfit run", ()),
    8: ("bit-identical traces/checkpoints/PNGs, bit-exact resume, and the logged "
        "loss as the exact mean of one-image losses over the valid images of a batch",
        ("trainer",)),
    9: ("parameter registry vs stated topology constants "
        "(96/256/384/384/256/64, 9x9/96, three 5x5, 8x8-stride-4 heads)",
        ("topology-audit",)),
}


def report(*, n, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {desc}")
    assert not failures, f"criterion {n}: " + "; ".join(failures)


def suite_failures(n):
    """Run criterion n's verify suites; returns one line per failed suite."""
    return [f"{name}: {detail}"
            for name, passed, detail in map(verify.run_suite, CRITERIA[n][1])
            if not passed]


def test_every_suite_in_exactly_one_criterion():
    named = [name for _, suites in CRITERIA.values() for name in suites]
    assert sorted(named) == sorted(name for name, _ in verify.SUITES)


def run_suite_criterion(n, max_seconds=None):
    """Run a criterion made of verify suites alone and report it."""
    t0 = time.perf_counter()
    failures = suite_failures(n)
    elapsed = time.perf_counter() - t0
    if max_seconds is not None and elapsed >= max_seconds:
        failures.append(f"runtime {elapsed:.1f}s >= {max_seconds:.0f}s")
    report(n=n, desc=f"{CRITERIA[n][0]} ({elapsed:.1f}s)", failures=failures)


class TestCriterion1LayerGradients:
    def test_all_layers_and_losses(self):
        run_suite_criterion(1, max_seconds=60.0)


class TestCriterion2WholeNetwork:
    @pytest.mark.slow
    def test_whole_network_gradient(self):
        run_suite_criterion(2)


class TestCriterion3LossAlgebra:
    def test_loss_algebra(self):
        run_suite_criterion(3)


class TestCriterion4Oracles:
    def test_oracle_equivalence(self):
        run_suite_criterion(4)


class TestCriterion5DataSynthesis:
    def test_synthesis(self):
        run_suite_criterion(5)


class TestCriterion6ShapeContract:
    @pytest.mark.slow
    def test_all_extents_all_variants(self, tmp_path):
        failures = suite_failures(6)
        # 70x65 through the decompose command
        manifest = write_dataset(tmp_path / "data", n=1)
        out = tmp_path / "train"
        cfg_path = write_config(tmp_path / "c.cfg", manifest, out, max_iterations=1)
        cli_main(["train", "--config", str(cfg_path)])
        write_png(tmp_path / "odd.png", Rng(14).uniform((70, 65, 3)), 16)
        rc = cli_main(["decompose",
                       "--checkpoint", str(out / "checkpoint_000001.ckpt"),
                       "--input", str(tmp_path / "odd.png"),
                       "--out-albedo", str(tmp_path / "oa.png"),
                       "--out-shading", str(tmp_path / "os.png")])
        if rc != 0:
            failures.append("decompose on 70x65 input failed")
        else:
            for kind in ("a", "s"):
                t = read_png(tmp_path / f"o{kind}.png")
                if t.shape != (70, 65, 3):
                    failures.append(f"70x65 decompose: o{kind}.png {t.shape}")
                elif not (np.all(np.isfinite(t)) and 0.0 <= t.min()
                          and t.max() <= 1.0):
                    failures.append(f"70x65 decompose: o{kind}.png is "
                                    "non-finite or outside [0, 1]")
        report(n=6, desc=CRITERIA[6][0], failures=failures)


class TestCriterion7TrainingSanity:
    @pytest.mark.slow
    def test_overfit_fixture(self):
        t0 = time.perf_counter()
        failures = []
        samples = [make_synthetic_sample(i, h=64, w=64) for i in range(4)]
        network_cfg = NetworkConfig(channel_scale=1 / 16, dropout_prob=0.0,
                                    use_deconv_head=False)
        net = build_network(network_cfg, Rng(derive_seed(0, "init")))
        cfg = TrainConfig(
            base_lr=0.05, momentum=0.9, batch_size=4, max_iterations=800,
            seed=0, loss=LossConfig(lam=0.5),
            augment=AugmentConfig(crop_h=64, crop_w=64, mirror_prob=0.0,
                                  enable_rotate_zoom=False))
        _, trace = train_loop(net, samples, cfg)
        losses = [v for _, v in trace]
        if not all(np.isfinite(v) for v in losses):
            failures.append("non-finite loss in trace")
        ratio = losses[-1] / losses[0]
        if ratio >= 0.1:
            failures.append(f"final/initial loss {ratio:.3f} >= 0.1")
        worst_a = worst_s = 0.0
        for s in samples:
            albedo, shading = decompose_image(net, s.image)
            worst_a = max(worst_a, si_mse(s.albedo, albedo.astype(np.float64), s.mask))
            worst_s = max(worst_s, si_mse(s.shading, shading.astype(np.float64), s.mask))
        if worst_a >= 0.01:
            failures.append(f"albedo si-MSE {worst_a:.4f} >= 0.01")
        if worst_s >= 0.01:
            failures.append(f"shading si-MSE {worst_s:.4f} >= 0.01")
        elapsed = time.perf_counter() - t0
        if elapsed >= 600:
            failures.append(f"runtime {elapsed:.0f}s >= 600s")
        report(n=7, desc=f"{CRITERIA[7][0]} (800 iters, loss ratio {ratio:.3f}, "
                         f"si-MSE {worst_a:.4f}/{worst_s:.4f}, {elapsed:.0f}s)",
               failures=failures)


class TestCriterion8Determinism:
    @pytest.mark.slow
    def test_bit_identical_runs_and_resume(self, tmp_path):
        failures = suite_failures(8)
        manifest = write_dataset(tmp_path / "data")

        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.cfg", manifest, out,
                               max_iterations=4, dropout=0.5, checkpoint_every=2)
            cli_main(["train", "--config", str(cfg)])
            blobs.append(((out / "loss_trace.csv").read_bytes(),
                          (out / "checkpoint_000004.ckpt").read_bytes()))
        if blobs[0][0] != blobs[1][0]:
            failures.append("loss traces differ across identical seeds")
        if blobs[0][1] != blobs[1][1]:
            failures.append("checkpoints differ across identical seeds")

        # decomposition PNG determinism
        ck = tmp_path / "r1" / "checkpoint_000004.ckpt"
        write_png(tmp_path / "in.png", Rng(15).uniform((32, 32, 3)), 16)
        pngs = []
        for name in ("d1", "d2"):
            cli_main(["decompose", "--checkpoint", str(ck),
                      "--input", str(tmp_path / "in.png"),
                      "--out-albedo", str(tmp_path / f"{name}_a.png"),
                      "--out-shading", str(tmp_path / f"{name}_s.png")])
            pngs.append(((tmp_path / f"{name}_a.png").read_bytes(),
                         (tmp_path / f"{name}_s.png").read_bytes()))
        if pngs[0] != pngs[1]:
            failures.append("decomposition PNGs differ across runs")

        # resume reproduces the uninterrupted trace bit-exactly
        out_res = tmp_path / "resumed"
        cfg_res = write_config(tmp_path / "res.cfg", manifest, out_res,
                               max_iterations=4, dropout=0.5)
        cli_main(["train", "--config", str(cfg_res), "--resume",
                  str(tmp_path / "r1" / "checkpoint_000002.ckpt")])
        full = (tmp_path / "r1" / "loss_trace.csv").read_text().splitlines()[1:]
        resumed = (out_res / "loss_trace.csv").read_text().splitlines()[1:]
        if full[2:] != resumed:
            failures.append("resumed trace differs from uninterrupted run")
        report(n=8, desc=CRITERIA[8][0], failures=failures)


class TestCriterion9TopologyAudit:
    def test_registry_against_stated_constants(self):
        run_suite_criterion(9)
