"""Intrinsic image decomposition by two-scale convolutional regression.

A numpy-only implementation of the full pipeline: dense tensor layers with
hand-derived backward passes, the multiscale regression network with
simultaneous log-albedo/log-shading heads, scale-invariant and gradient
losses, dataset synthesis and augmentation, the si-MSE/LMSE/DSSIM metric
suite, and a deterministic SGD trainer with binary checkpoints.

Tensors throughout the package are plain numpy ndarrays laid out as
(N, C, H, W): batch, channel, row, column.  N is 1 wherever an image meets
the network: the convolutions, ``Network.forward`` and the losses take one
image, and ``train_loop`` runs a batch one image at a time and alone
averages over it.  Tests and gradient checks run in float64; the training path runs in float32 (the checkpoint format
stores 32-bit payloads, so live precision must match stored precision for
bit-exact resume).
"""

from .data import (AugmentConfig, Manifest, ManifestEntry, Sample, augment,
                   ensure_disjoint_split, generate_mit_shading, load_dataset,
                   load_sample, make_synthetic_sample, parse_manifest,
                   resynthesize)
from .layers import ConvSpec
from .losses import (LossConfig, gradient_loss, log_guarded, sil2_loss,
                     total_loss)
from .metrics import (dssim, evaluate_report, fit_alpha, lmse, lmse_window_sums,
                      mit_total_lmse, si_mse, ssim_map)
from .network import Network, NetworkConfig, build_network
from .png_io import read_png, write_png
from .rng import Rng, derive_seed
from .trainer import (Checkpoint, TrainConfig, decompose_image,
                      load_checkpoint, network_from_checkpoint,
                      save_checkpoint, sgd_momentum_step, train_loop)
from .verify import check_gradient

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig", "Checkpoint", "ConvSpec", "LossConfig", "Manifest",
    "ManifestEntry", "Network", "NetworkConfig", "Rng", "Sample", "TrainConfig",
    "augment", "build_network", "check_gradient", "decompose_image", "derive_seed", "dssim", "ensure_disjoint_split",
    "evaluate_report", "fit_alpha", "generate_mit_shading", "gradient_loss",
    "lmse", "lmse_window_sums", "load_checkpoint", "load_dataset",
    "load_sample", "log_guarded", "make_synthetic_sample", "mit_total_lmse",
    "network_from_checkpoint", "parse_manifest",
    "read_png", "resynthesize", "save_checkpoint", "sgd_momentum_step",
    "si_mse", "sil2_loss", "ssim_map", "total_loss", "train_loop", "write_png",
]
