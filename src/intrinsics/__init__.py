"""Intrinsic image decomposition by two-scale convolutional regression.

A numpy-only implementation of the full pipeline: dense tensor layers with
hand-derived backward passes, the multiscale regression network with
simultaneous log-albedo/log-shading heads, scale-invariant and gradient
losses, dataset synthesis and augmentation, the si-MSE/LMSE/DSSIM metric
suite, and a deterministic SGD trainer with binary checkpoints.
"""

from .data import (AugmentConfig, Manifest, ManifestEntry, Sample, augment,
                   crop_to, ensure_disjoint_split, generate_mit_shading,
                   load_dataset, load_sample, make_synthetic_sample,
                   pad_to_multiple, parse_manifest, resynthesize)
from .layers import ConvSpec
from .losses import LossConfig, gradient_loss, sil2_loss, total_loss
from .metrics import (PredictionRecord, dssim, evaluate_report, fit_alpha,
                      lmse, lmse_window_sums, mit_total_lmse, si_mse, ssim_map)
from .network import Network, NetworkConfig, build_network
from .png_io import read_png, write_png
from .rng import Rng, derive_seed
from .tensor import check_gradient, log_guarded
from .trainer import (Checkpoint, TrainConfig, decompose_image,
                      load_checkpoint, network_from_checkpoint,
                      save_checkpoint, sgd_momentum_step, train_loop)

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig", "Checkpoint", "ConvSpec", "LossConfig", "Manifest",
    "ManifestEntry", "Network", "NetworkConfig", "PredictionRecord", "Rng",
    "Sample", "TrainConfig", "augment", "build_network", "check_gradient",
    "crop_to", "decompose_image", "derive_seed", "dssim", "ensure_disjoint_split",
    "evaluate_report", "fit_alpha", "generate_mit_shading", "gradient_loss",
    "lmse", "lmse_window_sums", "load_checkpoint", "load_dataset",
    "load_sample", "log_guarded", "make_synthetic_sample", "mit_total_lmse",
    "network_from_checkpoint", "pad_to_multiple", "parse_manifest",
    "read_png", "resynthesize", "save_checkpoint", "sgd_momentum_step",
    "si_mse", "sil2_loss", "ssim_map", "total_loss", "train_loop", "write_png",
]
