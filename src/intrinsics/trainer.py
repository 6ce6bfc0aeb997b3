"""SGD-with-momentum training loop, per-layer learning rates, and the
binary checkpoint format.

The update is the classical heavy-ball form: v <- momentum*v - lr*grad,
theta <- theta + v, with lr = base_lr times the longest-prefix match of the
parameter name in the multiplier map (multiplier 0 freezes a layer).

Every stochastic choice in a run derives from (seed, iteration) alone:
epoch shuffles, per-slot augmentation draws, and dropout streams each get
their own generator, seeded by ``derive_seed`` from the run seed, a purpose
key and the epoch or iteration.  Combined with float32 parameters
(matching the checkpoint payload precision), a run resumed from a
checkpoint reproduces the uninterrupted run bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import AugmentConfig, Sample, augment, crop_to, pad_to_multiple
from .losses import LossConfig, total_loss
from .network import Network, NetworkConfig, Param
from .png_io import write_atomic
from .rng import Rng, derive_seed
from .tensor import log_guarded

CHECKPOINT_MAGIC = b"DINT"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    base_lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    max_iterations: int = 1000
    seed: int = 0
    checkpoint_every: int = 0  # 0 = only the final checkpoint
    lr_multipliers: dict = field(default_factory=dict)
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("TrainConfig: base_lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("TrainConfig: momentum outside [0, 1)")
        if self.batch_size < 1:
            raise ValueError("TrainConfig: batch_size must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("TrainConfig: max_iterations must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("TrainConfig: checkpoint_every must be >= 0")
        for prefix, mult in self.lr_multipliers.items():
            if not (math.isfinite(mult) and mult >= 0):  # 0 freezes a layer
                raise ValueError(f"TrainConfig: lr_multipliers {prefix!r} must be "
                                 f"finite and >= 0, got {mult}")


def lr_multiplier(name: str, multipliers: dict) -> float:
    """Longest-prefix match of a parameter name against the multiplier map,
    so 's1.conv1' covers weight, bias, and slope of that layer."""
    best_len = -1
    best = 1.0
    for prefix, mult in multipliers.items():
        if name.startswith(prefix) and len(prefix) > best_len:
            best_len = len(prefix)
            best = float(mult)
    return best


def sgd_momentum_step(params: dict[str, Param], cfg: TrainConfig,
                      iteration: int = 0) -> None:
    """One heavy-ball update over the registry; gradients are zeroed after."""
    for p in params.values():
        if not np.all(np.isfinite(p.grad)):
            raise ValueError(f"sgd: non-finite gradient in {p.name} "
                             f"at iteration {iteration}")
        lr = cfg.base_lr * lr_multiplier(p.name, cfg.lr_multipliers)
        p.momentum *= cfg.momentum
        p.momentum -= np.asarray(lr, dtype=p.value.dtype) * p.grad
        p.value += p.momentum
        p.zero_grad()


# -- checkpoints -------------------------------------------------------------

@dataclass
class Checkpoint:
    iteration: int
    params: list  # [(name, float32 array)]
    momentum: list
    rng_state: tuple  # 4 x u64
    fingerprint: bytes  # 32 bytes

    def apply_to(self, net: Network) -> None:
        """Install parameters and momentum; shapes must match the network."""
        for section, attr in ((self.params, "value"), (self.momentum, "momentum")):
            seen = set()
            for name, arr in section:
                if name not in net.params:
                    raise ValueError(f"checkpoint: tensor {name!r} not in network")
                p = net.params[name]
                if p.value.shape != arr.shape:
                    raise ValueError(
                        f"checkpoint: tensor {name!r} shape {arr.shape} does not "
                        f"match network shape {p.value.shape}")
                setattr(p, attr, arr.astype(net.dtype))
                seen.add(name)
            missing = set(net.params) - seen
            if missing:
                raise ValueError(f"checkpoint: missing tensor {sorted(missing)[0]!r}")

    @classmethod
    def from_network(cls, net: Network, iteration: int, rng_state, fingerprint):
        return cls(iteration,
                   [(n, p.value.astype(np.float32).copy())
                    for n, p in net.params.items()],
                   [(n, p.momentum.astype(np.float32).copy())
                    for n, p in net.params.items()],
                   tuple(rng_state), fingerprint)


def config_fingerprint(network_cfg: NetworkConfig, train_cfg: TrainConfig) -> bytes:
    """Hash of everything that shapes the training trajectory.

    Run length (max_iterations, checkpoint cadence) is excluded: iterations
    beyond a checkpoint depend only on (seed, iteration), so resuming into a
    longer run continues the same trajectory.
    """
    fields = {**vars(train_cfg), "loss": vars(train_cfg.loss),
              "augment": vars(train_cfg.augment)}
    fields.pop("max_iterations")
    fields.pop("checkpoint_every")
    blob = json.dumps({"network": vars(network_cfg), "train": fields},
                      sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).digest()


def _write_tensor_section(out: list, tensors) -> None:
    out.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors:
        encoded = name.encode("utf-8")
        out.append(struct.pack("<H", len(encoded)))
        out.append(encoded)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ValueError(f"checkpoint {self.path}: truncated")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_tensor_section(r: _Reader) -> list:
    (count,) = r.unpack("<I")
    tensors = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8")
        (rank,) = r.unpack("<B")
        dims = r.unpack(f"<{rank}I")
        size = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(r.take(4 * size), dtype="<f4").reshape(dims)
        tensors.append((name, arr.astype(np.float32)))
    return tensors


def save_checkpoint(ck: Checkpoint, path) -> None:
    out = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION)]
    _write_tensor_section(out, ck.params)
    _write_tensor_section(out, ck.momentum)
    out.append(struct.pack("<Q", ck.iteration))
    state = (tuple(ck.rng_state) + (0, 0, 0, 0))[:4]
    out.append(struct.pack("<4Q", *state))
    if len(ck.fingerprint) != 32:
        raise ValueError("checkpoint: fingerprint must be 32 bytes")
    out.append(ck.fingerprint)
    write_atomic(path, b"".join(out))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    r = _Reader(blob, path)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"checkpoint {path}: bad magic (not a checkpoint file)")
    (version,) = r.unpack("<H")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported version {version}")
    params = _read_tensor_section(r)
    momentum = _read_tensor_section(r)
    (iteration,) = r.unpack("<Q")
    rng_state = r.unpack("<4Q")
    fingerprint = r.take(32)
    if r.pos != len(blob):
        raise ValueError(f"checkpoint {path}: {len(blob) - r.pos} trailing bytes")
    for section, tensors in (("params", params), ("momentum", momentum)):
        for name, arr in tensors:
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint {path}: {section} tensor {name!r} "
                                 "holds NaN or inf")
    return Checkpoint(iteration, params, momentum, rng_state, fingerprint)


def network_from_checkpoint(ck: Checkpoint) -> Network:
    """Rebuild the topology recorded in a checkpoint and install its weights."""
    shapes = {name: arr.shape for name, arr in ck.params}
    try:
        widths = {
            "c1": shapes["s1.conv1.weight"][0],
            "c2": shapes["s1.conv2.weight"][0],
            "c3": shapes["s1.conv3.weight"][0],
            "c4": shapes["s1.conv4.weight"][0],
            "c5": shapes["s1.conv5.weight"][0],
            "c6": shapes["s1.conv6.weight"][0],
            "s2c1": shapes["s2.conv1.weight"][0],
            "mid": shapes["s2.conv2.weight"][0],
        }
    except KeyError as e:
        raise ValueError(f"checkpoint: missing tensor {e} (not a network checkpoint)")
    use_deconv = "albedo.deconv.weight" in shapes
    widths["head"] = (shapes["albedo.deconv.weight"][0] if use_deconv
                      else widths["mid"])
    conv6_in = shapes["s1.conv6.weight"][1]
    use_hc = conv6_in == widths["c1"] + widths["c2"] + widths["c5"]
    if not use_hc and conv6_in != widths["c5"]:
        raise ValueError(f"checkpoint: conv6 input width {conv6_in} matches "
                         "neither plain nor hypercolumn wiring")
    cfg = NetworkConfig(use_hypercolumn=use_hc, use_deconv_head=use_deconv)
    net = Network(cfg, None, widths=widths)
    ck.apply_to(net)
    return net


# -- training loop -------------------------------------------------------------

def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    return Rng(derive_seed(seed, "epoch", epoch)).permutation(n)


def _assemble_batch(samples, cfg: TrainConfig, iteration: int, multiple: int):
    """Pick, augment, and pad one mini-batch; returns stacked arrays.

    Sample order wraps around the dataset with a fresh shuffle per epoch.
    Images and targets are replicate-padded to the extent multiple; the
    padded border is synthetic, so the validity mask is zero there.
    """
    n = len(samples)
    ids, imgs, albs, shds, masks = [], [], [], [], []
    perms = {}
    for j in range(cfg.batch_size):
        g = iteration * cfg.batch_size + j
        epoch, pos = divmod(g, n)
        if epoch not in perms:
            perms[epoch] = _epoch_permutation(cfg.seed, epoch, n)
        s = samples[perms[epoch][pos]]
        aug = augment(s, cfg.augment, Rng(derive_seed(cfg.seed, "aug", iteration, j)))
        img, extents = pad_to_multiple(aug.image, multiple)
        alb, _ = pad_to_multiple(aug.albedo, multiple)
        shd, _ = pad_to_multiple(aug.shading, multiple)
        h, w = extents
        mask = np.zeros((1, 1, img.shape[2], img.shape[3]))
        mask[:, :, :h, :w] = aug.mask
        ids.append(s.id)
        imgs.append(img)
        albs.append(alb)
        shds.append(shd)
        masks.append(mask)
    return (ids, np.concatenate(imgs), np.concatenate(albs),
            np.concatenate(shds), np.concatenate(masks))


def train_loop(net: Network, samples: list[Sample], cfg: TrainConfig,
               checkpoint_path=None, resume: Checkpoint | None = None):
    """Run SGD training; returns (final Checkpoint, [(iteration, loss), ...]).

    ``checkpoint_path`` is a callable iteration -> path (or None to skip
    writing intermediates).  Resuming from a checkpoint taken at iteration k
    continues the exact trajectory of the uninterrupted run.
    """
    if not samples:
        raise ValueError("train_loop: dataset is empty")
    for prefix in cfg.lr_multipliers:
        if not any(name.startswith(prefix) for name in net.params):
            raise ValueError(f"train_loop: lr_multipliers prefix {prefix!r} "
                             "matches no parameter")
    fingerprint = config_fingerprint(net.cfg, cfg)
    start = 0
    if resume is not None:
        if resume.fingerprint != fingerprint:
            raise ValueError("resume: checkpoint was written with a different "
                             "configuration (fingerprint mismatch)")
        if resume.iteration > cfg.max_iterations:
            raise ValueError(f"resume: checkpoint is at iteration {resume.iteration}, "
                             f"past max_iterations {cfg.max_iterations}")
        resume.apply_to(net)
        start = resume.iteration
    rng_state = (cfg.seed, 0, 0, 0)

    trace = []
    dtype = net.dtype
    eps = cfg.loss.log_epsilon
    for it in range(start, cfg.max_iterations):
        ids, img, alb, shd, mask = _assemble_batch(samples, cfg, it,
                                                   net.cfg.input_multiple)
        log_alb = log_guarded(alb, eps).astype(dtype)
        log_shd = log_guarded(shd, eps).astype(dtype)
        mask = mask.astype(dtype)
        drop_rng = Rng(derive_seed(cfg.seed, "dropout", it))
        la, ls = net.forward(img.astype(dtype), train_mode=True, rng=drop_rng,
                             keep_cache=True)
        loss, d_la, d_ls = total_loss(log_alb, log_shd, la, ls, mask, cfg.loss)
        if not np.isfinite(loss):
            raise ValueError(f"train_loop: non-finite loss at iteration {it} "
                             f"(batch samples: {', '.join(ids)})")
        net.zero_grads()
        net.backward(d_la, d_ls, image_grad=False)
        sgd_momentum_step(net.params, cfg, it)
        trace.append((it, float(loss)))
        done = it + 1
        if (checkpoint_path is not None and cfg.checkpoint_every > 0
                and done % cfg.checkpoint_every == 0 and done < cfg.max_iterations):
            ck = Checkpoint.from_network(net, done, rng_state, fingerprint)
            save_checkpoint(ck, checkpoint_path(done))

    final = Checkpoint.from_network(net, cfg.max_iterations, rng_state, fingerprint)
    if checkpoint_path is not None:
        save_checkpoint(final, checkpoint_path(cfg.max_iterations))
    return final, trace


def decompose_image(net: Network, image: np.ndarray):
    """Eval-mode decomposition of a linear [0,1] image of any extents.

    Pads to the input multiple, runs the network, crops back, and returns
    linear-domain (albedo, shading) clipped to [0, 1].
    """
    padded, extents = pad_to_multiple(image, net.cfg.input_multiple)
    log_a, log_s = net.forward(padded.astype(net.dtype))
    albedo = np.clip(np.exp(crop_to(log_a, extents)), 0.0, 1.0)
    shading = np.clip(np.exp(crop_to(log_s, extents)), 0.0, 1.0)
    return albedo, shading
