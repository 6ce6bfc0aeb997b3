"""SGD-with-momentum training loop, per-layer learning rates, and the
binary checkpoint format.  The loop writes no file: it trains to the next
checkpoint and returns it, and its caller saves it and resumes from it.

The update is the classical heavy-ball form: v <- momentum*v - lr*grad,
theta <- theta + v, with lr = base_lr times the longest-prefix match of the
parameter name in the multiplier map (multiplier 0 freezes a layer).

Every stochastic choice in a run derives from (seed, iteration) alone:
epoch shuffles, and each batch slot's augmentation draws and dropout
masks, get their own generator, seeded by ``derive_seed`` from the run
seed, a purpose key and the epoch, or the iteration and the image's slot
in the batch.  Combined with float32 parameters
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

from .data import AugmentConfig, Sample, augment
from .losses import LossConfig, log_guarded, total_loss
from .network import Network, NetworkConfig, Param, network_from_shapes
from .png_io import ByteReader, write_atomic
from .rng import Rng, derive_seed

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
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError(f"TrainConfig: base_lr must be finite and > 0, "
                             f"got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("TrainConfig: momentum outside [0, 1)")
        if self.batch_size < 1:
            raise ValueError("TrainConfig: batch_size must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("TrainConfig: max_iterations must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("TrainConfig: checkpoint_every must be >= 0")
        if not 0 <= self.seed < 2 ** 64:  # a checkpoint stores it as a u64
            raise ValueError(f"TrainConfig: seed must be in [0, 2**64), got {self.seed}")
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

    def apply_params(self, net: Network) -> None:
        """Install the parameters; shapes must match the network."""
        _install(net, self.params, "value")

    def apply_momentum(self, net: Network) -> None:
        """Install the momentum buffers; shapes must match the network."""
        _install(net, self.momentum, "momentum")

    @classmethod
    def from_network(cls, net: Network, iteration: int, rng_state, fingerprint):
        """Snapshot the network: one float32 copy of each parameter and
        momentum tensor (``astype`` copies even at float32)."""
        return cls(iteration,
                   [(n, p.value.astype(np.float32)) for n, p in net.params.items()],
                   [(n, p.momentum.astype(np.float32)) for n, p in net.params.items()],
                   tuple(rng_state), fingerprint)


def _install(net: Network, section, attr: str) -> None:
    """Set attribute ``attr`` of every parameter to a copy of its tensor in
    ``section``, checking that the names and shapes match the network's."""
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
        out += [struct.pack("<H", len(encoded)), encoded,
                struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                np.ascontiguousarray(arr, dtype="<f4")]  # no copy at float32


def _read_tensor_section(r: ByteReader, where: str) -> list:
    (count,) = r.unpack("<I")
    tensors = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).tobytes().decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"{where} tensor name is not UTF-8 ({e.reason})") from None
        (rank,) = r.unpack("<B")
        dims = r.unpack(f"<{rank}I")
        # math.prod is exact, so an oversized tensor reads past the end
        arr = np.frombuffer(r.take(4 * math.prod(dims)), dtype="<f4").reshape(dims)
        if not np.isfinite(arr).all():
            raise ValueError(f"{where} tensor {name!r} holds NaN or inf")
        tensors.append((name, arr))
    return tensors


def save_checkpoint(ck: Checkpoint, path) -> None:
    """Write ``ck`` in the binary format, streamed from the header fields
    and the tensors' own float32 buffers: no buffer of the file's size is
    built."""
    if len(ck.rng_state) != 4:
        raise ValueError("checkpoint: rng_state must be 4 words")
    if len(ck.fingerprint) != 32:
        raise ValueError("checkpoint: fingerprint must be 32 bytes")
    out = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION)]
    _write_tensor_section(out, ck.params)
    _write_tensor_section(out, ck.momentum)
    out += [struct.pack("<Q4Q", ck.iteration, *ck.rng_state), ck.fingerprint]
    write_atomic(path, *out)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint.  Its tensors are read-only float32 views of the
    file's one buffer, which installing them into a network copies."""
    with open(path, "rb") as f:
        r = ByteReader(f.read(), f"checkpoint {path}: truncated")
    if r.take(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"checkpoint {path}: bad magic (not a checkpoint file)")
    (version,) = r.unpack("<H")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported version {version}")
    params = _read_tensor_section(r, f"checkpoint {path}: params")
    momentum = _read_tensor_section(r, f"checkpoint {path}: momentum")
    iteration, *rng_state = r.unpack("<Q4Q")
    fingerprint = r.take(32).tobytes()
    if r.pos != len(r.view):
        raise ValueError(f"checkpoint {path}: {len(r.view) - r.pos} trailing bytes")
    return Checkpoint(iteration, params, momentum, tuple(rng_state), fingerprint)


def network_from_checkpoint(ck: Checkpoint) -> Network:
    """Rebuild the topology recorded in a checkpoint and install its
    parameters; the momentum, which only training reads, stays zero."""
    net = network_from_shapes({name: arr.shape for name, arr in ck.params})
    ck.apply_params(net)
    return net


# -- training loop -------------------------------------------------------------

def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    return Rng(derive_seed(seed, "epoch", epoch)).permutation(n)


def _batch_samples(samples, cfg: TrainConfig, iteration: int) -> list:
    """The samples of one mini-batch, in batch order.  Sample order wraps
    around the dataset with a fresh shuffle per epoch."""
    n = len(samples)
    perms = {}
    batch = []
    for j in range(cfg.batch_size):
        epoch, pos = divmod(iteration * cfg.batch_size + j, n)
        if epoch not in perms:
            perms[epoch] = _epoch_permutation(cfg.seed, epoch, n)
        batch.append(samples[perms[epoch][pos]])
    return batch


def train_loop(net: Network, samples: list[Sample], cfg: TrainConfig,
               resume: Checkpoint | None = None):
    """Train to the next checkpoint; returns (it, [(iteration, loss), ...]).

    An iteration is one micro-step per image of the batch, in batch order:
    augment the image, run its forward, loss and backward, and let
    ``Param.grad`` accumulate before the next image's data is made.  An
    image whose augmented mask has no valid pixel is skipped and weighs 0.
    With k images counted, the summed gradients are scaled by 1/k and one
    ``sgd_momentum_step`` runs; the logged loss is the sum of the per-image
    losses, in batch order, divided by k: the package's only batch mean.
    Peak memory is that of one image at any batch size: an augmented
    sample's float64 maps are freed once its image, log targets and mask are
    cast to the network's dtype, before the forward.

    With ``checkpoint_every`` e > 0 a call stops at the first multiple of e
    after its start, or at ``max_iterations`` if that comes first; with
    e = 0 it runs to ``max_iterations``.  It writes no file.  Resuming from
    a checkpoint taken at iteration k continues the exact trajectory of the
    uninterrupted run.  The loop drops its reference to ``resume`` once
    installed, so a caller that keeps none frees the checkpoint's copies
    before the first iteration.  A sample the crop does not fit even at the
    largest zoom is rejected before any update; with rotate/zoom on, a
    smaller zoom drawn for a sample that fits only larger ones is rejected
    by ``augment`` when it is drawn.
    """
    if not samples:
        raise ValueError("train_loop: dataset is empty")
    for s in samples:
        cfg.augment.check_fits(s)
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
        resume.apply_params(net)
        resume.apply_momentum(net)
        start = resume.iteration
        del resume
    every = cfg.checkpoint_every or cfg.max_iterations + 1  # 0: no stop before the end
    stop = min((start // every + 1) * every, cfg.max_iterations)
    trace = []
    dtype = net.dtype
    eps = cfg.loss.log_epsilon
    net.zero_grads()  # sgd_momentum_step zeroes them after each update
    for it in range(start, stop):
        batch = _batch_samples(samples, cfg, it)
        ids = ", ".join(s.id for s in batch)
        k, loss_sum = 0, 0.0
        for j, s in enumerate(batch):
            a = augment(s, cfg.augment, Rng(derive_seed(cfg.seed, "aug", it, j)))
            if not a.mask.any():
                continue
            k += 1
            image, mask = a.image.astype(dtype), a.mask.astype(dtype)
            targets = [log_guarded(t, eps).astype(dtype) for t in (a.albedo, a.shading)]
            del a
            la, ls, tape = net.forward(image, rng=Rng(derive_seed(cfg.seed, "dropout", it, j)))
            del image
            loss, d_la, d_ls = total_loss(*targets, la, ls, mask, cfg.loss)
            del targets, mask, la, ls
            if not np.isfinite(loss):
                raise ValueError(f"train_loop: non-finite loss at iteration {it} "
                                 f"(batch samples: {ids})")
            net.backward(d_la, d_ls, tape)
            del d_la, d_ls
            loss_sum += loss
        if k == 0:
            raise ValueError(f"loss: mask has no valid pixels at iteration {it} "
                             f"(batch samples: {ids})")
        for p in net.params.values():
            p.grad *= np.asarray(1.0 / k, dtype=p.grad.dtype)
        sgd_momentum_step(net.params, cfg, it)
        trace.append((it, loss_sum / k))
    return Checkpoint.from_network(net, stop, (cfg.seed, 0, 0, 0), fingerprint), trace


def decompose_image(net: Network, image: np.ndarray):
    """Eval-mode decomposition of a linear [0,1] image of any extents into
    linear-domain (albedo, shading) clipped to [0, 1].  A non-finite log
    map raises FloatingPointError, since clipping would hide +inf as 1.
    """
    log_a, log_s = net.forward(image)
    for t in (log_a, log_s):
        # min and max carry NaN and ±inf without a full-size mask
        if not (np.isfinite(t.min()) and np.isfinite(t.max())):
            raise FloatingPointError("network output is not finite")
    return np.clip(np.exp(log_a), 0.0, 1.0), np.clip(np.exp(log_s), 0.0, 1.0)
