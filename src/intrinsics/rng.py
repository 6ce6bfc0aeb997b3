"""Counter-based deterministic random number generator.

Every source of randomness in this package (weight init, dropout masks,
augmentation draws, epoch shuffles) flows through :class:`Rng` so that a
single 64-bit seed fully determines a run.  The generator is a SplitMix64
counter hash: draw ``i`` of seed ``s`` is a fixed integer mix of ``(s, i)``,
which makes streams platform independent and lets the full state serialize
as two unsigned 64-bit words (seed, counter).

All integer mixing happens on uint64 numpy arrays, where wraparound is
silent and well defined, and in place, one cache-sized block at a time.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_BLOCK = 1 << 16  # draws per step of _raw: its 512 KB buffers stay in cache


def _mix64(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer over a uint64 array, in place; ``tmp`` is
    scratch of the same size."""
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)


def derive_seed(seed: int, *keys) -> int:
    """Derive a child seed from a parent seed and a tuple of keys.

    Keys may be ints or strings; the derivation is a deterministic hash
    chain, so the same (seed, keys) always yields the same child seed.
    Used to give epochs, iterations, and samples independent streams.
    """
    state = np.array([seed & _U64_MASK], dtype=np.uint64)
    for key in keys:
        if isinstance(key, str):
            parts = [len(key)] + [ord(c) for c in key]
        else:
            parts = [int(key) & _U64_MASK]
        for part in parts:
            state = (state + np.uint64(part)) * _GAMMA + _GAMMA
            _mix64(state, np.empty_like(state))
    return int(state[0])


class Rng:
    """Seeded counter-based generator; no global state.

    The stream position is an explicit counter, so state is exactly
    ``(seed, counter)`` and restoring those two integers resumes the
    stream bit-exactly.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _U64_MASK
        self.counter = int(counter) & _U64_MASK

    def _raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 draws.

        Draw ``c`` mixes ``(seed + c * gamma) * gamma + gamma``, which modulo
        2**64 is ``c * gamma**2 + (seed + 1) * gamma``.  The output is filled
        and mixed in place one block at a time, so the only other buffers are
        one block's offsets and one block's scratch.
        """
        gamma = int(_GAMMA)
        out = np.empty(n, dtype=np.uint64)
        block = min(n, _BLOCK)
        steps = np.arange(block, dtype=np.uint64) * np.uint64(gamma * gamma & _U64_MASK)
        tmp = np.empty(block, dtype=np.uint64)
        for start in range(0, n, _BLOCK):
            z = out[start:start + _BLOCK]
            first = (self.counter + start) * gamma * gamma + (self.seed + 1) * gamma
            np.add(steps[:z.size], np.uint64(first & _U64_MASK), out=z)
            _mix64(z, tmp[:z.size])
        self.counter = (self.counter + n) & _U64_MASK
        return out

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform float64 draws in [0, 1)."""
        n = int(np.prod(shape)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return u.reshape(shape) if shape else float(u[0])

    def normal(self, shape=()) -> np.ndarray:
        """Standard normal draws via Box-Muller, worked in place on one block
        of 2n uniforms: the radii from the first n, the angles from the rest."""
        n = int(np.prod(shape)) if shape else 1
        u = self.uniform((2, n))
        z, angle = u
        np.log(np.subtract(1.0, z, out=z), out=z)  # 1 - u > 0 keeps log finite
        np.sqrt(np.multiply(z, -2.0, out=z), out=z)
        z *= np.cos(np.multiply(angle, 2.0 * np.pi, out=angle), out=angle)
        z = z.copy()  # the result does not keep the angles' half alive
        return z.reshape(shape) if shape else float(z[0])

    def integers(self, low: int, high: int) -> int:
        """One uniform integer in [low, high] inclusive."""
        if high < low:
            raise ValueError(f"integers: empty range [{low}, {high}]")
        return low + int(self._raw(1)[0] % np.uint64(high - low + 1))

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys."""
        keys = self._raw(n)
        return np.argsort(keys, kind="stable")
