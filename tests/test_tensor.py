"""Tests of ``intrinsics.rng``: the counter-based stream and ``derive_seed``.

The file keeps the name it had when it also tested ``tensor.py``, so the
ids of these tests stay as they were.
"""
import numpy as np

from intrinsics.rng import Rng, derive_seed


class TestRng:
    def test_equal_seeds_equal_stream(self):
        a = Rng(123).uniform((10000,))
        b = Rng(123).uniform((10000,))
        assert np.array_equal(a, b)

    def test_different_seeds_differ_quickly(self):
        a = Rng(1).uniform((16,))
        b = Rng(2).uniform((16,))
        assert not np.array_equal(a, b)

    def test_uniform_range(self):
        u = Rng(7).uniform((100000,))
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_normal_moments(self):
        z = Rng(8).normal((100000,))
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_state_roundtrip(self):
        r = Rng(9)
        r.uniform((13,))
        resumed = Rng(r.seed, r.counter)
        assert np.array_equal(r.uniform((50,)), resumed.uniform((50,)))

    def test_counter_advances_identically_scalar_or_block(self):
        r1 = Rng(10)
        block = r1.uniform((4,))
        r2 = Rng(10)
        singles = np.array([r2.uniform() for _ in range(4)])
        assert np.array_equal(block, singles)

    def test_raw_matches_integer_splitmix64(self):
        mask = 0xFFFF_FFFF_FFFF_FFFF
        gamma = 0x9E3779B97F4A7C15
        seed, counter = 0xDEAD_BEEF_0123_4567, (1 << 40) + 3

        def draw(c):
            z = (seed + c * gamma) & mask
            z = (z * gamma + gamma) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        n = 3 * 65536 + 1234  # several blocks of 64K draws, ending mid-block
        r = Rng(seed, counter)
        assert r._raw(n).tolist() == [draw(counter + i) for i in range(n)]
        assert r._raw(5).tolist() == [draw(counter + n + i) for i in range(5)]

    def test_permutation_is_permutation(self):
        p = Rng(11).permutation(257)
        assert sorted(p.tolist()) == list(range(257))

    def test_integers_inclusive_bounds(self):
        rng = Rng(12)
        assert {rng.integers(2, 5) for _ in range(2000)} == {2, 3, 4, 5}

    def test_derive_seed_distinguishes_keys(self):
        assert derive_seed(5, "epoch", 0) != derive_seed(5, "epoch", 1)
        assert derive_seed(5, "epoch", 0) != derive_seed(5, "aug", 0)
        assert derive_seed(5, "epoch", 0) == derive_seed(5, "epoch", 0)
