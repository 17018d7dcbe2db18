"""The vectorized SeedSequence hash of seeding against numpy's own: the hash,
the streams it seeds, and the noise draws built on them."""

import numpy as np
import pytest

from kaczlab import FixedNoise, IidNoise, seeding
from kaczlab.problems import draw_eta
from kaczlab.rka import _NOISE_TAG, _ROWS_TAG
from kaczlab.seeding import _BLOCK, _hash, mix_seed, mix_seeds, rng_from, rngs_from

from conftest import trial_noise_seed, trial_row_seed

EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def entropy_rows(seed, rows, width):
    """(rows, width) uint64 entropy values: each entry is an edge value, a
    value below 2**32 or a full 64-bit one, so one batch mixes word widths."""
    rng = np.random.default_rng(seed)
    full = rng.integers(0, 2**64, size=(rows, width), dtype=np.uint64, endpoint=False)
    kind = rng.integers(0, 3, size=(rows, width))
    small = full >> np.uint64(32)
    edges = np.array(EDGES, dtype=np.uint64)[rng.integers(0, len(EDGES), size=(rows, width))]
    return np.choose(kind, [full, small, edges])


def reference_state(entropy, k):
    return np.array([np.random.SeedSequence([int(v) for v in row]).generate_state(k, np.uint64)
                     for row in entropy])


class TestHash:
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 9])
    def test_equals_seed_sequence(self, width, k):
        entropy = entropy_rows(width, 250, width)   # 1,250 rows over the widths
        got = _hash([entropy[:, i] for i in range(width)], k)
        assert got.dtype == np.uint64
        assert np.array_equal(got, reference_state(entropy, k))

    def test_batch_of_mixed_word_widths(self):
        # every pattern of one- and two-word values among three columns
        cols = [np.array([0, 2**32 - 1, 2**32, 2**64 - 1] * 4, dtype=np.uint64),
                np.array([2**32, 5] * 8, dtype=np.uint64),
                np.array([7] * 8 + [2**40] * 8, dtype=np.uint64)]
        entropy = np.stack(cols, axis=1)
        assert len({tuple(row > 2**32 - 1) for row in entropy}) == 8
        assert np.array_equal(_hash(cols, 4), reference_state(entropy, 4))

    def test_mix_seeds_masks_as_mix_seed(self):
        seeds = [0, 3, -1, -2**63, 2**31, -12345]
        got = mix_seeds(np.array(seeds, dtype=np.int64), 0x52, np.arange(6))
        assert got.tolist() == [mix_seed(s, 0x52, t) for t, s in enumerate(seeds)]
        for seed in (-1, 2**64 - 1, -7, 2**64 + 5):
            assert mix_seeds(seed, 3).tolist() == [mix_seed(seed, 3)]

    def test_mix_seeds_checks_a_scalar_seed(self):
        with pytest.raises(TypeError, match=r"^seed must be an integer, got 1\.5$"):
            mix_seeds(1.5, 3)
        with pytest.raises(TypeError, match="^seeds must have an integer dtype, got float64$"):
            mix_seeds(np.array([1.0, 2.0]), 3)


class TestStreams:
    @pytest.mark.parametrize("trials", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000])
    def test_row_streams_equal_default_rng(self, trials):
        streams = rngs_from(11, _ROWS_TAG, np.arange(trials))
        count = 0
        for t, rng in enumerate(streams):
            ref = np.random.default_rng(trial_row_seed(11, t))
            assert np.array_equal(rng.random(64), ref.random(64))
            assert np.array_equal(rng.standard_normal(64), ref.standard_normal(64))
            count += 1
        assert count == trials

    def test_seeds_of_both_word_widths(self):
        # seeds of one and two words, with no key: rng_from(s) hashes [s] alone
        seeds = np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
        for seed, rng in zip(seeds, rngs_from(seeds)):
            assert np.array_equal(rng.random(64), rng_from(int(seed)).random(64))

    def test_hashes_one_block_at_a_time(self, monkeypatch):
        sizes, real = [], seeding._hash
        monkeypatch.setattr(seeding, "_hash",
                            lambda cols, n: sizes.append(cols[0].size) or real(cols, n))
        streams = rngs_from(3, _ROWS_TAG, np.arange(10 * _BLOCK))
        assert sizes == []
        next(streams)
        assert sizes == [_BLOCK, _BLOCK]   # the key's mix, then the Generators' state


class TestOneArgumentPath:
    """mix_seeds and rngs_from read their arguments one way: an int or a 1-D
    int array each, broadcast together to 1-D columns."""

    def test_scalar_arguments_yield_one_stream(self):
        streams = list(rngs_from(3, 4))
        assert len(streams) == 1
        assert np.array_equal(streams[0].random(64), rng_from(3, 4).random(64))

    @pytest.mark.parametrize("seed, key", [
        (3, (4,)),
        (3, (_ROWS_TAG, np.arange(5))),
        (np.array([-2, 0, 7, 2**40], dtype=np.int64), (_NOISE_TAG,)),
    ], ids=["scalars", "array_key", "array_seed"])
    def test_rngs_from_hashes_the_seeds_of_mix_seeds(self, monkeypatch, seed, key):
        hashed, real = [], seeding._hash

        def spy(cols, n):   # n = 4 is the Generators' state, hashed from the seeds
            if n == 4:
                hashed.append(cols[0].copy())
            return real(cols, n)

        monkeypatch.setattr(seeding, "_hash", spy)
        streams = list(rngs_from(seed, *key))
        want = mix_seeds(seed, *key)
        assert len(streams) == want.size
        assert np.concatenate(hashed).tolist() == want.tolist()

    def test_a_2d_seed_is_refused(self):
        seeds = np.zeros((2, 3), dtype=np.int64)
        message = r"^seed and keys must broadcast to one 1-D shape, got \(2, 3\)$"
        with pytest.raises(ValueError, match=message):
            mix_seeds(seeds, _NOISE_TAG)
        with pytest.raises(ValueError, match=message):
            next(rngs_from(seeds, _ROWS_TAG))
        with pytest.raises(ValueError, match=message):
            draw_eta(IidNoise(1.0), 4, seeds)


class TestNoise:
    @pytest.mark.parametrize("sigma2", [0.0, 1e-3, 2.25])
    def test_rows_equal_scalar_draws(self, sigma2):
        noise, m = IidNoise(sigma2), 37
        seeds = mix_seeds(5, _NOISE_TAG, np.arange(300))
        eta = draw_eta(noise, m, seeds)
        ref = np.stack([draw_eta(noise, m, trial_noise_seed(5, t)) for t in range(300)])
        assert eta.shape == (300, m)
        assert eta.tobytes() == ref.tobytes()

    def test_signed_seeds(self):
        seeds = np.array([-3, 0, 4], dtype=np.int64)
        ref = np.stack([draw_eta(IidNoise(0.5), 5, int(s)) for s in seeds])
        assert draw_eta(IidNoise(0.5), 5, seeds).tobytes() == ref.tobytes()

    def test_fixed_noise_ignores_the_seeds(self):
        noise = FixedNoise(np.arange(4.0))
        assert np.array_equal(draw_eta(noise, 4, np.arange(3)), noise.eta)

    @pytest.mark.parametrize("noise, error, message", [
        (FixedNoise(np.ones(3)), ValueError, r"^eta must have length 4, got \(3,\)$"),
        ("iid", TypeError, r"^unsupported noise spec: 'iid'$"),
    ])
    def test_raises_as_the_scalar_call(self, noise, error, message):
        for seed in (7, np.arange(3)):
            with pytest.raises(error, match=message):
                draw_eta(noise, 4, seed)
