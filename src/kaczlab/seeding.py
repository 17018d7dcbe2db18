"""Seed derivation for reproducible, order-independent random streams."""

import numpy as np

from ._num import check_int

_MASK64 = (1 << 64) - 1


def mix_seed(seed, *key):
    """Derive a child seed by hashing (seed, *key) through SeedSequence.

    Trials keyed by index are mutually independent and can be generated in
    any order. Negative seeds are mapped to their 64-bit two's complement.
    """
    entropy = [check_int(seed, "seed", minimum=None) & _MASK64] + [int(k) & _MASK64 for k in key]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def rng_from(seed, *key):
    """A numpy Generator seeded by mix_seed(seed, *key)."""
    return np.random.default_rng(mix_seed(seed, *key))
