"""Seed derivation for reproducible, order-independent random streams: mix_seed
and rng_from hash one seed through numpy's SeedSequence, and mix_seeds and
rngs_from, bitwise the same, many as one uint32 array. Every argument is an int,
or for the array forms a 1-D int array, all broadcast together; negatives enter
in 64-bit two's complement and wider ints are masked to 64 bits."""

import numpy as np

from ._num import check_int

_MASK64 = (1 << 64) - 1
_M32 = 0xFFFFFFFF
# numpy's SeedSequence (bit_generator.pyx; O'Neill's seed_seq, HMC-CS-2014-0905)
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_BLOCK = 256   # seeds that rngs_from hashes at once


def mix_seed(seed, *key):
    """A child seed hashed from the ints (seed, *key) by SeedSequence: trials
    keyed by index are independent and can be generated in any order."""
    ss = np.random.SeedSequence([int(w) for w in (_words(seed, "seed"), *map(_words, key))])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def rng_from(seed, *key):
    """A numpy Generator seeded by mix_seed(seed, *key)."""
    return np.random.default_rng(mix_seed(seed, *key))


def _words(value, name=None):
    """value as uint64, the one coercion of a seed or key (an int is checked if named)."""
    if np.ndim(value) == 0:
        return np.uint64((check_int(value, name, minimum=None) if name else int(value)) & _MASK64)
    value = np.asarray(value)
    if value.dtype.kind not in "iu":
        raise TypeError(f"seeds must have an integer dtype, got {value.dtype}")
    return value.astype(np.uint64)


def _xorshift(value):
    return value ^ (value >> 16)


def _hasher(const, mult):
    """numpy's hashmix: call k xors in const mult^k and multiplies by const mult^(k+1)."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        return _xorshift(value * const)   # uint32 arrays wrap, as the C hash does
    return hashmix


def _state(words, n):
    """SeedSequence.generate_state(n, np.uint64) of the uint32 entropy words of each row."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (words + [np.zeros_like(words[0])] * _POOL)[:_POOL]]
    for src in range(_POOL):   # mix the pool's words together, then the rest of the entropy
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _xorshift(pool[dst] * _MIX_L - hashmix(pool[src]) * _MIX_R)
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _xorshift(pool[dst] * _MIX_L - hashmix(word) * _MIX_R)
    hashout = _hasher(_INIT_B, _MULT_B)
    out = np.stack([hashout(pool[i % _POOL]) for i in range(2 * n)], axis=1)
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _hash(cols, n):
    """_state of the rows of the uint64 columns cols, grouped by word widths: numpy
    takes a value below 2**32 as one word and a larger one as two."""
    pattern = sum((col > _M32).astype(np.intp) << i for i, col in enumerate(cols))
    out = np.empty((cols[0].size, n), np.uint64)
    for p in np.flatnonzero(np.bincount(pattern)):
        rows = np.flatnonzero(pattern == p)
        out[rows] = _state([w.astype(np.uint32) for i, col in enumerate(cols)
                            for w in (col[rows] & _M32, col[rows] >> 32)[:1 + (p >> i & 1)]], n)
    return out


def _columns(seed, key):
    """_words of seed and of each key, broadcast together to 1-D uint64 columns."""
    cols = np.broadcast_arrays(*map(np.atleast_1d, (_words(seed, "seed"), *map(_words, key))))
    if cols[0].ndim != 1:
        raise ValueError(f"seed and keys must broadcast to one 1-D shape, got {cols[0].shape}")
    return cols


def mix_seeds(seed, *key):
    """mix_seed over arrays, as the module docstring reads its arguments:
    entry i of the uint64 result is mix_seed of entry i of each column."""
    return _hash(_columns(seed, key), 1)[:, 0]


def rngs_from(seed, *key):
    """rng_from over arrays, lazily, as the module docstring reads its
    arguments: bitwise rng_from of entry i of each column. The seeds are
    hashed _BLOCK at a time, and each Generator is built only when it is drawn."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Hashed(ISeedSequence):   # one seed's state words; PCG64 asks for 4 uint64
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    cols = _columns(seed, key)
    for start in range(0, cols[0].size, _BLOCK):
        seeds = _hash([col[start:start + _BLOCK] for col in cols], 1)[:, 0]
        for words in _hash([seeds], 4):
            yield Generator(PCG64(Hashed(words)))
