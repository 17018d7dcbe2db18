"""Tiny numeric helpers, the one check of each integer, vector and distribution
argument, and set_fields."""

import numpy as np


def sq_norm(v):
    # one shared expression so that every curve's index-0 value ||z0||^2 is
    # bitwise identical across the empirical, exact, and averaged paths
    return float(np.dot(v, v))


def check_int(value, name, minimum=0):
    """value as an int >= minimum (None: any int): a bool or a non-integer is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_vector(value, length, name):
    """value as a contiguous float vector of the given length, every entry finite."""
    vec = np.ascontiguousarray(value, dtype=float)
    if vec.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} must be finite")
    return vec


def check_dist(dist, m):
    """Refuse a row distribution whose length is not the system's row count m."""
    if dist.m != m:
        raise ValueError(f"dist has {dist.m} rows, the system {m}")


def frob_dot(a, b):
    return float(np.dot(a.ravel(), b.ravel()))


def set_fields(obj, **fields):
    """Store each field of obj, a frozen dataclass. Every array, alone or in a
    tuple, is stored as a read-only copy: the caller's array stays writable,
    and no later write to it reaches obj."""
    def frozen(value):
        if isinstance(value, tuple):
            return tuple(map(frozen, value))
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.setflags(write=False)
        return value
    for name, value in fields.items():
        object.__setattr__(obj, name, frozen(value))
