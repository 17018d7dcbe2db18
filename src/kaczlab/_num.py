"""Tiny numeric helpers shared across modules."""

import numpy as np


def sq_norm(v):
    # one shared expression so that every curve's index-0 value ||z0||^2 is
    # bitwise identical across the empirical, exact, and averaged paths
    return float(np.dot(v, v))


def check_int(value, name, minimum=0):
    """value as an int >= minimum: a bool or a non-integer is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def frob_dot(a, b):
    return float(np.dot(a.ravel(), b.ravel()))
