"""Tiny numeric helpers shared across modules."""

import numpy as np


def sq_norm(v):
    # one shared expression so that every curve's index-0 value ||z0||^2 is
    # bitwise identical across the empirical, exact, and averaged paths
    return float(np.dot(v, v))


def frob_dot(a, b):
    return float(np.dot(a.ravel(), b.ravel()))
