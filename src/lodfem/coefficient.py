"""Rough scalar diffusion fields, piecewise constant per fine element.

Two generator families cover the regimes the multiscale method targets:
a smooth separable oscillation with period parameter epsilon, and a seeded
log-uniform checkerboard of any contrast >= 1 (the solves limit it: the
fine 64 desk sweep completes up to 3e10, fine 128 fails at 1e10).
Fields are immutable and bit-reproducible from their generator parameters
(the checkerboard draws its block values from a counter-based Philox
generator keyed by the seed, so values do not depend on evaluation order or
thread count).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class CoefficientField:
    values: np.ndarray  # one positive diffusivity per fine element
    alpha: float        # exact min of values
    beta: float         # exact max of values


def _from_values(values):
    values = np.asarray(values, dtype=float)
    return CoefficientField(
        values=values,
        alpha=float(values.min()),
        beta=float(values.max()),
    )


def make_constant(c, fine):
    """Constant diffusivity c > 0 on every fine element."""
    if c <= 0:
        raise ValueError(f"invalid coefficient: need c > 0, got {c}")
    return _from_values(np.full(fine.n_triangles, float(c)))


def make_periodic(epsilon, amplitude, fine):
    """Separable oscillation (a0 + cos(2*pi*x/eps)) * (a0 + sin(2*pi*y/eps)).

    Evaluated at element centroids; amplitude a0 > 1 keeps the field
    uniformly positive (the product is bounded below by (a0-1)^2).
    """
    if not (0 < epsilon <= 1):
        raise ValueError(f"invalid period: need 0 < epsilon <= 1, got {epsilon}")
    if amplitude <= 1:
        raise ValueError(f"coercivity lost: need amplitude > 1, got {amplitude}")
    cx, cy = fine.element_centroids[:, 0], fine.element_centroids[:, 1]
    values = (amplitude + np.cos(2 * np.pi * cx / epsilon)) * \
             (amplitude + np.sin(2 * np.pi * cy / epsilon))
    return _from_values(values)


def make_checkerboard(cell, contrast, seed, fine):
    """cell x cell blocks with independent values log-uniform in [1, contrast].

    Block b (row-major) gets contrast**u[b] where u is the b-th draw of a
    Philox stream keyed by the seed; every fine element inherits the value
    of the block containing its centroid.
    """
    if cell < 1:
        raise ValueError(f"invalid subdivision: need cell >= 1, got {cell}")
    if contrast < 1:
        raise ValueError(f"invalid contrast: need contrast >= 1, got {contrast}")
    if fine.cells_per_side % cell != 0:
        raise ValueError(
            f"alignment error: fine resolution {fine.cells_per_side} "
            f"is not a multiple of cell count {cell}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    u = rng.random(cell * cell)
    block_values = float(contrast) ** u

    c = fine.element_centroids
    bx = np.floor(c[:, 0] * cell).astype(np.int64)
    by = np.floor(c[:, 1] * cell).astype(np.int64)
    return _from_values(block_values[by * cell + bx])

