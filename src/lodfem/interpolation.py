"""H1-weighted quasi-interpolation from fine vectors to coarse nodal values.

The nodal value at a coarse interior node a divides an H1-weighted pairing
with the coarse hat by a matching normalization:

    value(a) = ( int v*hat_a + H^2 * int grad(v).grad(hat_a) )
             / ( int hat_a   + H^2 * int |grad(hat_a)| )

with H the coarse mesh size (element diameter).  Both numerator integrals
are exact matrix products on the fine space because coarse hats prolong
exactly; the denominator's gradient-norm integral is the pointwise Euclidean
norm of the (per-element constant) hat gradient times element area.  Rows
vanish outside the node's star, which is what makes constrained corrector
problems local.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from . import fem


@dataclass(eq=False)
class InterpolationOperator:
    matrix: sparse.csr_matrix       # coarse interior nodes x fine interior dofs
    matrix_full: sparse.csr_matrix  # coarse interior nodes x all fine vertices
    denominators: np.ndarray        # per coarse interior node, > 0
    coarse_size: float              # H used in the weighting


def _gradient_operators(mesh):
    """Sparse maps from nodal vectors to per-element constant gradients."""
    gx, gy = mesh.element_gradients
    rows = np.repeat(np.arange(mesh.n_triangles), 3)
    cols = mesh.triangles.ravel()
    shape = (mesh.n_triangles, mesh.n_vertices)
    dx = sparse.csr_matrix((gx.ravel(), (rows, cols)), shape=shape)
    dy = sparse.csr_matrix((gy.ravel(), (rows, cols)), shape=shape)
    return dx, dy


def build_interpolation(hierarchy):
    """Assemble the quasi-interpolation matrix for a mesh hierarchy."""
    fine = hierarchy.fine
    coarse = hierarchy.coarse
    H = coarse.mesh_size
    P = hierarchy.prolongation  # (nv_fine, n_coarse_interior)

    mass = fem.assemble_mass(fine, interior=False)
    stiff = fem.assemble_stiffness(fine, None, interior=False)
    numerator = (P.T @ (mass + (H * H) * stiff)).tocsr()

    hat_volumes = P.T @ (mass @ np.ones(fine.n_vertices))

    dx, dy = _gradient_operators(fine)
    gpx = dx @ P
    gpy = dy @ P
    norms = (gpx.multiply(gpx) + gpy.multiply(gpy)).sqrt()
    grad_l1 = np.asarray(fine.element_areas @ norms).ravel()

    denominators = hat_volumes + (H * H) * grad_l1
    if np.any(denominators <= 0):
        raise RuntimeError("nonpositive interpolation normalization")

    scale = sparse.diags(1.0 / denominators)
    matrix_full = (scale @ numerator).tocsr()
    matrix_full.eliminate_zeros()
    matrix = matrix_full[:, fine.interior_vertices].tocsr()
    return InterpolationOperator(
        matrix=matrix,
        matrix_full=matrix_full,
        denominators=denominators,
        coarse_size=H,
    )


def _smooth_samples(hierarchy, rng, count):
    """Random low-frequency combinations, zero on the boundary."""
    pts = hierarchy.fine.vertices
    out = []
    for _ in range(count):
        v = np.zeros(hierarchy.fine.n_vertices)
        for p in range(1, 4):
            for q in range(1, 4):
                c = rng.standard_normal() / (p * p + q * q)
                v += c * np.sin(np.pi * p * pts[:, 0]) * np.sin(np.pi * q * pts[:, 1])
        out.append(v)
    return out


def _rough_samples(hierarchy, rng, count):
    out = []
    for _ in range(count):
        v = np.zeros(hierarchy.fine.n_vertices)
        v[hierarchy.fine.interior_vertices] = rng.standard_normal(
            hierarchy.fine.n_interior)
        out.append(v)
    return out


def measure_constants(hierarchy, op, trials, seed=0):
    """Empirical stability and approximation constants of the operator.

    Over `trials` random smooth plus `trials` random rough fine functions,
    returns the max over coarse elements K of

        |interp(v)|_{L2(K)} / |v|_{H1(w_K)}   (stability)
        |v - interp(v)|_{L2(K)} / (H |v|_{H1(w_K)})   (approximation)

    where w_K is the one-ring element neighborhood of K.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    fine = hierarchy.fine
    coarse = hierarchy.coarse
    rng = np.random.default_rng(seed)
    samples = _smooth_samples(hierarchy, rng, trials) + \
        _rough_samples(hierarchy, rng, trials)

    adj = coarse.element_adjacency
    neighborhoods = [
        np.sort(hierarchy.children[adj[k].indices].ravel())
        for k in range(coarse.n_triangles)
    ]
    areas = coarse.element_areas

    stability = 0.0
    approximation = 0.0
    for v in samples:
        cvals = np.zeros(coarse.n_vertices)
        cvals[coarse.interior_vertices] = op.matrix_full @ v
        residual = v - hierarchy.prolongation @ (op.matrix_full @ v)
        for k in range(coarse.n_triangles):
            h1 = np.sqrt(fem.subset_h1_sq(fine, neighborhoods[k], v))
            if h1 == 0.0:
                continue
            ck = cvals[coarse.triangles[k]]
            s, q = ck.sum(), (ck * ck).sum()
            interp_l2 = np.sqrt(areas[k] / 12.0 * (s * s + q))
            res_l2 = np.sqrt(fem.subset_l2_sq(fine, hierarchy.children[k], residual))
            stability = max(stability, interp_l2 / h1)
            approximation = max(approximation, res_l2 / (op.coarse_size * h1))
    return stability, approximation
