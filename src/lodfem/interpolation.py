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

import numpy as np
import scipy.sparse as sparse

from . import fem


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
    """The quasi-interpolation matrix of a mesh hierarchy, CSR, coarse
    interior nodes x all fine vertices, with one row layout about every
    node: the patch solver reads its constraint values here by rank, and
    the columns of the fine interior dofs are the constraint on them."""
    fine = hierarchy.fine
    coarse = hierarchy.coarse
    H = coarse.mesh_size
    P = hierarchy.prolongation  # (nv_fine, n_coarse_interior)

    mass = fem.assemble_mass(fine)
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
    matrix = (scale @ numerator).tocsr()
    matrix.eliminate_zeros()
    return matrix
