"""H1-weighted quasi-interpolation from fine vectors to coarse nodal values.

The nodal value at a coarse interior node a divides an H1-weighted pairing
with the coarse hat by a matching normalization:

    value(a) = ( int v*hat_a + H^2 * int grad(v).grad(hat_a) )
             / ( int hat_a   + H^2 * int |grad(hat_a)| )

with H the coarse mesh size (element diameter).  Coarse hats prolong
exactly, so the numerator is exact: the prolongation applied to one fine
assembly of the element mass plus H^2 times the unit element stiffness.  The
denominator holds only the coarse hat and is summed on the coarse mesh, each
element adding area * (1/3 + H^2 |grad(hat)|) at each corner.  Rows vanish
outside the node's star, which makes constrained corrector problems local.
"""

import numpy as np
import scipy.sparse as sparse

from . import fem


def build_interpolation(hierarchy):
    """The quasi-interpolation matrix of a mesh hierarchy, CSR, coarse
    interior nodes x all fine vertices, with one row layout about every
    node: the patch solver reads its constraint values here by rank, and
    the columns of the fine interior dofs are the constraint on them."""
    fine = hierarchy.fine
    coarse = hierarchy.coarse
    H = coarse.mesh_size
    P = hierarchy.prolongation  # (nv_fine, n_coarse_interior)

    pairing = fem.element_mass(fine) + (H * H) * fem.element_stiffness(fine)
    numerator = (P.T @ fem.assemble(fine, pairing, interior=False)).tocsr()

    gx, gy = coarse.element_gradients
    corners = coarse.element_areas[:, None] * (
        1.0 / 3.0 + (H * H) * np.sqrt(gx * gx + gy * gy))
    denominators = np.bincount(coarse.triangles.ravel(), corners.ravel(),
                               coarse.n_vertices)[coarse.interior_vertices]
    if np.any(denominators <= 0):
        raise RuntimeError("nonpositive interpolation normalization")

    scale = sparse.diags(1.0 / denominators)
    matrix = (scale @ numerator).tocsr()
    matrix.eliminate_zeros()
    return matrix
