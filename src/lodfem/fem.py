"""P1 finite element assembly, reference solves, and error norms.

The diffusion coefficient is constant per element, so stiffness entries are
exact; the load vector uses the 3-point edge-midpoint rule (exact for
quadratic integrands).  Homogeneous Dirichlet data is imposed by dof
elimination through the mesh's interior index map.  Assembly loops run in a
fixed element order, so assembled values are bit-stable.  Error norms are
exact P1 integrals summed element by element.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .linalg import spd_solve


@dataclass(eq=False)
class AssembledOperators:
    """Interior-restricted operators for one mesh/coefficient/load triple."""

    coeff: object                       # CoefficientField or None (unit)
    stiffness_coeff: sparse.csr_matrix  # a(.,.) with the diffusion field
    load: np.ndarray


def coefficient_values(mesh, coeff):
    """Diffusion value per element of `mesh` (ones for the unit coefficient)."""
    if coeff is None:
        return np.ones(mesh.n_triangles)
    values = np.asarray(coeff.values, dtype=float)
    if values.shape[0] != mesh.n_triangles:
        raise ValueError(
            f"coefficient/mesh mismatch: {values.shape[0]} element values "
            f"for {mesh.n_triangles} elements")
    return values


def _assemble(mesh, local, interior):
    """Global matrix summed from the element matrices `local` (E, 3, 3),
    restricted to the interior dofs if `interior`."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    A = sparse.csr_matrix((local.ravel(), (rows, cols)),
                          shape=(mesh.n_vertices, mesh.n_vertices))
    A.sum_duplicates()
    if not interior:
        return A
    idx = mesh.interior_vertices
    return A[idx][:, idx].tocsr()


def element_stiffness(mesh, coeff=None, elements=slice(None)):
    """Element stiffness matrices (E, 3, 3) of `elements` (all by default):
    entry (e, i, j) = A_e * int_e grad(l_i).grad(l_j), at the element's
    vertices in mesh.triangles order."""
    gx, gy = mesh.element_gradients
    gx, gy = gx[elements], gy[elements]
    local = (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
    local *= (coefficient_values(mesh, coeff)[elements]
              * mesh.element_areas[elements])[:, None, None]
    return local


def assemble_stiffness(mesh, coeff=None, interior=True):
    """Stiffness matrix: entry (i,j) = sum_e A_e * int_e grad(l_i).grad(l_j).

    With interior=True (default) Dirichlet rows and columns are removed via
    the mesh dof map; interior=False returns the full singular matrix.
    """
    return _assemble(mesh, element_stiffness(mesh, coeff), interior)


def assemble_mass(mesh):
    """Consistent P1 mass matrix of all vertices (area/12 * (1 + delta))."""
    local = np.full((mesh.n_triangles, 3, 3), 1.0)
    local[:, np.arange(3), np.arange(3)] = 2.0
    local *= (mesh.element_areas / 12.0)[:, None, None]
    return _assemble(mesh, local, False)


def assemble_load(mesh, f):
    """Load vector int f*l_i at the interior dofs via the 3-point
    edge-midpoint rule per element."""
    v = mesh.vertices[mesh.triangles]
    m01 = 0.5 * (v[:, 0] + v[:, 1])
    m12 = 0.5 * (v[:, 1] + v[:, 2])
    m20 = 0.5 * (v[:, 2] + v[:, 0])
    f01 = np.asarray(f(m01[:, 0], m01[:, 1]), dtype=float)
    f12 = np.asarray(f(m12[:, 0], m12[:, 1]), dtype=float)
    f20 = np.asarray(f(m20[:, 0], m20[:, 1]), dtype=float)
    f01, f12, f20 = np.broadcast_arrays(f01, f12, f20)
    w = mesh.element_areas / 6.0  # area/3 quadrature weight * hat value 1/2
    contrib = np.stack([w * (f01 + f20), w * (f01 + f12), w * (f12 + f20)], axis=1)
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.triangles.ravel(), contrib.ravel())
    return out[mesh.interior_vertices]


def apply_subset_stiffness(mesh, coeff, elements, vec_full):
    """Apply the stiffness assembled over `elements` only to full-dof vectors.

    Realizes the element-restricted bilinear form a_K(., .) without building
    the subset matrix.  `vec_full` is one vector (nv,) or a block (nv, k);
    each column of a block gives the same bits as its single-vector call.
    No solver path calls it: it stays only as the tests' oracle and the
    tracer's hook until ROADMAP item 1 lets it move to tests/oracles.py.
    """
    values = coefficient_values(mesh, coeff)[elements]
    gx, gy = mesh.element_gradients
    gx, gy = gx[elements][:, :, None], gy[elements][:, :, None]
    tri = mesh.triangles[elements]
    block = vec_full.reshape(mesh.n_vertices, -1)
    vloc = block[tri]
    weight = (values * mesh.element_areas[elements])[:, None]
    qx = weight * (gx * vloc).sum(axis=1)
    qy = weight * (gy * vloc).sum(axis=1)
    contrib = gx * qx[:, None] + gy * qy[:, None]
    out = np.zeros(block.shape)
    np.add.at(out, tri.ravel(), contrib.reshape(-1, block.shape[1]))
    return out.reshape(vec_full.shape)


def subset_l2_sq(mesh, elements, vec_full):
    """Exact int_E v^2 over an element subset for P1 nodal v."""
    d = vec_full[mesh.triangles[elements]]
    s = d.sum(axis=1)
    q = (d * d).sum(axis=1)
    return float((mesh.element_areas[elements] / 12.0 * (s * s + q)).sum())


def _gradient_sq(mesh, elements, vec_full):
    """Exact int_e |grad v|^2 on each element e of `elements`."""
    gx, gy = mesh.element_gradients
    d = vec_full[mesh.triangles[elements]]
    dgx = (gx[elements] * d).sum(axis=1)
    dgy = (gy[elements] * d).sum(axis=1)
    return mesh.element_areas[elements] * (dgx ** 2 + dgy ** 2)


def subset_h1_sq(mesh, elements, vec_full):
    """Exact int_E (v^2 + |grad v|^2) over an element subset."""
    semi = float(_gradient_sq(mesh, elements, vec_full).sum())
    return subset_l2_sq(mesh, elements, vec_full) + semi


def build_operators(mesh, coeff, f):
    """Assemble the interior-restricted system of one problem."""
    return AssembledOperators(coeff=coeff,
                              stiffness_coeff=assemble_stiffness(mesh, coeff),
                              load=assemble_load(mesh, f))


def solve_reference(mesh, ops, tol=1e-10):
    """Galerkin solution on `mesh`, the operators' mesh (interior dof
    vector), its system permuted into the mesh's elimination order."""
    order = mesh.elimination_order
    A = ops.stiffness_coeff[order][:, order]
    A.sort_indices()
    # A is bit-symmetric, so its CSR arrays are its CSC arrays
    return spd_solve(A.T, ops.load[order], tol)[np.argsort(order)]


def pad_full(mesh, vec_interior):
    """Extend an interior dof vector by the homogeneous boundary values."""
    out = np.zeros(mesh.n_vertices)
    out[mesh.interior_vertices] = vec_interior
    return out


def error_norms(mesh, u, v, ops):
    """L2, full H1, and energy norms of u - v (interior dof vectors on
    `mesh`, the operators' mesh), summed element by element."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape != (mesh.n_interior,):
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape} on "
                         f"{mesh.n_interior} dofs")
    d = pad_full(mesh, u - v)
    l2_sq = subset_l2_sq(mesh, slice(None), d)
    grad_sq = _gradient_sq(mesh, slice(None), d)
    energy_sq = (coefficient_values(mesh, ops.coeff) * grad_sq).sum()
    return np.sqrt(l2_sq), np.sqrt(l2_sq + grad_sq.sum()), np.sqrt(energy_sq)
