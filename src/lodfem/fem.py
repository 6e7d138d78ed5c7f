"""P1 finite element assembly, reference solves, and error norms.

The diffusion coefficient is constant per element, so stiffness entries are
exact; the load vector uses the 3-point edge-midpoint rule (exact for
quadratic integrands).  Homogeneous Dirichlet data is imposed by dof
elimination through the mesh's interior index map.  Assembly loops run in a
fixed element order, so assembled values are bit-stable.
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
    stiffness_plain: sparse.csr_matrix  # unit-coefficient stiffness
    mass: sparse.csr_matrix
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


def assemble_stiffness(mesh, coeff=None, interior=True):
    """Stiffness matrix: entry (i,j) = sum_e A_e * int_e grad(l_i).grad(l_j).

    With interior=True (default) Dirichlet rows and columns are removed via
    the mesh dof map; interior=False returns the full singular matrix.
    """
    gx, gy = mesh.element_gradients
    local = (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
    local *= (coefficient_values(mesh, coeff) * mesh.element_areas)[:, None, None]
    return _assemble(mesh, local, interior)


def assemble_mass(mesh, interior=True):
    """Consistent P1 mass matrix, exact (local block area/12 * (1 + delta))."""
    local = np.full((mesh.n_triangles, 3, 3), 1.0)
    local[:, np.arange(3), np.arange(3)] = 2.0
    local *= (mesh.element_areas / 12.0)[:, None, None]
    return _assemble(mesh, local, interior)


def assemble_load(mesh, f, interior=True):
    """Load vector int f*l_i via the 3-point edge-midpoint rule per element."""
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
    return out[mesh.interior_vertices] if interior else out


def apply_subset_stiffness(mesh, coeff, elements, vec_full):
    """Apply the stiffness assembled over `elements` only to full-dof vectors.

    Realizes the element-restricted bilinear form a_K(., .) without building
    the subset matrix.  `vec_full` is one vector (nv,) or a block (nv, k);
    each column of a block gives the same bits as its single-vector call.
    `elements` is one index array (E,) or a batch (P, E) of them, whose
    results stack along a leading axis of length P.
    """
    values = coefficient_values(mesh, coeff)[elements]
    gx, gy = mesh.element_gradients
    gx, gy = gx[elements][..., None], gy[elements][..., None]
    tri = mesh.triangles[elements]
    block = vec_full.reshape(mesh.n_vertices, -1)
    vloc = block[tri]
    weight = (values * mesh.element_areas[elements])[..., None]
    qx = weight * (gx * vloc).sum(axis=-2)
    qy = weight * (gy * vloc).sum(axis=-2)
    contrib = gx * qx[..., None, :] + gy * qy[..., None, :]
    batch = tri.shape[:-2]
    out = np.zeros((*batch, *block.shape))
    # entry (p, v) of the batch lies at row p * nv + v of the flattened result
    offset = mesh.n_vertices * np.arange(out.size // block.size)
    np.add.at(out.reshape(-1, block.shape[1]),
              (tri + offset.reshape(*batch, 1, 1)).ravel(),
              contrib.reshape(-1, block.shape[1]))
    return out.reshape(*batch, *vec_full.shape)


def subset_l2_sq(mesh, elements, vec_full):
    """Exact int_E v^2 over an element subset for P1 nodal v."""
    d = vec_full[mesh.triangles[elements]]
    s = d.sum(axis=1)
    q = (d * d).sum(axis=1)
    return float((mesh.element_areas[elements] / 12.0 * (s * s + q)).sum())


def subset_h1_sq(mesh, elements, vec_full):
    """Exact int_E (v^2 + |grad v|^2) over an element subset."""
    gx, gy = mesh.element_gradients
    d = vec_full[mesh.triangles[elements]]
    dgx = (gx[elements] * d).sum(axis=1)
    dgy = (gy[elements] * d).sum(axis=1)
    semi = float((mesh.element_areas[elements] * (dgx ** 2 + dgy ** 2)).sum())
    return subset_l2_sq(mesh, elements, vec_full) + semi


def build_operators(mesh, coeff, f):
    """Assemble all interior-restricted operators for one problem."""
    return AssembledOperators(
        coeff=coeff,
        stiffness_coeff=assemble_stiffness(mesh, coeff),
        stiffness_plain=assemble_stiffness(mesh, None),
        mass=assemble_mass(mesh),
        load=assemble_load(mesh, f),
    )


def solve_reference(ops, tol=1e-10):
    """Galerkin solution on the operators' mesh (interior dof vector)."""
    return spd_solve(ops.stiffness_coeff, ops.load, tol)


def pad_full(mesh, vec_interior):
    """Extend an interior dof vector by the homogeneous boundary values."""
    out = np.zeros(mesh.n_vertices)
    out[mesh.interior_vertices] = vec_interior
    return out


def error_norms(u, v, ops):
    """L2, full H1, and energy norms of u - v (interior dof vectors)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape != ops.load.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape} on "
                         f"{ops.load.shape[0]} dofs")
    d = u - v
    l2_sq = max(float(d @ (ops.mass @ d)), 0.0)
    semi_sq = max(float(d @ (ops.stiffness_plain @ d)), 0.0)
    energy_sq = max(float(d @ (ops.stiffness_coeff @ d)), 0.0)
    return np.sqrt(l2_sq), np.sqrt(l2_sq + semi_sq), np.sqrt(energy_sq)
