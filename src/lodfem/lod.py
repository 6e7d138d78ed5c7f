"""Corrector problems, the multiscale space, and corrector decay.

Each coarse interior node gets a fine-scale corrector: the energy projection
of its hat function onto the kernel of the quasi-interpolation, computed as
an equality-constrained quadratic solve.  Localized correctors restrict the
solve to an l-th order element patch per coarse element and sum the per
element contributions; at patch saturation they reproduce the global
corrector exactly.  Subtracting correctors from the prolonged hats yields
the multiscale basis whose Galerkin (or Petrov-Galerkin) solve is the
method's output.

Every corrector comes from one patch solve: the patch stiffness is
factorized once, with the small Schur complement of the patch's
interpolation constraints, and all of its right-hand sides are solved as one
block.
Localized mode solves one patch per coarse element, a column per interior
vertex of the element; global mode solves the whole domain as one patch, a
column per interior node.  The (coarse dof, patch dofs, values) triplets are
summed in ascending element order into the corrector matrix, built once, so
outputs are bit-identical at any thread count of the localized solves.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sparse

from . import fem
from .linalg import SaddleFactorization, SolverFailure, spd_solve
from .mesh import element_patch


@dataclass(eq=False)
class CorrectorSet:
    """One fine-space corrector per coarse interior node (rows of `matrix`)."""

    matrix: sparse.csr_matrix    # (n_coarse_interior, n_fine_interior)


@dataclass(eq=False)
class MultiscaleSpace:
    """Modified coarse basis and the assembled coarse systems."""

    basis: sparse.csr_matrix     # (n_fine_interior, n_coarse_interior)
    gram: sparse.csr_matrix      # a(b_a, b_b)
    gram_pg: sparse.csr_matrix   # a(b_a, hat_b): coarse hats as test functions
    load: np.ndarray             # (f, b_a)
    load_pg: np.ndarray          # (f, hat_a)


def _solve_patch(ops, interp, dofs, rows, rhs, tol, where):
    """Corrector block on the fine interior `dofs` of one patch.

    Each column x of the result minimizes a(x, x)/2 - (rhs, x) over the
    patch, subject to the quasi-interpolation rows `rows` vanishing on x.
    One factorization serves all columns of `rhs` (len(dofs), k).
    """
    A = ops.stiffness_coeff[dofs][:, dofs]
    C = interp.matrix[rows][:, dofs]
    C = C[np.flatnonzero(np.diff(C.indptr))]  # all-zero rows constrain nothing
    try:
        x, _ = SaddleFactorization(A, C).solve(rhs, tol)
    except SolverFailure as exc:
        raise SolverFailure(f"{where}: {exc}", residual=exc.residual) from exc
    return x


def _global_correctors(hierarchy, ops, interp, nodes, tol, where):
    """Whole-domain correctors of the coarse interior dofs `nodes` (columns)."""
    rhs = (ops.stiffness_coeff @ hierarchy.prolongation_interior[:, nodes]).toarray()
    return _solve_patch(ops, interp, np.arange(hierarchy.fine.n_interior),
                        np.arange(hierarchy.coarse.n_interior), rhs, tol, where)


def _element_correctors(hierarchy, ops, interp, element, order, tol):
    """Contributions seeded at one coarse element, as (nodes, dofs, x).

    x holds one column per coarse interior dof in `nodes` (the element's, in
    ascending order) on the fine interior `dofs` of the element's patch; its
    right-hand side is the hat's stiffness on the element's children only.
    """
    coarse, fine = hierarchy.coarse, hierarchy.fine
    nodes = np.sort(coarse.interior_index[coarse.triangles[element]])
    nodes = nodes[nodes >= 0]
    patch = element_patch(hierarchy, element, order)
    dofs = patch.fine_interior_dofs
    hats = hierarchy.prolongation[:, nodes].toarray()
    b = fem.apply_subset_stiffness(fine, ops.coeff, hierarchy.children[element], hats)
    x = _solve_patch(ops, interp, dofs,
                     coarse.interior_index[patch.active_coarse_nodes],
                     b[fine.interior_vertices[dofs]], tol,
                     f"corrector patch of element {element}")
    return nodes, dofs, x


def _merge(blocks, shape):
    """CSR matrix from (rows, cols, values) blocks, values[:, j] in row rows[j].

    Entries that meet at one position are summed from zero in block order,
    so the result does not depend on how the blocks were computed.
    """
    pieces = [[] for _ in range(shape[0])]
    for rows, cols, values in blocks:
        for j, row in enumerate(rows):
            pieces[row].append((cols, values[:, j]))
    indices, data = [], []
    for row_pieces in pieces:
        cols, inverse = np.unique(np.concatenate([c for c, _ in row_pieces]),
                                  return_inverse=True)
        indices.append(cols)
        data.append(np.bincount(inverse, weights=np.concatenate(
            [v for _, v in row_pieces])))
    indptr = np.cumsum([0] + [cols.size for cols in indices])
    matrix = sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=shape)
    matrix.eliminate_zeros()
    return matrix


def solve_global_corrector(node, hierarchy, ops, interp, tol=1e-10):
    """Corrector of one coarse interior node on the whole domain.

    Solves  a(phi, w) = a(hat_node, w)  for all w in the interpolation
    kernel, as a saddle system on the fine interior dofs.
    """
    dof = hierarchy.coarse.interior_index[node]
    if dof < 0:
        raise IndexError(f"coarse vertex {node} is not an interior node")
    return _global_correctors(hierarchy, ops, interp, [dof], tol,
                              f"global corrector at node {node}")[:, 0]


def assemble_corrector_set(hierarchy, ops, interp, mode="localized", order=2,
                           tol=1e-10, threads=1):
    """Correctors for every coarse interior node.

    Localized mode sums per-element patch solves (at most the node's star
    size per node, in ascending element order); global mode solves the whole
    domain once for all nodes.
    """
    coarse = hierarchy.coarse
    shape = (coarse.n_interior, hierarchy.fine.n_interior)
    if mode == "global":
        nodes = np.arange(shape[0])
        blocks = [(nodes, np.arange(shape[1]), _global_correctors(
            hierarchy, ops, interp, nodes, tol, "global correctors"))]
    elif mode == "localized":
        # elements with only boundary vertices seed no corrector
        seeds = np.flatnonzero(
            (coarse.interior_index[coarse.triangles] >= 0).any(axis=1))
        solve = partial(_element_correctors, hierarchy, ops, interp,
                        order=order, tol=tol)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                blocks = list(pool.map(solve, seeds))
        else:
            blocks = list(map(solve, seeds))
    else:
        raise ValueError(f"unknown corrector mode: {mode!r}")
    return CorrectorSet(matrix=_merge(blocks, shape))


def build_multiscale_space(hierarchy, ops, correctors):
    """Modified basis b_a = hat_a - phi_a and its coarse systems."""
    P = hierarchy.prolongation_interior
    B = (P - correctors.matrix.T).tocsr()
    S = ops.stiffness_coeff
    SB = S @ B
    gram = (B.T @ SB).tocsr()
    gram_pg = (P.T @ SB).tocsr()
    return MultiscaleSpace(
        basis=B,
        gram=gram,
        gram_pg=gram_pg,
        load=B.T @ ops.load,
        load_pg=P.T @ ops.load,
    )


def solve_multiscale(space, mode="galerkin", tol=1e-10):
    """Coarse coefficients and the fine representation of the solution."""
    if mode == "galerkin":
        gram = space.gram
        skew = abs(gram - gram.T)
        if (skew.nnz and skew.data.max() > 1e-10 * abs(gram).data.max()) or \
                np.any(gram.diagonal() <= 0):
            raise ValueError("assembly integrity lost: coarse system is not SPD")
        coeffs = spd_solve(gram, space.load, tol)
    elif mode == "petrov_galerkin":
        no_constraints = sparse.csr_matrix((0, space.gram_pg.shape[0]))
        coeffs, _ = SaddleFactorization(space.gram_pg, no_constraints).solve(
            space.load_pg, tol)
    else:
        raise ValueError(f"unknown solve mode: {mode!r}")
    return coeffs, space.basis @ coeffs


def measure_corrector_decay(hierarchy, node, phi, radii):
    """H1 norm of a corrector outside balls around its node.

    An element counts as exterior to radius R when all three vertices lie
    strictly outside the closed ball; radii past the domain diameter simply
    give zero tails.
    """
    radii = list(radii)
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    fine = hierarchy.fine
    center = hierarchy.coarse.vertices[node]
    dist = np.linalg.norm(fine.vertices - center, axis=1)
    phi_full = fem.pad_full(fine, phi)
    tails = []
    for R in radii:
        outside = np.flatnonzero(np.all(dist[fine.triangles] > R, axis=1))
        if outside.size == 0:
            tails.append((float(R), 0.0))
        else:
            tails.append((float(R), float(np.sqrt(
                fem.subset_h1_sq(fine, outside, phi_full)))))
    return tails


def fit_decay(radii, tails, spacing):
    """Least-squares slope and R^2 of log(tail) against radius/spacing.

    Zero tails (radii beyond the domain) carry no decay information and are
    dropped; at least three positive tails are required.
    """
    radii = np.asarray(radii, dtype=float)
    tails = np.asarray(tails, dtype=float)
    keep = tails > 0
    if keep.sum() < 3:
        raise ValueError("need at least three positive tails to fit a decay rate")
    x = radii[keep] / spacing
    y = np.log(tails[keep])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(r2)
