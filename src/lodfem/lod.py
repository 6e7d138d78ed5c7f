"""Corrector problems, the multiscale space, and corrector decay.

Each coarse interior node gets a fine-scale corrector: the energy projection
of its hat function onto the kernel of the quasi-interpolation, computed as
an equality-constrained quadratic solve.  Localized correctors restrict the
solve to an l-th order element patch per coarse element and sum the per
element contributions; at patch saturation they reproduce the global
corrector exactly.  Subtracting correctors from the prolonged hats yields
the multiscale basis whose Galerkin (or Petrov-Galerkin) solve is the
method's output.

A patch order k solves one order-k patch per coarse element, a column per
interior vertex of the element.  On the structured lattice the patches fall
into classes of translates (mesh.patch_classes); each class gets a template
from one representative patch: its fine dofs, its nonzero constraint rows,
the sparsity of its stiffness and constraint blocks, and the unit-coefficient
right-hand side of each child element.  A member's blocks are gathered from
the CSR data of the fine stiffness and the quasi-interpolation at the
member's lattice offset, and its right-hand side is the template's weighted
by the coefficient on its children.  Each patch is solved once: classes of
at most _DENSE_MAX_DOFS dofs as dense stacks of up to _STACK_BYTES of
stiffness, Cholesky for each patch and its Schur complement, larger classes
one patch at a time, each with one sparse SuperLU factorization.  A failure
names the element of its patch.  The (coarse dof, patch dofs, values)
triplets are summed in ascending element order into the corrector matrix,
built once, so outputs are bit-identical at any thread count of the
localized solves.  The global correctors are the unbounded patch (order
None): one whole-domain solve of a sparse block of right-hand sides, a
column per interior node, whose dense solution columns become the rows of
the corrector matrix directly.

Correctors as dense as the global ones give a dense basis B = P - M' and a
dense S B; sparser correctors keep B and S B sparse.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np
import scipy.sparse as sparse

from . import fem
from .linalg import SaddleFactorization, SolverFailure, spd_solve
from .mesh import element_patch, patch_classes

# Patches of up to this many fine dofs are solved as dense stacks, larger
# ones by SuperLU.  On one core both take about 2.1 ms per patch at 290
# dofs; the dense stack is 4.5x faster at 87 dofs and SuperLU 7x faster at
# 1125.
_DENSE_MAX_DOFS = 300
# Correctors of at least this density give a dense basis B = P - M' and a
# dense S B, which then take no more memory than their CSR forms (8 against
# 12 bytes per stored entry).
_DENSE_PRODUCT_DENSITY = 2 / 3
# Patch stiffness bytes per dense stack.  On patch-small, stacks of 8 and 16
# MiB raised peak RSS by 11% and 30% and saved no time.
_STACK_BYTES = 2 ** 21


@dataclass(eq=False)
class CorrectorSet:
    """One fine-space corrector per coarse interior node (rows of `matrix`)."""

    matrix: sparse.csr_matrix    # (n_coarse_interior, n_fine_interior)


@dataclass(eq=False)
class MultiscaleSpace:
    """Modified coarse basis and the assembled coarse systems."""

    basis: np.ndarray | sparse.csr_matrix  # (n_fine_interior, n_coarse_interior)
    gram: sparse.csr_matrix      # a(b_a, b_b)
    gram_pg: sparse.csr_matrix   # a(b_a, hat_b): coarse hats as test functions
    load: np.ndarray             # (f, b_a)
    load_pg: np.ndarray          # (f, hat_a)


def _global_correctors(hierarchy, ops, interp, nodes, tol, where):
    """Whole-domain correctors of the coarse interior dofs `nodes` (columns);
    a failure is named by `where`."""
    S = ops.stiffness_coeff
    try:
        x, _ = SaddleFactorization(S, interp.matrix).solve(
            S @ hierarchy.prolongation_interior[:, nodes], tol)
    except SolverFailure as exc:
        raise SolverFailure(f"{where}: {exc}", residual=exc.residual) from exc
    return x


class _Entries:
    """Values of a CSR matrix's stored entries, looked up by position."""

    def __init__(self, matrix):
        if not matrix.has_canonical_format:
            matrix = matrix.copy()
            matrix.sum_duplicates()
        self.data, self.width = matrix.data, matrix.shape[1]
        self.keys = _entry_rows(matrix) * self.width + matrix.indices

    def values(self, rows, cols):
        """Stored values at (rows, cols); each must be a stored entry."""
        wanted = rows * self.width + cols
        at = np.minimum(np.searchsorted(self.keys, wanted), self.keys.size - 1)
        if not np.array_equal(self.keys[at], wanted):
            raise RuntimeError("patch entry outside the matrix pattern")
        return self.data[at]


def _entry_rows(matrix):
    """Row index of each stored entry of a CSR matrix or pattern."""
    return np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))


@dataclass(eq=False)
class _Pattern:
    """Where a patch block stores its entries, in CSR layout."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray

    def matrix(self, data):
        return sparse.csr_matrix((data, self.indices, self.indptr),
                                 shape=self.shape)

    def dense(self, data):
        """Dense stack (P, *shape) of the blocks with values `data` (P, nnz)."""
        out = np.zeros((data.shape[0], *self.shape))
        out[:, _entry_rows(self), self.indices] = data
        return out


@dataclass(eq=False)
class _PatchTemplate:
    """The corrector problem of one patch class, set up from its member
    `element`; another member's dofs, rows and nodes are these plus the
    difference of the two members' lattice offsets."""

    element: int
    dofs: np.ndarray       # (n,) fine interior dofs of the patch
    rows: np.ndarray       # (m,) coarse interior dofs of the nonzero constraint rows
    nodes: np.ndarray      # (k,) coarse interior dofs of the element, ascending
    A: _Pattern            # (n, n) patch stiffness
    C: _Pattern            # (m, n) constraint block
    # Right-hand side at unit coefficient: for each (child element, interior
    # child vertex) pair, its child, its patch position and its k values.
    rhs_child: np.ndarray  # (q,)
    rhs_at: np.ndarray     # (q,)
    rhs: np.ndarray        # (q, k)


class _PatchSolver:
    """Localized corrector blocks of coarse elements, solved by patch class."""

    def __init__(self, hierarchy, ops, interp, order, tol):
        self.hierarchy, self.ops, self.interp = hierarchy, ops, interp
        self.order, self.tol = order, tol
        self.labels, self.fine_offset, self.coarse_offset = patch_classes(
            hierarchy, order)
        self.stiffness = _Entries(ops.stiffness_coeff)
        self.constraints = _Entries(interp.matrix)
        self.coeff = fem.coefficient_values(hierarchy.fine, ops.coeff)
        self.element_classes = patch_classes(hierarchy, 0)[0]
        self._children_rhs_cache = {}

    def stacks(self, elements):
        """(template, members) pairs that cover `elements`, class by class:
        stacks of up to _STACK_BYTES, one patch each past _DENSE_MAX_DOFS."""
        for label in np.unique(self.labels[elements]):
            members = elements[self.labels[elements] == label]
            template = self._template(int(np.flatnonzero(self.labels == label)[0]))
            n = template.dofs.size
            size = max(1, _STACK_BYTES // (8 * n * n)) \
                if n <= _DENSE_MAX_DOFS else 1
            for i in range(0, members.size, size):
                yield template, members[i:i + size]

    def _template(self, element):
        """The template of `element`'s class, from `element`'s own patch."""
        hierarchy, coarse, fine = self.hierarchy, self.hierarchy.coarse, \
            self.hierarchy.fine
        patch = element_patch(hierarchy, element, self.order)
        dofs = patch.fine_interior_dofs
        nodes = np.sort(coarse.interior_index[coarse.triangles[element]])
        nodes = nodes[nodes >= 0]
        rows = coarse.interior_index[patch.active_coarse_nodes]
        C = self.interp.matrix[rows][:, dofs]
        nonzero = np.flatnonzero(np.diff(C.indptr))  # empty rows constrain nothing
        C = C[nonzero]
        A = self.ops.stiffness_coeff[dofs][:, dofs]
        corners = fine.triangles[hierarchy.children[element]]
        inside = ~fine.boundary_flags[corners]
        return _PatchTemplate(
            element=element, dofs=dofs, rows=rows[nonzero], nodes=nodes,
            A=_Pattern(A.shape, A.indptr, A.indices),
            C=_Pattern(C.shape, C.indptr, C.indices),
            rhs_child=np.nonzero(inside)[0],
            rhs_at=np.searchsorted(dofs, fine.interior_index[corners[inside]]),
            rhs=self._children_rhs(element)[inside])

    def _children_rhs(self, element):
        """Each child's unit-coefficient rhs at its vertices, (children, 3,
        k); the same for every translate of the element itself (its order-0
        class), so it is computed once per such class."""
        label = self.element_classes[element]
        if label not in self._children_rhs_cache:
            hierarchy, fine = self.hierarchy, self.hierarchy.fine
            first = int(np.flatnonzero(self.element_classes == label)[0])
            nodes = hierarchy.coarse.interior_index[
                hierarchy.coarse.triangles[first]]
            hats = hierarchy.prolongation[:, np.sort(nodes[nodes >= 0])].toarray()
            # one child per batch entry, each result over all fine vertices,
            # so the batches are cut to the stack budget
            children = hierarchy.children[first]
            size = max(1, _STACK_BYTES // hats.nbytes)
            self._children_rhs_cache[label] = np.concatenate([
                fem.apply_subset_stiffness(fine, None, batch[:, None], hats)[
                    np.arange(batch.size)[:, None], fine.triangles[batch]]
                for batch in np.split(children, range(size, children.size, size))])
        return self._children_rhs_cache[label]

    def gather(self, stack):
        """The members' (dofs, rows, nodes, a, c, rhs): their patch dofs,
        constraint rows and element nodes (one row each), the values of the
        template's A and C patterns, and the right-hand sides (P, n, k)."""
        t, members = stack
        shift = (self.fine_offset[members] - self.fine_offset[t.element])[:, None]
        coarse_shift = (self.coarse_offset[members]
                        - self.coarse_offset[t.element])[:, None]
        dofs, rows = t.dofs + shift, t.rows + coarse_shift
        a = self.stiffness.values(dofs[:, _entry_rows(t.A)], dofs[:, t.A.indices])
        c = self.constraints.values(rows[:, _entry_rows(t.C)],
                                    dofs[:, t.C.indices])
        weights = self.coeff[self.hierarchy.children[members]][:, t.rhs_child]
        rhs = np.zeros((members.size, t.dofs.size, t.nodes.size))
        np.add.at(rhs, (slice(None), t.rhs_at), weights[:, :, None] * t.rhs)
        return dofs, rows, t.nodes + coarse_shift, a, c, rhs

    def solve(self, stack):
        """(element, nodes, dofs, x) of each member of one stack (see stacks)."""
        t, members = stack
        dofs, _, nodes, a, c, rhs = self.gather(stack)
        if t.dofs.size <= _DENSE_MAX_DOFS:
            A, C, b = t.A.dense(a), t.C.dense(c), rhs
        else:
            A, C, b = t.A.matrix(a[0]), t.C.matrix(c[0]), rhs[0]
        try:
            x, _ = SaddleFactorization(A, C).solve(b, self.tol)
        except SolverFailure as exc:
            element = members[exc.system or 0]
            raise SolverFailure(f"corrector patch of element {element}: {exc}",
                                residual=exc.residual) from exc
        x = x.reshape(rhs.shape)
        return [(element, nodes[p], dofs[p], x[p])
                for p, element in enumerate(members)]


def _localized_blocks(hierarchy, ops, interp, order, tol, threads):
    """(nodes, dofs, x) of every element's patch, in ascending element order.

    The patch solver and its lookup tables are gone when this returns, so
    the merge that follows does not hold them.
    """
    coarse = hierarchy.coarse
    # elements with only boundary vertices seed no corrector
    seeds = np.flatnonzero(
        (coarse.interior_index[coarse.triangles] >= 0).any(axis=1))
    solver = _PatchSolver(hierarchy, ops, interp, order, tol)
    stacks = solver.stacks(seeds)
    # Templates are built as the stacks are drawn, so the pool takes them a
    # window at a time: drawn all at once they raised patch-large's peak RSS
    # by about 2%.  One thread stays off the pool: a 1-worker pool raised
    # patch-small's by about 6%, most likely from the worker's malloc arena.
    if threads > 1:
        solved = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            while window := list(islice(stacks, 16 * threads)):
                solved += pool.map(solver.solve, window)
    else:
        solved = list(map(solver.solve, stacks))
    return [block[1:] for block in sorted(chain.from_iterable(solved),
                                          key=lambda block: block[0])]


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


def _column_rows(X):
    """CSR matrix whose row i is column i of the dense block X, exact zeros
    dropped: _merge of X as one block, without its per-row merge."""
    counts = np.count_nonzero(X, axis=0)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for i, (start, end) in enumerate(zip(indptr, indptr[1:])):
        column = X[:, i]
        indices[start:end] = np.flatnonzero(column)
        data[start:end] = column[indices[start:end]]
    return sparse.csr_matrix((data, indices, indptr), shape=X.shape[::-1])


def assemble_corrector_set(hierarchy, ops, interp, order=2, tol=1e-10,
                           threads=1):
    """Correctors for every coarse interior node at patch order `order`.

    A patch order k sums per-element solves on order-k patches (at most the
    node's star size per node, in ascending element order).  order=None is
    the unbounded patch, the global correctors: one whole-domain solve for
    all nodes, whose dense columns become the rows of the matrix.
    """
    coarse = hierarchy.coarse
    if order is None:
        return CorrectorSet(matrix=_column_rows(_global_correctors(
            hierarchy, ops, interp, np.arange(coarse.n_interior), tol,
            "global correctors")))
    blocks = _localized_blocks(hierarchy, ops, interp, order, tol, threads)
    return CorrectorSet(matrix=_merge(
        blocks, (coarse.n_interior, hierarchy.fine.n_interior)))


def build_multiscale_space(hierarchy, ops, correctors):
    """Modified basis b_a = hat_a - phi_a and its coarse systems.

    Dense correctors (as the global ones are) give a dense basis B and a
    dense S B, sparse ones sparse B and S B.
    """
    P = hierarchy.prolongation_interior
    M = correctors.matrix
    if M.nnz < _DENSE_PRODUCT_DENSITY * M.shape[0] * M.shape[1]:
        B = (P - M.T).tocsr()
    else:
        B = P.toarray()
        for i, (start, end) in enumerate(zip(M.indptr, M.indptr[1:])):
            B[M.indices[start:end], i] -= M.data[start:end]
    SB = ops.stiffness_coeff @ B
    return MultiscaleSpace(
        basis=B,
        gram=sparse.csr_matrix(B.T @ SB),
        gram_pg=sparse.csr_matrix(P.T @ SB),
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
