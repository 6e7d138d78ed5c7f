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
from one representative patch: its fine dofs, listed in the fine mesh's
elimination order (TriMesh.elimination_order), its nonzero constraint rows,
the sparsity of its stiffness and constraint blocks (CSR with sorted
indices), and the unit-coefficient right-hand side of each child element:
its element stiffness (fem.element_stiffness) times the coarse hats at its
three vertices.  Every member lists its dofs in the template's order, moved
by its lattice offset.  A member's values of both blocks are read from CSR
data, of the fine stiffness and of the quasi-interpolation matrix, at the
template's ranks: where each template entry sits in its row, which is the
same in every member (checked against the member's column indices; a
mismatch is a RuntimeError).  The constraint rows are read from that matrix
because its columns are all fine vertices, so every row has one layout about
its node; restricted to the fine interior dofs, the row layouts would change
near the boundary.  A member's right-hand side is the template's weighted by
the coefficient on its children.  Each patch is solved once, in stacks of one
class: classes of at most _DENSE_MAX_DOFS dofs as dense stacks of up to
_STACK_BYTES of stiffness, Cholesky for each patch and its Schur
complement, larger classes in stacks of up to _STACK_BYTES of gathered
values, each member with one SuperLU factorization of its KKT matrix: the
stiffness in the template's order, the constraint rows last.  A failure
names the element of its patch.  The stacks and their templates are made
before any solve.  With more than one worker, processes forked from the
caller (on Linux) solve the stacks and send their solutions back, since
SuperLU does not run alongside Python in another thread; a worker dies with
its parent.  The caller writes each solution as it comes into Z, a row per
(element, node of the element) on the element's patch dofs.  The corrector
matrix is R Z, with R the node-element incidence whose rows list the rows
of Z in ascending element order; scipy sums each entry in that order, so
outputs are bit-identical at any worker count.  No global
corrector set is assembled: the A-orthogonal projection x of the fine
solution u onto the kernel, the constrained solve of b = A u with the
system permuted into the elimination order (_kernel_projection), is its
part there, so u - x is the Galerkin solution with the global correctors.
The harness computes global rows that way, and a global corrector as the
projection of its hat.  The multiscale basis B = P - M' and its products
are sparse.  A multiscale space holds the one coarse system of its mode.
"""

import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from . import fem
from .linalg import SaddleFactorization, SolverFailure, spd_solve
from .mesh import _check_order, element_patch, patch_classes

# Patches of up to this many fine dofs are solved as dense stacks, larger
# ones by SuperLU.  On one core the two cross near 230 dofs, and SuperLU is
# about 20% faster at 267-289 dofs; the limit stays at 300 until ROADMAP
# item 3 re-measures it.
_DENSE_MAX_DOFS = 300
# Bytes per stack: of patch stiffness in a dense class, of gathered values
# (see _PatchSolver.stacks) in a SuperLU class.  On patch-small, dense
# stacks of 8 and 16 MiB raised peak RSS by 11% and 30% and saved no time.
_STACK_BYTES = 2 ** 21


@dataclass(eq=False)
class CorrectorSet:
    """One fine-space corrector per coarse interior node (rows of `matrix`)."""

    matrix: sparse.csr_matrix    # (n_coarse_interior, n_fine_interior)


@dataclass(eq=False)
class MultiscaleSpace:
    """Modified coarse basis and the coarse system of one solve mode."""

    basis: sparse.csr_matrix     # (n_fine_interior, n_coarse_interior)
    gram: sparse.csr_matrix      # a(b_a, t_b) for the test functions t
    load: np.ndarray             # (f, t_a)
    mode: str                    # "galerkin" (t = b) or "petrov_galerkin" (t = hat)


def _kernel_projection(hierarchy, ops, interp, p, tol, where):
    """The A-orthogonal projection of the fine vector(s) `p` onto the kernel
    of the quasi-interpolation, on the whole domain: the constrained solve
    of b = A p, its system permuted into the fine mesh's elimination order.
    Failures name `where`."""
    fine = hierarchy.fine
    order = fine.elimination_order
    A = ops.stiffness_coeff[order][:, order]
    A.sort_indices()
    C = interp[:, fine.interior_vertices[order]]
    C.sort_indices()
    p = p[order]
    try:
        # A is bit-symmetric, so its CSR arrays are its CSC arrays
        x, _ = SaddleFactorization(A.T, C).solve(A @ p, tol)
    except SolverFailure as exc:
        raise SolverFailure(f"{where}: {exc}", residual=exc.residual) from exc
    return x[np.argsort(order)]


@dataclass(eq=False)
class _Pattern:
    """Where a patch block stores its entries, in CSR layout with sorted
    indices, and where each entry sits in its row of the matrix it is read
    from."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    ranks: np.ndarray      # (nnz,) each entry's rank in its row of the matrix

    @classmethod
    def of(cls, matrix, rows, local, n):
        """The block of CSR `matrix` at `rows` and at the columns `local`
        maps to patch positions 0..n-1 (-1 elsewhere), rows that store none
        of them left out: (the rows kept, the block's pattern)."""
        start, count = matrix.indptr[rows], np.diff(matrix.indptr)[rows]
        row = np.repeat(np.arange(rows.size), count)
        rank = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        col = local[matrix.indices[start[row] + rank]]
        inside = np.flatnonzero(col >= 0)
        # a CSR matrix stores each (row, col) once: one argsort of unique
        # keys takes a third of lexsort's time
        inside = inside[np.argsort(row[inside] * n + col[inside])]
        count = np.bincount(row[inside], minlength=rows.size)
        kept = np.flatnonzero(count)
        indptr = np.zeros(kept.size + 1, dtype=matrix.indptr.dtype)
        np.cumsum(count[kept], out=indptr[1:])
        return rows[kept], cls((kept.size, n), indptr, col[inside],
                               rank[inside].astype(np.min_scalar_type(rank.max())))

    def read(self, matrix, rows, cols, name):
        """The block's values in each member, (P, nnz): the data of CSR
        `matrix` at the members' `rows` (P, shape[0]) and this pattern's
        ranks, whose column indices must be the members' `cols` (P, nnz)."""
        at = np.repeat(matrix.indptr[rows], np.diff(self.indptr), axis=1) + self.ranks
        if not np.array_equal(matrix.indices[at], cols):
            raise RuntimeError(f"patch {name} rows differ from their template's")
        return matrix.data[at]

    def matrix(self, data):
        return sparse.csr_matrix((data, self.indices, self.indptr),
                                 shape=self.shape)

    def dense(self, data):
        """Dense stack (P, *shape) of the blocks with values `data` (P, nnz)."""
        out = np.zeros((data.shape[0], *self.shape))
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out[:, rows, self.indices] = data
        return out


@dataclass(eq=False)
class _PatchTemplate:
    """The corrector problem of one patch class, set up from its member
    `element`; another member's dofs, rows and nodes are these plus the
    difference of the two members' lattice offsets."""

    element: int
    dofs: np.ndarray       # (n,) fine interior dofs of the patch, in elimination order
    rows: np.ndarray       # (m,) coarse interior dofs of the nonzero constraint rows
    nodes: np.ndarray      # (k,) coarse interior dofs of the element, ascending
    A: _Pattern            # (n, n) patch stiffness, ranks in the fine stiffness
    C: _Pattern            # (m, n) constraint block, ranks in interp
    # Right-hand side at unit coefficient: for each (child element, interior
    # child vertex) pair, its child, its patch position and its k values.
    rhs_child: np.ndarray  # (q,)
    rhs_at: np.ndarray     # (q,)
    rhs: np.ndarray        # (q, k)


class _PatchSolver:
    """Localized corrector blocks of coarse elements, solved by patch class."""

    def __init__(self, hierarchy, ops, interp, order, tol):
        self.hierarchy, self.interp = hierarchy, interp
        self.order, self.tol = order, tol
        self.labels, self.fine_offset, self.coarse_offset = patch_classes(
            hierarchy, order)
        self.stiffness = ops.stiffness_coeff
        self.rank = np.argsort(hierarchy.fine.elimination_order)
        self.coeff = fem.coefficient_values(hierarchy.fine, ops.coeff)

    def stacks(self, elements):
        """(template, members) pairs that cover `elements`, class by class,
        in stacks of up to _STACK_BYTES: of patch stiffness in a class of at
        most _DENSE_MAX_DOFS dofs, of gathered values (see gather) past it."""
        for label in np.unique(self.labels[elements]):
            members = elements[self.labels[elements] == label]
            t = self._template(int(np.flatnonzero(self.labels == label)[0]))
            n = t.dofs.size
            values = n * n if n <= _DENSE_MAX_DOFS else \
                t.A.indices.size + t.C.indices.size + n * t.nodes.size
            size = max(1, _STACK_BYTES // (8 * values))
            for i in range(0, members.size, size):
                yield t, members[i:i + size]

    def _template(self, element):
        """The template of `element`'s class, from `element`'s own patch."""
        hierarchy, coarse, fine = self.hierarchy, self.hierarchy.coarse, \
            self.hierarchy.fine
        patch = element_patch(hierarchy, element, self.order)
        dofs = patch.fine_interior_dofs
        dofs = dofs[np.argsort(self.rank[dofs])]
        # patch position of each fine vertex (-1 outside), in scipy's index
        # dtype, so that the patterns built from it are as compact as scipy's
        local = np.full(fine.n_vertices, -1, dtype=self.stiffness.indices.dtype)
        local[fine.interior_vertices[dofs]] = np.arange(dofs.size)
        nodes = np.sort(coarse.interior_index[coarse.triangles[element]])
        nodes = nodes[nodes >= 0]
        _, A = _Pattern.of(self.stiffness, dofs, local[fine.interior_vertices],
                           dofs.size)
        # rows with no entry in the patch constrain nothing
        rows, C = _Pattern.of(self.interp,
                              coarse.interior_index[patch.active_coarse_nodes],
                              local, dofs.size)
        # each child's unit-coefficient stiffness applied to the hats at its
        # vertices, (children, 3, k)
        children = hierarchy.children[element]
        corners = fine.triangles[children]
        hats = hierarchy.prolongation[corners.ravel()][:, nodes].toarray()
        rhs = fem.element_stiffness(fine, None, children) @ hats.reshape(
            *corners.shape, nodes.size)
        interior = ~fine.boundary_flags[corners]
        return _PatchTemplate(
            element=element, dofs=dofs, rows=rows, nodes=nodes, A=A, C=C,
            rhs_child=np.nonzero(interior)[0],
            rhs_at=local[corners[interior]],
            rhs=rhs[interior])

    def place(self, stack):
        """The members' patch dofs, constraint rows and element nodes, one
        row each: the template's shifted by the members' lattice offsets."""
        t, members = stack
        shift = (self.fine_offset[members] - self.fine_offset[t.element])[:, None]
        coarse_shift = (self.coarse_offset[members]
                        - self.coarse_offset[t.element])[:, None]
        return t.dofs + shift, t.rows + coarse_shift, t.nodes + coarse_shift

    def gather(self, stack):
        """The members' (dofs, rows, nodes, a, c, rhs): their place, the
        values of the template's A and C patterns, and the right-hand sides
        (P, n, k).  A member's values are read at the template's ranks in
        its rows of the fine stiffness and of interp, and its
        columns there must be the template's, translated."""
        t, members = stack
        dofs, rows, nodes = self.place(stack)
        a = t.A.read(self.stiffness, dofs, dofs[:, t.A.indices], "stiffness")
        c = t.C.read(self.interp, rows,
                     self.hierarchy.fine.interior_vertices[dofs[:, t.C.indices]],
                     "constraint")
        weights = self.coeff[self.hierarchy.children[members]][:, t.rhs_child]
        rhs = np.zeros((members.size, t.dofs.size, t.nodes.size))
        np.add.at(rhs, (slice(None), t.rhs_at), weights[:, :, None] * t.rhs)
        return dofs, rows, nodes, a, c, rhs

    def solve(self, stack):
        """The members' corrector blocks (P, n, k) of one stack (see
        stacks), each in its template's dof order.  A dense stack is
        factorized at once, a SuperLU stack member by member."""
        t, members = stack
        _, _, _, a, c, rhs = self.gather(stack)
        i = 0  # the member being solved, the first of a dense stack
        try:
            if t.dofs.size <= _DENSE_MAX_DOFS:
                return SaddleFactorization(t.A.dense(a), t.C.dense(c)).solve(
                    rhs, self.tol)[0]
            x = np.empty_like(rhs)
            for i in range(members.size):
                # A is bit-symmetric, so its CSR arrays are its CSC arrays:
                # the CSC system SuperLU factorizes in the template's order.
                x[i] = SaddleFactorization(t.A.matrix(a[i]).T,
                                           t.C.matrix(c[i])).solve(
                    rhs[i], self.tol)[0]
            return x
        except SolverFailure as exc:
            element = members[i + (exc.system or 0)]
            raise SolverFailure(f"corrector patch of element {element}: {exc}",
                                residual=exc.residual) from exc


_worker_stacks = None  # (solver, stacks) in a corrector worker process


def _start_worker(parent, solver, stacks):
    """Pool initializer of a forked corrector worker: it is killed when its
    parent process dies, and keeps the parent's solver and stacks."""
    import ctypes
    import signal
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    if prctl(1, signal.SIGKILL):  # PR_SET_PDEATHSIG
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # the parent died before prctl
        os._exit(1)
    global _worker_stacks
    _worker_stacks = solver, stacks


def _solve_stack(index):
    """Solve stack `index` in a corrector worker (see _start_worker)."""
    solver, stacks = _worker_stacks
    return solver.solve(stacks[index])


def _pooled(workers, solver, stacks):
    """The solutions of `stacks`, in order, from `workers` forked processes."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    with ProcessPoolExecutor(workers, get_context("fork"), _start_worker,
                             (os.getpid(), solver, stacks)) as pool:
        # the first failure cancels the stacks not yet started
        yield from pool.map(_solve_stack, range(len(stacks)))


def assemble_corrector_set(hierarchy, ops, interp, order=2, tol=1e-10,
                           threads=1):
    """Correctors for every coarse interior node from solves on the patches
    of order `order` (an integer >= 1), by up to `threads` worker processes.

    A row of Z holds one seed element's corrector of one of its nodes, on
    the element's patch dofs, in stack order; row a of the incidence R lists
    the rows of Z of node a in ascending element order.  The corrector matrix
    is R Z, its indices sorted: scipy sums each entry from zero in the stored
    order of R's row and drops exact-zero sums, so the bits do not depend on
    how the stacks were solved, and R is never sorted.
    """
    _check_order(order)
    coarse = hierarchy.coarse
    # elements with only boundary vertices seed no corrector
    seeds = np.flatnonzero(
        (coarse.interior_index[coarse.triangles] >= 0).any(axis=1))
    solver = _PatchSolver(hierarchy, ops, interp, order, tol)
    # Every template is built before the workers fork, so each finds them in
    # its copy of this process, and the stacks do not depend on the workers.
    stacks = list(solver.stacks(seeds))
    places = [(members, nodes, dofs) for (_, members), (dofs, _, nodes) in
              zip(stacks, map(solver.place, stacks))]
    ends = np.cumsum([0] + [nodes.shape[1] * dofs.size
                            for _, nodes, dofs in places])
    data = np.empty(ends[-1])
    # SuperLU does not run alongside Python in another thread, so the
    # workers are processes: forked (on Linux only), never more than the CPUs
    # this process may use, and none at one, where this process solves.
    workers = min(threads, len(os.sched_getaffinity(0)), len(stacks)) \
        if sys.platform == "linux" else 1
    for x, start, end in zip(_pooled(workers, solver, stacks) if workers > 1
                             else map(solver.solve, stacks), ends, ends[1:]):
        data[start:end].reshape(len(x), -1, x.shape[1])[...] = \
            x.transpose(0, 2, 1)
    # The templates go before Z's indices are made, so the two never meet in
    # memory; the indices are written in place, as narrow as scipy keeps them.
    del solver, stacks
    indices = np.empty(data.size, sparse.get_index_dtype(maxval=data.size))
    for start, end, (_, nodes, dofs) in zip(ends, ends[1:], places):
        indices[start:end].reshape(*nodes.shape, -1)[...] = dofs[:, None]
    lengths = np.repeat([dofs.shape[1] for _, _, dofs in places],
                        [nodes.size for _, nodes, _ in places])
    element = np.concatenate([np.repeat(members, nodes.shape[1])
                              for members, nodes, _ in places])
    node = np.concatenate([nodes.ravel() for _, nodes, _ in places])
    del places
    Z = sparse.csr_matrix((data, indices, np.r_[0, np.cumsum(lengths)]),
                          shape=(lengths.size, hierarchy.fine.n_interior))
    R = sparse.csr_matrix(
        (np.ones(node.size), np.lexsort((element, node)),
         np.r_[0, np.cumsum(np.bincount(node, minlength=coarse.n_interior))]),
        shape=(coarse.n_interior, node.size))
    matrix = R @ Z
    matrix.sort_indices()
    return CorrectorSet(matrix=matrix)


def build_multiscale_space(hierarchy, ops, correctors, mode="galerkin"):
    """Modified basis b_a = hat_a - phi_a and the coarse system T'(A B),
    T'f of `mode`: T = B ("galerkin") or the coarse hats P ("petrov_galerkin").

    The corrector matrix is let go once B exists, so a caller that passes
    `correctors` without keeping it does not hold it while S B is formed.
    """
    if mode not in ("galerkin", "petrov_galerkin"):
        raise ValueError(f"unknown solve mode: {mode!r}")
    P = hierarchy.prolongation_interior
    M = correctors.matrix
    del correctors
    B = (P - M.T).tocsr()
    del M
    T = B if mode == "galerkin" else P
    return MultiscaleSpace(
        basis=B, gram=sparse.csr_matrix(T.T @ (ops.stiffness_coeff @ B)),
        load=T.T @ ops.load, mode=mode)


def solve_multiscale(space, tol=1e-10):
    """Coarse coefficients and the fine representation of the solution; a
    Galerkin system must be symmetric with a positive diagonal."""
    gram = space.gram
    if space.mode == "galerkin":
        skew = abs(gram - gram.T)
        if (skew.nnz and skew.data.max() > 1e-10 * abs(gram).data.max()) or \
                np.any(gram.diagonal() <= 0):
            raise ValueError("assembly integrity lost: coarse system is not SPD")
    coeffs = spd_solve(gram, space.load, tol)
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
