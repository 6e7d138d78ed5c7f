"""The sparse solver kernel shared by assembly, correctors, and the harness.

Matrices are scipy CSR (``indptr``/``indices``/``data`` are the row offsets,
column indices, and values of the compressed-sparse-row layout).  One kernel,
SaddleFactorization, does every linear solve in the package: the
equality-constrained quadratic solve

    minimize 1/2 x'Ax - b'x   subject to  Cx = 0,

handled through the Schur complement of its KKT system.  With constraints
(m > 0) A is symmetric positive definite, so SuperLU factorizes it once in
its symmetric mode (minimum degree on A'+A, diagonal pivots), and the small
dense Schur complement S = C A^-1 C' is Cholesky-factorized; S is positive
definite because the constraints have full row rank (the rows of a
quasi-interpolation are local and linearly independent).  An
unconstrained solve Ax = b is the case of C with zero rows (m = 0), in which
A need not be symmetric and SuperLU's default pivoted ordering is used.  A
stack of small dense SPD systems, A of shape (P, n, n) with C of shape
(P, m, n), is the batched case: LAPACK Cholesky factors each A and each S,
and every step below works on the whole stack at once.  Many right-hand
sides are worked through in blocks of about _BLOCK_BYTES per system: columns
for the A-solves and the residual, rows for the update x = u - Y mu, so that
a solve holds only Y and x whole, and a sparse block of right-hand sides is
never made dense whole.  The kernel polishes with iterative refinement;
one per-column acceptance test decides both which columns are refined and
whether the solve succeeds.  There is one failure type: a factorization
that fails, or a solve that misses the test, raises SolverFailure; a missed
solve carries the achieved residual, and a stack names its failing system.
Solves are pure functions of their inputs, so repeated or concurrent calls
on shared immutable matrices are deterministic, and each system of a stack
gets the same bits whatever else is stacked with it up to refinement, which
visits the columns that fail in any system of the stack.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrf, dpotrs

_REFINE_STEPS = 2
# A solve with many right-hand sides works in blocks of about _BLOCK_BYTES
# per system and of at least _MIN_BLOCK_COLUMNS columns.  SuperLU copies the
# right-hand sides it is given and allocates as much again for work, so the
# A-solves and the residual take the columns a block at a time, and the
# update x = u - Y mu takes the rows a block at a time.  On the global system
# at fine 128, SuperLU solves 8 columns at a time about 1.6 times faster per
# column than 2.
_BLOCK_BYTES = 2 ** 19
_MIN_BLOCK_COLUMNS = 8


class SolverFailure(RuntimeError):
    """A factorization failed or a solve missed its tolerance; `system` is
    the index of the first failing system of a stack, None for one system."""

    def __init__(self, message, residual=None, system=None):
        super().__init__(message)
        self.residual = residual
        self.system = system


def spd_solve(A, b, tol=1e-10):
    """Solve Ax = b for symmetric positive definite A to a relative residual.

    The unconstrained case of SaddleFactorization; deterministic for fixed
    inputs.  Raises SolverFailure if the factorization fails or the residual
    target is missed.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
        raise ValueError(f"shape mismatch: matrix {A.shape}, vector {b.shape}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    no_constraints = sparse.csr_matrix((0, A.shape[0]))
    return SaddleFactorization(A, no_constraints).solve(b, tol)[0]


def _cholesky(A):
    """Lower Cholesky factor of an SPD matrix (n, n), or of each matrix of a
    stack (P, n, n); SolverFailure if one is not positive definite."""
    L = np.empty_like(A)
    for i in np.ndindex(A.shape[:-2]):
        L[i], info = dpotrf(A[i], lower=1, clean=0)
        if info:
            which = f" {i[0]} of the stack" if i else ""
            raise SolverFailure(
                f"factorization failed: matrix{which} is not positive definite",
                system=i[0] if i else None)
    return L


def _cho_solve(L, B):
    """Solve with the factor `L` (n, n) the right-hand sides `B` (n, k), or
    with each factor of a stack (P, n, n) its block of `B` (P, n, k)."""
    X = np.empty_like(B)
    for i in np.ndindex(L.shape[:-2]):
        X[i], _ = dpotrs(L[i], B[i], lower=1)
    return X


def _column_blocks(B):
    """Column slices of the right-hand sides B (..., n, k), sparse or dense,
    in blocks of about _BLOCK_BYTES per system and at least
    _MIN_BLOCK_COLUMNS columns (fewer only if B has fewer)."""
    n, k = B.shape[-2:]
    width = max(_MIN_BLOCK_COLUMNS, _BLOCK_BYTES // (8 * n))
    count = max(1, k // width)
    bounds = [k * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _columns(B, cols=None):
    """Dense columns `cols` (all by default) of the right-hand sides B,
    sparse or dense."""
    if cols is None:
        return B.toarray() if sparse.issparse(B) else B
    return B[:, cols].toarray() if sparse.issparse(B) else B[..., cols]


def _solve_columns(solve, B):
    """solve(B) for right-hand sides B (..., n, k), sparse or dense, a
    column block at a time.  Solved in blocks, the result is C-ordered,
    since scipy's sparse products copy a dense operand that is not."""
    blocks = _column_blocks(B)
    if len(blocks) == 1:
        return solve(_columns(B))
    X = np.empty(B.shape)
    for cols in blocks:
        X[:, cols] = solve(_columns(B, cols))
    return X


class SaddleFactorization:
    """Reusable Schur-complement factorization for many right-hand sides.

    A is factorized once; with constraints, Y = A^-1 C' is formed by block
    solves and S = C Y is Cholesky-factorized, so each application is
    u = A^-1 r, mu = S^-1 (C u - q), x = u - Y mu.  The constraints must
    have full row rank, so that S is positive definite.

    Given numpy stacks A (P, n, n) and C (P, m, n), it factorizes P systems
    at once and solves right-hand sides (P, n) or (P, n, k).  A factorization
    that fails (SuperLU rejects A, or A of a stack or S is not positive
    definite) raises SolverFailure, as does a solve that fails the test.
    """

    def __init__(self, A, C):
        self.n = A.shape[-1]
        self.m = C.shape[-2]
        if isinstance(A, np.ndarray):
            self.A, self.C, self.Ct = A, C, C.transpose(0, 2, 1)
            chol = _cholesky(A)
            self._solve_A = lambda r: _cho_solve(chol, r)
        else:
            self.A = A.tocsr()
            self.C = C.tocsr()
            self.Ct = self.C.T.tocsr()
            symmetric = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                             options=dict(SymmetricMode=True)) if self.m else {}
            try:
                lu = spla.splu(sparse.csc_matrix(A), **symmetric)
            except RuntimeError as exc:
                raise SolverFailure(f"factorization failed: {exc}") from exc
            self._solve_A = lu.solve
        if self.m:
            self._Y = _solve_columns(self._solve_A, self.Ct)
            schur = _cholesky(self.C @ self._Y)
            self._solve_S = lambda r: _cho_solve(schur, r)

    def _apply(self, r, q):
        """(x, mu) solving A x + C'mu = r, C x = q, column by column; r may
        be sparse.  x is formed in place of u = A^-1 r."""
        u = _solve_columns(self._solve_A, r)
        if self.m == 0:
            return u, np.zeros(q.shape)
        mu = self._solve_S(self.C @ u - q)
        step = max(1, _BLOCK_BYTES // (8 * mu.shape[-1]))
        for start in range(0, self.n, step):
            rows = (..., slice(start, start + step), slice(None))
            u[rows] -= self._Y[rows] @ mu
        return u, mu

    def _residual(self, B, x, mu):
        """Split residual (r, q) of the KKT system."""
        return B - self.A @ x - self.Ct @ mu, -(self.C @ x)

    def _test(self, B, x, mu, tol):
        """Columns failing the acceptance test, with their stationarity and
        feasibility residual norms; the residual is formed a column block at
        a time (see _column_blocks)."""
        norms = []
        for cols in _column_blocks(B):
            b = _columns(B, cols)
            r, q = self._residual(b, x[..., cols], mu[..., cols])
            norms.append([np.linalg.norm(v, axis=-2)
                          for v in (r, q, x[..., cols], b)])
        stat, feas, x_norm, b_norm = (np.concatenate(v, axis=-1)
                                      for v in zip(*norms))
        failed = ~(np.isfinite(stat) & np.isfinite(feas)) \
            | (stat > tol * b_norm) | (feas > tol * np.maximum(1.0, x_norm))
        return failed, stat, feas

    def solve(self, b, tol=1e-10):
        """Solve for one right-hand side (n,) or a block of them (n, k).

        A block may be scipy sparse; it is then made dense a column block at
        a time, never whole.  A stack takes (P, n) or (P, n, k).  A column is
        accepted when its stationarity residual is at most tol ||b|| and its
        feasibility residual at most tol max(1, ||x||), both finite.  The
        columns that fail this test in any system are refined, at most
        _REFINE_STEPS times, and each system keeps the correction of the
        columns it failed; any column still failing raises SolverFailure.
        x and mu come back with b's number of columns.
        """
        lead = self.A.shape[:-2]  # (P,) for a stack, () otherwise
        if not sparse.issparse(b):
            b = np.asarray(b, dtype=float)
        if b.ndim - len(lead) not in (1, 2) or \
                b.shape[:len(lead) + 1] != (*lead, self.n) or \
                (sparse.issparse(b) and (lead or b.ndim != 2)):
            raise ValueError(f"shape mismatch: system size {self.n}, rhs {b.shape}")
        B = b.tocsc() if sparse.issparse(b) else b.reshape(*lead, self.n, -1)

        x, mu = self._apply(B, np.zeros((*lead, self.m, B.shape[-1])))
        for step in range(_REFINE_STEPS + 1):
            failed, stat, feas = self._test(B, x, mu, tol)
            if step == _REFINE_STEPS or not failed.any():
                break
            cols = failed.reshape(-1, failed.shape[-1]).any(axis=0)
            sub, keep = (..., cols), failed[..., None, cols]
            dx, dmu = self._apply(*self._residual(_columns(B, cols),
                                                  x[sub], mu[sub]))
            x[sub] = np.where(keep, x[sub] + dx, x[sub])
            mu[sub] = np.where(keep, mu[sub] + dmu, mu[sub])

        if failed.any():
            j = tuple(np.argwhere(failed)[0])
            stat, feas = stat[j], feas[j]
            raise SolverFailure(
                f"solve missed tolerance: stationarity {stat:.3e}, "
                f"feasibility {feas:.3e}", residual=float(max(stat, feas)),
                system=int(j[0]) if lead else None)
        if b.ndim == len(lead) + 1:
            return x[..., 0], mu[..., 0]
        return x, mu
