"""The sparse solver kernel shared by assembly, correctors, and the harness.

Matrices are scipy CSR (``indptr``/``indices``/``data`` are the row offsets,
column indices, and values of the compressed-sparse-row layout).  One kernel,
SaddleFactorization, does every linear solve in the package: the
equality-constrained quadratic solve

    minimize 1/2 x'Ax - b'x   subject to  Cx = 0,

handled through the Schur complement of its KKT system.  With constraints
(m > 0) A is symmetric positive definite, so SuperLU factorizes it once in
its symmetric mode (minimum degree on A'+A, diagonal pivots), and the small
dense Schur complement S = C A^-1 C' is Cholesky-factorized.  An
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
whether the solve succeeds, and a solve either passes it or raises
SolverFailure carrying the achieved residual.  Solves are pure functions of
their inputs, and each system of a stack gets the same bits whatever else is
stacked with it, so repeated or concurrent calls on shared immutable
matrices are deterministic.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

_REFINE_STEPS = 2
_DENSE_FALLBACK_LIMIT = 5000
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
    """Linear solve did not reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def spd_solve(A, b, tol=1e-10):
    """Solve Ax = b for symmetric positive definite A to a relative residual.

    The unconstrained case of SaddleFactorization; deterministic for fixed
    inputs.  Raises SolverFailure if the residual target is missed.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
        raise ValueError(f"shape mismatch: matrix {A.shape}, vector {b.shape}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    no_constraints = sparse.csr_matrix((0, A.shape[0]))
    return SaddleFactorization(A, no_constraints).solve(b, tol)[0]


def _cholesky_stack(A):
    """Lower Cholesky factors of a (P, n, n) stack of SPD matrices."""
    L = np.empty_like(A)
    for p, a in enumerate(A):
        L[p], info = dpotrf(a, lower=1, clean=0)
        if info:
            raise LinAlgError(f"matrix {p} of the stack is not positive definite")
    return L


def _cho_solve_stack(L, B):
    """Solve with each factor of `L` (P, n, n) its block of `B` (P, n, k)."""
    X = np.empty_like(B)
    for p, (factor, b) in enumerate(zip(L, B)):
        X[p], _ = dpotrs(factor, b, lower=1)
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
    u = A^-1 r, mu = S^-1 (C u - q), x = u - Y mu.  When SuperLU rejects A,
    Cholesky rejects S (rank-deficient constraints make S singular), or a
    solve comes out non-finite, a dense least-squares solve of the KKT
    matrix takes over; it recovers the (still unique) minimizer x with a
    least-norm multiplier, and its solution is accepted only if it passes
    the residual test.

    Given numpy stacks A (P, n, n) and C (P, m, n), it factorizes P systems
    at once and solves right-hand sides (P, n) or (P, n, k).  A stack has no
    dense fallback: a matrix that is not positive definite raises
    LinAlgError here, and a column that fails the test raises
    SolverFailure, so the caller can re-solve the systems one at a time.
    """

    def __init__(self, A, C):
        self.n = A.shape[-1]
        self.m = C.shape[-2]
        self._dense = None
        if isinstance(A, np.ndarray):
            self.A, self.C, self.Ct = A, C, C.transpose(0, 2, 1)
            chol = _cholesky_stack(A)
            self._solve_A = lambda r: _cho_solve_stack(chol, r)
            if self.m:
                self._Y = self._solve_A(self.Ct)
                schur = _cholesky_stack(C @ self._Y)
                self._solve_S = lambda r: _cho_solve_stack(schur, r)
            return
        self.A = A.tocsr()
        self.C = C.tocsr()
        self.Ct = self.C.T.tocsr()
        try:
            if self.m == 0:
                lu = spla.splu(sparse.csc_matrix(A))
            else:
                lu = spla.splu(
                    sparse.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0, options=dict(SymmetricMode=True))
                self._Y = _solve_columns(lu.solve, self.Ct)
                schur = cho_factor(self.C @ self._Y, check_finite=False)
                self._solve_S = lambda r: cho_solve(schur, r, check_finite=False)
            self._solve_A = lu.solve
        except (RuntimeError, LinAlgError):
            self._use_dense()

    def _use_dense(self):
        size = self.n + self.m
        if size > _DENSE_FALLBACK_LIMIT:
            raise SolverFailure(
                f"singular KKT system of size {size} "
                "exceeds the dense fallback limit")
        self._dense = sparse.bmat(
            [[self.A, self.Ct], [self.C, None]]).toarray()

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
        columns that fail this test are refined, at most _REFINE_STEPS
        times; any column still failing raises SolverFailure.  x and mu come back with b's
        number of columns.
        """
        lead = self.A.shape[:-2]  # (P,) for a stack, () otherwise
        if not sparse.issparse(b):
            b = np.asarray(b, dtype=float)
        if b.ndim - len(lead) not in (1, 2) or \
                b.shape[:len(lead) + 1] != (*lead, self.n) or \
                (sparse.issparse(b) and (lead or b.ndim != 2)):
            raise ValueError(f"shape mismatch: system size {self.n}, rhs {b.shape}")
        B = b.tocsc() if sparse.issparse(b) else b.reshape(*lead, self.n, -1)

        if self._dense is None:
            x, mu = self._apply(B, np.zeros((*lead, self.m, B.shape[-1])))
            for step in range(_REFINE_STEPS + 1):
                failed, stat, feas = self._test(B, x, mu, tol)
                if step == _REFINE_STEPS or not failed.any():
                    break
                if lead:  # a stack refines whole blocks, keeping failed columns
                    dx, dmu = self._apply(*self._residual(B, x, mu))
                    keep = failed[:, None, :]
                    x, mu = np.where(keep, x + dx, x), np.where(keep, mu + dmu, mu)
                else:  # the residual of the failed columns only
                    dx, dmu = self._apply(*self._residual(
                        _columns(B, failed), x[:, failed], mu[:, failed]))
                    x[:, failed] += dx
                    mu[:, failed] += dmu
            if not lead and not (np.all(np.isfinite(x)) and np.all(np.isfinite(mu))):
                self._use_dense()
        if self._dense is not None:
            rhs = np.concatenate([_columns(B), np.zeros((self.m, B.shape[1]))])
            z, *_ = np.linalg.lstsq(self._dense, rhs, rcond=None)
            x, mu = z[:self.n], z[self.n:]
            failed, stat, feas = self._test(B, x, mu, tol)

        if failed.any():
            j = np.flatnonzero(failed)[0]
            stat, feas = stat.ravel()[j], feas.ravel()[j]
            raise SolverFailure(
                f"solve missed tolerance: stationarity {stat:.3e}, "
                f"feasibility {feas:.3e}", residual=float(max(stat, feas)))
        if b.ndim == len(lead) + 1:
            return x[..., 0], mu[..., 0]
        return x, mu
