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
A need not be symmetric and SuperLU's default pivoted ordering is used.  The
kernel polishes with iterative refinement; one per-column acceptance test
decides both which columns are refined and whether the solve succeeds, and a
solve either passes it or raises SolverFailure carrying the achieved residual.
Solves are pure functions of their inputs, so repeated or concurrent calls
on shared immutable matrices are deterministic.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, cho_factor, cho_solve

_REFINE_STEPS = 2
_DENSE_FALLBACK_LIMIT = 5000


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


class SaddleFactorization:
    """Reusable Schur-complement factorization for many right-hand sides.

    A is factorized once; with constraints, Y = A^-1 C' is formed from one
    block solve and S = C Y is Cholesky-factorized, so each application is
    u = A^-1 r, mu = S^-1 (C u - q), x = u - Y mu.  When SuperLU rejects A,
    Cholesky rejects S (rank-deficient constraints make S singular), or a
    solve comes out non-finite, a dense least-squares solve of the KKT
    matrix takes over; it recovers the (still unique) minimizer x with a
    least-norm multiplier, and its solution is accepted only if it passes
    the residual test.
    """

    def __init__(self, A, C):
        self.A = A.tocsr()
        self.C = C.tocsr()
        self.Ct = self.C.T.tocsr()
        self.n = A.shape[0]
        self.m = C.shape[0]
        self._lu = None
        self._dense = None
        try:
            if self.m == 0:
                self._lu = spla.splu(sparse.csc_matrix(A))
            else:
                self._lu = spla.splu(
                    sparse.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0, options=dict(SymmetricMode=True))
                self._Y = self._lu.solve(self.Ct.toarray())
                self._schur = cho_factor(self.C @ self._Y, check_finite=False)
        except (RuntimeError, LinAlgError):
            self._use_dense()

    def _use_dense(self):
        size = self.n + self.m
        if size > _DENSE_FALLBACK_LIMIT:
            raise SolverFailure(
                f"singular KKT system of size {size} "
                "exceeds the dense fallback limit")
        self._lu = None
        self._dense = sparse.bmat(
            [[self.A, self.Ct], [self.C, None]]).toarray()

    def _apply(self, r, q):
        """(x, mu) solving A x + C'mu = r, C x = q, column by column."""
        u = self._lu.solve(r)
        if self.m == 0:
            return u, np.zeros((0, r.shape[1]))
        mu = cho_solve(self._schur, self.C @ u - q, check_finite=False)
        return u - self._Y @ mu, mu

    def _residual(self, B, x, mu):
        """Split residual (r, q) of the KKT system and its column norms."""
        r, q = B - self.A @ x - self.Ct @ mu, -(self.C @ x)
        return r, q, np.linalg.norm(r, axis=0), np.linalg.norm(q, axis=0)

    def solve(self, b, tol=1e-10):
        """Solve for one right-hand side (n,) or a block of them (n, k).

        A column is accepted when its stationarity residual is at most
        tol ||b|| and its feasibility residual at most tol max(1, ||x||),
        both finite.  The columns that fail this test are refined, at most
        _REFINE_STEPS times; any column still failing raises SolverFailure.
        x and mu come back with b's number of columns.
        """
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(f"shape mismatch: system size {self.n}, rhs {b.shape}")
        B = b.reshape(self.n, -1)
        b_norm = np.linalg.norm(B, axis=0)

        def rejected(x, stat, feas):
            return ~(np.isfinite(stat) & np.isfinite(feas)) \
                | (stat > tol * b_norm) \
                | (feas > tol * np.maximum(1.0, np.linalg.norm(x, axis=0)))

        if self._dense is None:
            x, mu = self._apply(B, np.zeros((self.m, B.shape[1])))
            for step in range(_REFINE_STEPS + 1):
                r, q, stat, feas = self._residual(B, x, mu)
                failed = rejected(x, stat, feas)
                if step == _REFINE_STEPS or not failed.any():
                    break
                dx, dmu = self._apply(r[:, failed], q[:, failed])
                x[:, failed] += dx
                mu[:, failed] += dmu
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(mu))):
                self._use_dense()
        if self._dense is not None:
            rhs = np.concatenate([B, np.zeros((self.m, B.shape[1]))])
            z, *_ = np.linalg.lstsq(self._dense, rhs, rcond=None)
            x, mu = z[:self.n], z[self.n:]
            _, _, stat, feas = self._residual(B, x, mu)
            failed = rejected(x, stat, feas)

        if failed.any():
            j = np.flatnonzero(failed)[0]
            raise SolverFailure(
                f"solve missed tolerance: stationarity {stat[j]:.3e}, "
                f"feasibility {feas[j]:.3e}", residual=float(max(stat[j], feas[j])))
        if b.ndim == 1:
            return x[:, 0], mu[:, 0]
        return x, mu
