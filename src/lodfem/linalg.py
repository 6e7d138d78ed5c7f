"""The sparse solver kernel shared by assembly, correctors, and the harness.

Matrices are scipy CSR (``indptr``/``indices``/``data`` are the row offsets,
column indices, and values of the compressed-sparse-row layout).  One kernel,
SaddleFactorization, does every linear solve in the package: the
equality-constrained quadratic solve

    minimize 1/2 x'Ax - b'x   subject to  Cx = 0,

handled through its KKT system.  An unconstrained solve Ax = b is the case
of C with zero rows (m = 0), in which A need not be symmetric.  The kernel
factorizes with SuperLU and polishes with iterative refinement; it either
meets the requested residual tolerance or raises SolverFailure carrying the
achieved residual.  Solves are pure functions of their inputs, so repeated
or concurrent calls on shared immutable matrices are deterministic.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

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
    """Reusable KKT factorization for many right-hand sides.

    Rank-deficient constraints make the KKT matrix singular; in that case a
    dense least-squares solve recovers the (still unique) minimizer x with a
    least-norm multiplier.  Any other singular system takes the same
    fallback, and its least-squares solution is accepted only if it passes
    the residual test.
    """

    def __init__(self, A, C):
        self.A = A.tocsr()
        self.C = C.tocsr()
        self.n = A.shape[0]
        self.m = C.shape[0]
        self._lu = None
        self._dense = None
        if self.m == 0:
            self._kkt = sparse.csc_matrix(A)
        else:
            self._kkt = sparse.bmat([[A, C.T], [C, None]], format="csc")
        try:
            self._lu = spla.splu(self._kkt)
        except RuntimeError:
            self._use_dense()

    def _use_dense(self):
        if self._kkt.shape[0] > _DENSE_FALLBACK_LIMIT:
            raise SolverFailure(
                f"singular KKT system of size {self._kkt.shape[0]} "
                "exceeds the dense fallback limit")
        self._lu = None
        self._dense = self._kkt.toarray()

    def solve(self, b, tol=1e-10):
        """Solve for one right-hand side (n,) or a block of them (n, k).

        Each column is refined until it meets the tolerance, at most
        _REFINE_STEPS times, and checked on its own; any failing column
        raises SolverFailure.  x and mu come back with b's number of columns.
        """
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(f"shape mismatch: system size {self.n}, rhs {b.shape}")
        B = b.reshape(self.n, -1)
        rhs = np.concatenate([B, np.zeros((self.m, B.shape[1]))])
        if self._dense is None:
            z = self._lu.solve(rhs)
            target = tol * np.maximum(np.linalg.norm(rhs, axis=0), 1e-300)
            for _ in range(_REFINE_STEPS):
                r = rhs - self._kkt @ z
                open_cols = np.linalg.norm(r, axis=0) > target
                if not open_cols.any():
                    break
                z[:, open_cols] += self._lu.solve(r[:, open_cols])
            if not np.all(np.isfinite(z)):
                self._use_dense()
        if self._dense is not None:
            z, *_ = np.linalg.lstsq(self._dense, rhs, rcond=None)
        x, mu = z[:self.n], z[self.n:]

        stat = np.linalg.norm(self.A @ x + self.C.T @ mu - B, axis=0)
        feas = np.linalg.norm(self.C @ x, axis=0)
        failed = np.flatnonzero(
            ~np.isfinite(stat) | (stat > tol * np.linalg.norm(B, axis=0))
            | (feas > tol * np.maximum(1.0, np.linalg.norm(x, axis=0))))
        if failed.size:
            j = failed[0]
            raise SolverFailure(
                f"solve missed tolerance: stationarity {stat[j]:.3e}, "
                f"feasibility {feas[j]:.3e}", residual=float(max(stat[j], feas[j])))
        if b.ndim == 1:
            return x[:, 0], mu[:, 0]
        return x, mu
